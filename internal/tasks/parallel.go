// Host-parallel execution of the reference tasks on the parexec
// engine: Task 1 whole, and the scratch and dirty-replay test of the
// Tasks 2-3 runner in batch.go.
//
// Parallelism here is about the simulator's wall clock only: every
// modeled-time figure is derived from operation tallies elsewhere, and
// every phased body is bit-for-bit identical to the sequential
// algorithm at any worker count, including one, where parexec runs
// each phase inline; the tests keep the sequential algorithms as
// oracles. The construction is phased: a parallel phase computes
// per-item results that depend only on state the task never mutates,
// and a serial phase replays the reference control flow in
// aircraft-index (or radar-index) order, consuming the precomputed
// results instead of recomputing them.
//
// Why that is exact, per task:
//
//   - Detect: the scan reads only X, Y, DX, DY, Alt and ID, while
//     Detect mutates only the conflict fields (Col, ColWith, TimeTill,
//     BatX, BatY). Every per-track scan is therefore independent of
//     the others and can run concurrently; the serial replay applies
//     ResetConflict/markConflict in index order, reproducing the
//     reference's final state and stats exactly.
//
//   - DetectResolve: the only cross-track dependency is a committed
//     heading change (DX, DY) by an earlier-index aircraft. The
//     parallel phase scans every track against the pre-resolution
//     velocity snapshot; the serial replay keeps the aircraft whose
//     heading was committed ("dirty") as a list and a bitmap, and
//     recomputes a precomputed scan only when a dirty aircraft could
//     influence it. When the view serves candidate-table rows, that is
//     when a dirty aircraft is in the track's row: the scan reads
//     nothing of any other aircraft, so with no dirty one in the row
//     it reads exactly what the precomputed scan read. The test costs
//     one bitmap probe per row entry. With the identity list or
//     per-track queries it is the broadphase reach-envelope test
//     against every dirty aircraft, which is exact for any heading at
//     a given speed (see package broadphase), and rotation preserves
//     speed: a pair outside each other's envelopes contributes no
//     conflict with tmin below CriticalTime under the old or the new
//     heading, and the scan's strict-< fold ignores such pairs
//     entirely, so the precomputed result is already the one the
//     reference would compute.
//
//   - Correlate: expected positions are fixed for the whole
//     invocation, so each (radar, pass) bounding-box hit row is a pure
//     function of geometry. BoxHits (boxhits.go) computes those rows
//     per pass, fanned out per radar; the serial replay runs the
//     reference matching state machine over the rows only, in
//     radar-index then aircraft-index order, and reconstructs the
//     Comparisons tally (which the reference counts per eligible
//     aircraft, hit or miss) from the row walk plus the set of
//     aircraft withdrawn before the scan started. A radar released
//     mid-pass is served an on-demand row, replayed the same way.
package tasks

import (
	"slices"
	"sync"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// Work-queue grains: the track and radar loops hand out small index
// ranges so skewed per-item costs (broad-phase candidate counts vary
// wildly) keep every worker busy; element-wise loops use a larger grain
// because their per-item cost is uniform.
const (
	scanGrain  = 32
	radarGrain = 16
	elemGrain  = 1024
)

// detectScratch holds the reusable state of one Detect/DetectResolve
// invocation; a sync.Pool keeps the hot path allocation-free.
type detectScratch struct {
	res   []ScanResult
	reach []float64
	// dirty lists the aircraft whose heading the replay has committed,
	// and dirtyBits holds the same set as a bitmap, clear between
	// invocations.
	dirty     []int32
	dirtyBits []uint64
	bufs      []ScanBuf
	// cols is the column snapshot every scan reads, and view serves
	// each track's candidates (batch.go).
	cols airspace.Columns
	view broadphase.View
	// job is the parallel scan phase's persistent body, held here so
	// its RunBody dispatch allocates nothing.
	job scanJob
}

var detectScratchPool sync.Pool

func getDetectScratch(n, workers int) *detectScratch {
	sc, _ := detectScratchPool.Get().(*detectScratch)
	if sc == nil {
		sc = &detectScratch{}
	}
	if cap(sc.res) < n {
		sc.res = make([]ScanResult, n)
	}
	sc.res = sc.res[:n]
	if cap(sc.reach) < n {
		sc.reach = make([]float64, n)
	}
	sc.reach = sc.reach[:n]
	if nw := (n + 63) / 64; len(sc.dirtyBits) < nw {
		sc.dirtyBits = make([]uint64, nw)
	}
	if len(sc.bufs) < workers {
		sc.bufs = slices.Grow(sc.bufs, workers-len(sc.bufs))[:workers]
	}
	return sc
}

// putDetectScratch returns sc to the pool without the caller's world
// and source: the pool's victim cache would otherwise keep them live
// across the next collection.
func putDetectScratch(sc *detectScratch) {
	sc.view.Release()
	sc.job = scanJob{}
	detectScratchPool.Put(sc)
}

// stale reports whether the precomputed scan of the track at index i
// may differ from a fresh one, given the aircraft committed so far in
// dirty (and in sc.dirtyBits). Where the view serves table rows, that
// is whether a dirty aircraft is in the track's row, the only aircraft
// the scan reads; otherwise dirtyInteracts decides.
//
//atm:noalloc
func (sc *detectScratch) stale(w *airspace.World, i int, dirty []int32) bool {
	if len(dirty) == 0 {
		return false
	}
	tab := sc.view.Table()
	if tab == nil {
		return dirtyInteracts(w, sc, &w.Aircraft[i], dirty)
	}
	for _, j := range tab.Candidates(i) {
		if sc.dirtyBits[j>>6]&(1<<(uint(j)&63)) != 0 {
			return true
		}
	}
	return false
}

// dirtyInteracts reports whether any committed heading change could
// alter track's precomputed scan: a dirty aircraft matters only if it
// is within the vertical band and the two reach envelopes overlap on
// both axes — outside that, no heading at its speed can produce a
// conflict starting before CriticalTime (the broadphase exactness
// argument), and such pairs never touch the scan's strict-< fold.
//
//atm:noalloc
//atm:noescape
func dirtyInteracts(w *airspace.World, sc *detectScratch, track *airspace.Aircraft, dirty []int32) bool {
	for _, j := range dirty {
		o := &w.Aircraft[j]
		if !AltOverlap(track, o) {
			continue
		}
		reach := sc.reach[track.ID] + sc.reach[j]
		dx := track.X - o.X
		if dx < 0 {
			dx = -dx
		}
		if dx > reach {
			continue
		}
		dy := track.Y - o.Y
		if dy < 0 {
			dy = -dy
		}
		if dy <= reach {
			return true
		}
	}
	return false
}

// corrScratch holds the reusable state of one Correlate invocation.
type corrScratch struct {
	hits      BoxHits
	withdrawn []int32
	// row receives the on-demand rows of radars released mid-pass.
	row ScanBuf
	// job is the persistent body of the element-wise phases.
	job corrJob
}

var corrScratchPool sync.Pool

func getCorrScratch() *corrScratch {
	sc, _ := corrScratchPool.Get().(*corrScratch)
	if sc == nil {
		sc = &corrScratch{}
	}
	return sc
}

// putCorrScratch returns sc to the pool without the caller's world.
func putCorrScratch(sc *corrScratch) {
	sc.job = corrJob{}
	corrScratchPool.Put(sc)
}

// CorrelateNExec is CorrelateN on an explicit engine pool; nil means
// the process default. It runs Algorithm 1 with the per-pass
// bounding-box search fanned out per radar and a serial replay of the
// matching state machine (see the file comment for the exactness
// argument); at one worker every phase runs inline. Results are
// identical at any worker count.
//
//atm:ordered-merge
func CorrelateNExec(w *airspace.World, f *radar.Frame, passes int, pool *parexec.Pool) CorrelateStats {
	if passes < 1 {
		panic("tasks: CorrelateN needs at least one pass")
	}
	p := parexec.Resolve(pool)
	var st CorrelateStats
	n := w.N()
	sc := getCorrScratch()
	defer putCorrScratch(sc)
	job := &sc.job
	*job = corrJob{w: w}

	job.run(p, corrExpected, n)
	f.Reset()

	withdrawn := sc.withdrawn[:0]
	boxHalf := InitialBoxHalf
	for pass := 0; pass < passes; pass++ {
		pending := sc.hits.Prepare(w, f, boxHalf, p)
		if pass < BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}

		// Serial replay in radar-index order.
		for j := range f.Reports {
			rep := &f.Reports[j]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			priorWithdrawn := len(withdrawn)
			broke := int32(-1)
			for _, q := range sc.hits.Row(w, f, &sc.row, j) {
				a := &w.Aircraft[q]
				if a.RMatch != airspace.MatchNone && a.RMatch != airspace.MatchOne {
					continue // withdrawn aircraft are out of the search
				}
				switch a.RMatch {
				case airspace.MatchNone:
					if rep.MatchWith == radar.Unmatched {
						a.RMatch = airspace.MatchOne
						rep.MatchWith = a.ID
					} else {
						prev := &w.Aircraft[rep.MatchWith]
						prev.RMatch = airspace.MatchNone
						rep.MatchWith = radar.Discarded
						st.DiscardedRadars++
					}
				case airspace.MatchOne:
					a.RMatch = airspace.MatchDiscarded
					st.WithdrawnAircraft++
					releaseRadarOf(f, a.ID)
					withdrawn = append(withdrawn, q)
				}
				if rep.MatchWith == radar.Discarded {
					broke = q
					break
				}
			}
			// Reconstruct the reference's Comparisons tally: it counts
			// every aircraft not yet withdrawn when the scan started
			// (withdrawals made during a scan happen at the withdrawn
			// aircraft's own, already-counted visit), up to the break
			// point if the radar was discarded.
			if broke >= 0 {
				eligible := int(broke) + 1
				for _, q := range withdrawn[:priorWithdrawn] {
					if q <= broke {
						eligible--
					}
				}
				st.Comparisons += eligible
			} else {
				st.Comparisons += n - priorWithdrawn
			}
		}
		boxHalf *= 2
	}
	sc.withdrawn = withdrawn[:0]

	// Commit (line 12) and field re-entry, with the element-wise
	// aircraft loops fanned out and the radar loop serial.
	job.run(p, corrCommit, n)
	for i := range f.Reports {
		rep := &f.Reports[i]
		switch rep.MatchWith {
		case radar.Unmatched:
			st.UnmatchedRadars++
		case radar.Discarded:
			// already counted
		default:
			a := &w.Aircraft[rep.MatchWith]
			if a.RMatch == airspace.MatchOne {
				a.X, a.Y = rep.RX, rep.RY
				st.Matched++
			}
		}
	}
	job.run(p, corrWrap, n)
	return st
}

// corrPhase selects the phase a corrJob runs.
type corrPhase uint8

const (
	corrExpected corrPhase = iota // expected positions, match reset
	corrCommit                    // every aircraft takes its expected position
	corrWrap                      // field re-entry
)

// corrJob is the persistent body of Correlate's element-wise phases,
// held in corrScratch so that dispatching a phase allocates nothing.
type corrJob struct {
	w     *airspace.World
	phase corrPhase
}

// run dispatches one phase over aircraft [0, n).
func (j *corrJob) run(p *parexec.Pool, phase corrPhase, n int) {
	j.phase = phase
	p.RunBody(n, elemGrain, j)
}

// Chunk runs the job's phase over aircraft [lo, hi).
//
//atm:noalloc
func (j *corrJob) Chunk(_, lo, hi int) {
	ac := j.w.Aircraft
	switch j.phase {
	case corrExpected:
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
		}
	case corrCommit:
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.X, a.Y = a.ExpX, a.ExpY
		}
	case corrWrap:
		for i := lo; i < hi; i++ {
			airspace.Wrap(&ac[i])
		}
	}
}
