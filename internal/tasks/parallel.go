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
//     velocity snapshot; the serial replay keeps a list of aircraft
//     whose heading was committed ("dirty") and recomputes a
//     precomputed scan only when a dirty aircraft could influence it —
//     decided by the broadphase reach-envelope test, which is exact
//     for any heading at a given speed (see package broadphase), and
//     rotation preserves speed. A pair outside each other's envelopes
//     contributes no conflict with tmin below CriticalTime under the
//     old or the new heading, and the scan's strict-< fold ignores
//     such pairs entirely, so the precomputed result is already the
//     one the reference would compute.
//
//   - Correlate: expected positions are fixed for the whole
//     invocation, so each (radar, pass) bounding-box candidate set is
//     a pure function of geometry. The parallel phase computes those
//     candidate lists per pass; the serial replay runs the reference
//     matching state machine over the candidates only, in radar-index
//     then aircraft-index order, and reconstructs the Comparisons
//     tally (which the reference counts per eligible aircraft, hit or
//     miss) from the candidate walk plus the set of aircraft withdrawn
//     before the scan started. A radar released mid-pass has no
//     precomputed list and falls back to the reference inner loop.
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
	dirty []int32
	bufs  []ScanBuf
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
	if len(sc.bufs) < workers {
		sc.bufs = slices.Grow(sc.bufs, workers-len(sc.bufs))[:workers]
	}
	return sc
}

func putDetectScratch(sc *detectScratch) { detectScratchPool.Put(sc) }

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
	start     []int32 // per radar: offset into its worker's buffer, -1 = no list
	length    []int32
	owner     []int32
	withdrawn []int32
	bufs      []ScanBuf
	// job is the persistent body of every fanned-out phase.
	job corrJob
}

var corrScratchPool sync.Pool

func getCorrScratch(nr, workers int) *corrScratch {
	sc, _ := corrScratchPool.Get().(*corrScratch)
	if sc == nil {
		sc = &corrScratch{}
	}
	if cap(sc.start) < nr {
		sc.start = make([]int32, nr)
		sc.length = make([]int32, nr)
		sc.owner = make([]int32, nr)
	}
	sc.start = sc.start[:nr]
	sc.length = sc.length[:nr]
	sc.owner = sc.owner[:nr]
	if len(sc.bufs) < workers {
		sc.bufs = slices.Grow(sc.bufs, workers-len(sc.bufs))[:workers]
	}
	return sc
}

func putCorrScratch(sc *corrScratch) { corrScratchPool.Put(sc) }

// CorrelateExec is Correlate on an explicit engine pool; nil means the
// process default.
func CorrelateExec(w *airspace.World, f *radar.Frame, pool *parexec.Pool) CorrelateStats {
	return CorrelateNExec(w, f, BoxPasses, pool)
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
	nr := len(f.Reports)
	sc := getCorrScratch(nr, p.Workers())
	defer putCorrScratch(sc)
	job := &sc.job
	*job = corrJob{sc: sc, w: w, f: f}

	job.run(p, corrExpected, n, elemGrain)
	f.Reset()

	withdrawn := sc.withdrawn[:0]
	boxHalf := InitialBoxHalf
	for pass := 0; pass < passes; pass++ {
		pending := 0
		for i := range f.Reports {
			if f.Reports[i].MatchWith == radar.Unmatched {
				pending++
			}
		}
		if pass < BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}

		for wk := range sc.bufs {
			sc.bufs[wk].cand = sc.bufs[wk].cand[:0]
		}
		job.boxHalf = boxHalf
		job.run(p, corrBoxHits, nr, radarGrain)

		// Serial replay in radar-index order.
		for j := range f.Reports {
			rep := &f.Reports[j]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			if sc.start[j] < 0 {
				// Released mid-pass by a withdrawal: no precomputed
				// list, run the reference inner loop.
				correlateRadarFallback(w, f, rep, boxHalf, &st, &withdrawn)
				continue
			}
			priorWithdrawn := len(withdrawn)
			cand := sc.bufs[sc.owner[j]].cand[sc.start[j] : sc.start[j]+sc.length[j]]
			broke := int32(-1)
			for _, q := range cand {
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
	job.run(p, corrCommit, n, elemGrain)
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
	job.run(p, corrWrap, n, elemGrain)
	return st
}

// corrPhase selects the phase a corrJob runs.
type corrPhase uint8

const (
	corrExpected corrPhase = iota // expected positions, match reset
	corrBoxHits                   // one pass's box hits, per radar
	corrCommit                    // every aircraft takes its expected position
	corrWrap                      // field re-entry
)

// corrJob is the persistent body of Correlate's fanned-out phases,
// held in corrScratch so that dispatching a phase allocates nothing.
type corrJob struct {
	sc      *corrScratch
	w       *airspace.World
	f       *radar.Frame
	boxHalf float64
	phase   corrPhase
}

// run dispatches one phase over [0, n).
func (j *corrJob) run(p *parexec.Pool, phase corrPhase, n, grain int) {
	j.phase = phase
	p.RunBody(n, grain, j)
}

// Chunk runs the job's phase over aircraft [lo, hi), or over radars
// [lo, hi) in the box-hit phase.
//
//atm:noalloc
func (j *corrJob) Chunk(worker, lo, hi int) {
	ac := j.w.Aircraft
	switch j.phase {
	case corrExpected:
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
		}
	case corrBoxHits:
		// Geometric box hits for every radar still unmatched at pass
		// start. Expected positions and the box size are fixed for the
		// whole pass, so the lists cannot go stale; eligibility
		// (withdrawals, earlier matches) is dynamic and left to the
		// replay.
		sc := j.sc
		buf := sc.bufs[worker].cand
		for r := lo; r < hi; r++ {
			rep := &j.f.Reports[r]
			if rep.MatchWith != radar.Unmatched {
				sc.start[r] = -1
				continue
			}
			s := int32(len(buf))
			for q := range ac {
				if inBox(rep, &ac[q], j.boxHalf) {
					buf = append(buf, int32(q))
				}
			}
			sc.start[r] = s
			sc.length[r] = int32(len(buf)) - s
			sc.owner[r] = int32(worker)
		}
		sc.bufs[worker].cand = buf
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

// correlateRadarFallback scans one radar against every aircraft with
// the reference inner loop, recording withdrawals for the replay's
// Comparisons bookkeeping.
//
//atm:noalloc
func correlateRadarFallback(w *airspace.World, f *radar.Frame, rep *radar.Report, boxHalf float64, st *CorrelateStats, withdrawn *[]int32) {
	for q := range w.Aircraft {
		a := &w.Aircraft[q]
		if a.RMatch != airspace.MatchNone && a.RMatch != airspace.MatchOne {
			continue
		}
		st.Comparisons++
		if !inBox(rep, a, boxHalf) {
			continue
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
			*withdrawn = append(*withdrawn, int32(q))
		}
		if rep.MatchWith == radar.Discarded {
			break
		}
	}
}
