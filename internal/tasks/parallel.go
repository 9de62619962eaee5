// Host-parallel execution of the reference tasks on the parexec
// engine: Task 1 whole, and the scratch and dirty-replay test of the
// Tasks 2-3 runner in batch.go.
//
// Parallelism here is about the simulator's wall clock only: every
// modeled-time figure is derived from operation tallies elsewhere, and
// every parallel form is bit-for-bit identical to the serial reference
// at any worker count. The construction is phased: a
// parallel phase computes per-item results that depend only on state
// the task never mutates, and a serial phase replays the reference
// control flow in aircraft-index (or radar-index) order, consuming the
// precomputed results instead of recomputing them.
//
// Why that is exact, per task:
//
//   - Detect: the scan reads only X, Y, DX, DY, Alt and ID, while
//     Detect mutates only the conflict fields (Col, ColWith, TimeTill,
//     BatX, BatY). Every per-track scan is therefore independent of
//     the others and can run concurrently; the serial replay applies
//     ResetConflict/MarkConflict in index order, reproducing the
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

// rotationSchedule is RotationSchedule computed once: the schedule is
// probed for every conflicted aircraft and must not allocate per use.
var rotationSchedule = RotationSchedule()

// scanResult is one track's scan outcome: the earliest conflict start,
// the partner that achieved it (first-wins on ties), the number of pair
// checks performed, and the number of 8-wide kernel batch iterations
// executed (tail included).
type scanResult struct {
	tmin    float64
	with    int32
	checks  int32
	batches int32
}

// workerBuf is one worker's candidate buffers, padded so neighbouring
// workers' slice headers don't share a cache line: cand receives
// per-track queries, keep is the kernel's compaction buffer (Correlate
// uses cand alone).
type workerBuf struct {
	cand []int32
	keep []int32
	_    [16]byte
}

// detectScratch holds the reusable state of one Detect/DetectResolve
// invocation; a sync.Pool keeps the hot path allocation-free.
type detectScratch struct {
	res   []scanResult
	reach []float64
	dirty []int32
	bufs  []workerBuf
	// cols is the column snapshot every scan reads (batch.go).
	cols airspace.Columns
	// view serves each track's candidates; with allPairs set (no pair
	// source) the scan reads all[:n] instead, the identity list.
	view     broadphase.View
	allPairs bool
	all      []int32
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
		sc.res = make([]scanResult, n)
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
	bufs      []workerBuf
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
// the process default. Results are identical at any worker count.
func CorrelateNExec(w *airspace.World, f *radar.Frame, passes int, pool *parexec.Pool) CorrelateStats {
	if passes < 1 {
		panic("tasks: CorrelateN needs at least one pass")
	}
	p := parexec.Resolve(pool)
	var st CorrelateStats
	if p.Workers() == 1 {
		correlateSerial(w, f, passes, &st)
		return st
	}
	correlateParallel(w, f, passes, p, &st)
	return st
}

// correlateParallel is Task 1 with the per-pass bounding-box search
// fanned out per radar and a serial replay of the matching state
// machine (see the file comment for the exactness argument).
//
//atm:ordered-merge
func correlateParallel(w *airspace.World, f *radar.Frame, passes int, p *parexec.Pool, st *CorrelateStats) {
	n := w.N()
	nr := len(f.Reports)
	sc := getCorrScratch(nr, p.Workers())
	defer putCorrScratch(sc)

	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
		}
	})
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

		// Parallel phase: geometric box-hit candidates for every radar
		// still unmatched at pass start. Expected positions and the box
		// size are fixed for the whole pass, so the lists cannot go
		// stale; eligibility (withdrawals, earlier matches) is dynamic
		// and left to the replay.
		for wk := range sc.bufs {
			sc.bufs[wk].cand = sc.bufs[wk].cand[:0]
		}
		//atm:noalloc
		p.Run(nr, radarGrain, func(worker, lo, hi int) {
			buf := sc.bufs[worker].cand
			for j := lo; j < hi; j++ {
				rep := &f.Reports[j]
				if rep.MatchWith != radar.Unmatched {
					sc.start[j] = -1
					continue
				}
				s := int32(len(buf))
				for q := range w.Aircraft {
					if inBox(rep, &w.Aircraft[q], boxHalf) {
						buf = append(buf, int32(q))
					}
				}
				sc.start[j] = s
				sc.length[j] = int32(len(buf)) - s
				sc.owner[j] = int32(worker)
			}
			sc.bufs[worker].cand = buf
		})

		// Serial replay in radar-index order.
		for j := range f.Reports {
			rep := &f.Reports[j]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			if sc.start[j] < 0 {
				// Released mid-pass by a withdrawal: no precomputed
				// list, run the reference inner loop.
				correlateRadarFallback(w, f, rep, boxHalf, st, &withdrawn)
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
	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.X, a.Y = a.ExpX, a.ExpY
		}
	})
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
	//atm:noalloc
	p.Run(n, elemGrain, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			airspace.Wrap(&w.Aircraft[i])
		}
	})
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
