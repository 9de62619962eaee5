package ap

import (
	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/radar"
	"repro/internal/tasks"
)

// databaseFields is the number of wide words loaded per aircraft record
// when the flight database enters PE memory.
const databaseFields = 10

// rotationSchedule is Task 3's heading schedule, computed once: it is
// probed for every conflicted aircraft.
var rotationSchedule = tasks.RotationSchedule()

// operands are the broadcast values the programs' element bodies read.
type operands struct {
	ac []airspace.Aircraft
	// rep and boxHalf are the radar report TrackProgram is correlating
	// and the current pass's box half-width.
	rep     *radar.Report
	boxHalf float64
	// idx and (vx, vy) are apScan's track and probed velocity; pruned
	// narrows its search to candMask.
	idx    int
	vx, vy float64
	pruned bool
}

// The programs' element bodies: one PE's step of a wide op, reading
// the broadcast operands from m.args.

func peExpected(m *Machine, i int) {
	a := &m.args.ac[i]
	a.ExpX = a.X + a.DX
	a.ExpY = a.Y + a.DY
	a.RMatch = airspace.MatchNone
}

// peInBox reports whether the radar being correlated lies inside the
// current box around PE i's expected position.
func peInBox(m *Machine, i int) bool {
	a, rep, h := &m.args.ac[i], m.args.rep, m.args.boxHalf
	return rep.RX > a.ExpX-h && rep.RX < a.ExpX+h &&
		rep.RY > a.ExpY-h && rep.RY < a.ExpY+h
}

func peBoxEligible(m *Machine, i int) bool {
	return m.args.ac[i].RMatch != airspace.MatchDiscarded && peInBox(m, i)
}

func pePaired(m *Machine, i int) bool { return m.args.ac[i].RMatch == airspace.MatchOne }

func peBoxFree(m *Machine, i int) bool {
	return m.args.ac[i].RMatch == airspace.MatchNone && peInBox(m, i)
}

func peDeadReckon(m *Machine, i int) {
	a := &m.args.ac[i]
	a.X, a.Y = a.ExpX, a.ExpY
}

func peWrap(m *Machine, i int) { airspace.Wrap(&m.args.ac[i]) }

func peScanEligible(m *Machine, p int) bool {
	if m.args.pruned && !m.candMask[p] {
		return false
	}
	return p != m.args.idx && tasks.AltOverlap(&m.args.ac[m.args.idx], &m.args.ac[p])
}

// peConflictWindow stores in scratch the start of PE p's conflict
// window with the track on its probed velocity, SafeTime for none.
func peConflictWindow(m *Machine, p int) {
	if !m.mask[p] {
		return
	}
	track := &m.args.ac[m.args.idx]
	tmin, tmax, ok := tasks.PairConflict(track.X, track.Y, m.args.vx, m.args.vy, &m.args.ac[p])
	if ok && tmin < tmax {
		m.scratch[p] = tmin
	} else {
		m.scratch[p] = airspace.SafeTime
	}
}

func peCritical(m *Machine, p int) bool { return m.scratch[p] < airspace.SafeTime }

func peTmin(m *Machine, p int) float64 { return m.scratch[p] }

func peCol(m *Machine, i int) bool { return m.args.ac[i].Col }

func peTimeTill(m *Machine, i int) float64 { return m.args.ac[i].TimeTill }

// TrackProgram is the AP implementation of Task 1. The control unit
// walks the radar list; for each still-unmatched radar it broadcasts
// the measured position and performs one associative search over the
// whole aircraft database per bounding-box pass — the constant-time
// "search, count responders, step" idiom that makes the AP linear in
// the number of radars regardless of database size.
//
// Ambiguity is arbitrated per radar over the full responder set (the
// hardware sees all responders at once), which agrees with the
// sequential reference everywhere except the rare scan-order-dependent
// tail cases of Algorithm 1; on unambiguous geometry the results are
// identical.
//
//atm:modeled-time
func TrackProgram(m *Machine, w *airspace.World, f *radar.Frame) tasks.CorrelateStats {
	var st tasks.CorrelateStats
	ac := w.Aircraft

	m.mark("ap.load+expected", 0)
	m.LoadDatabase(databaseFields)

	// Expected positions and match-state reset: one wide operation.
	m.args = operands{ac: ac}
	m.ParallelOp(4, peExpected)
	f.Reset()
	m.Scalar(f.N())

	// matchedRadar[k] remembers which radar aircraft k is paired with,
	// so a withdrawal can release that radar for a later pass. It lives
	// on the machine so steady-state invocations allocate nothing.
	if cap(m.matchedRadar) < len(ac) {
		m.matchedRadar = make([]int32, len(ac))
	}
	matchedRadar := m.matchedRadar[:len(ac)]
	for i := range matchedRadar {
		matchedRadar[i] = -1
	}

	m.args.boxHalf = tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		m.mark("ap.boxpass", int32(pass))
		pending := 0
		for j := range f.Reports {
			if f.Reports[j].MatchWith == radar.Unmatched {
				pending++
			}
		}
		if pass < tasks.BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}

		for j := range f.Reports {
			rep := &f.Reports[j]
			m.Scalar(2)
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			m.Broadcast(3) // rx, ry, boxHalf
			m.args.rep = rep

			// Associative search: eligible aircraft whose expected
			// position box contains the radar.
			m.Search(6, peBoxEligible)
			st.Comparisons += len(ac)

			// Withdraw responders that are already paired with another
			// radar (Algorithm 1 line 8) and release those radars.
			m.MaskAnd(pePaired)
			for {
				k := m.FirstResponder()
				if k < 0 {
					break
				}
				ac[k].RMatch = airspace.MatchDiscarded
				st.WithdrawnAircraft++
				if r := matchedRadar[k]; r >= 0 {
					f.Reports[r].MatchWith = radar.Unmatched
					matchedRadar[k] = -1
					m.Scalar(2)
				}
				m.ClearResponder(k)
			}

			// Re-search for the free responders and resolve the radar.
			m.Search(6, peBoxFree)
			switch c := m.CountResponders(); {
			case c == 1:
				k := m.FirstResponder()
				ac[k].RMatch = airspace.MatchOne
				rep.MatchWith = int32(k)
				matchedRadar[k] = int32(j)
				m.Scalar(3)
			case c >= 2:
				// Two or more aircraft respond: the radar is ambiguous
				// and discarded (Algorithm 1 line 9).
				rep.MatchWith = radar.Discarded
				st.DiscardedRadars++
				m.Scalar(1)
			}
		}
		m.args.boxHalf *= 2
	}

	// Commit: everyone dead-reckons, matched aircraft take the measured
	// position, then field re-entry. The radar scatter is a sequential
	// control-unit loop (radar data lives with the control unit).
	m.mark("ap.commit", 0)
	m.ParallelOp(2, peDeadReckon)
	for j := range f.Reports {
		rep := &f.Reports[j]
		m.Scalar(2)
		switch rep.MatchWith {
		case radar.Unmatched:
			st.UnmatchedRadars++
		case radar.Discarded:
		default:
			if ac[rep.MatchWith].RMatch == airspace.MatchOne {
				a := &ac[rep.MatchWith]
				a.X, a.Y = rep.RX, rep.RY
				st.Matched++
				m.Scalar(2)
			}
		}
	}
	m.ParallelOp(4, peWrap)
	return st
}

// apScan evaluates one candidate course for track aircraft idx against
// the whole database in one associative pass: a broadcast of the track
// record, a wide evaluation of Equations 1-6 on every PE, and a
// constant-time min-reduction over the critical responders. Semantics
// match tasks.scan exactly (min over strict improvements, lowest index
// wins ties).
//
// When a broadphase view is supplied, the control unit scatters the
// track's candidate flags into PE memory before the search and the
// responder mask is additionally narrowed to candidates, so the wide
// bodies read the records of candidate PEs only. An associative search
// is constant-time over all PEs regardless of the mask, so pruning does
// not shorten the wide operations — it trims PairChecks (and the
// control-unit work those would imply on other machines), which is the
// honest statement of what a broad phase buys a true associative
// processor: nothing on the wide path. Exactness is unaffected: pairs
// outside a candidate set have tmin >= SafeTime and could never survive
// the criticality mask anyway.
func apScan(m *Machine, w *airspace.World, idx int, vx, vy float64, st *tasks.DetectStats, view *broadphase.View) (earliest float64, with int32, critical bool) {
	ac := w.Aircraft
	m.Broadcast(5) // x, y, vx, vy, alt

	// tmin per PE, computed by the wide Batcher evaluation.
	// The slice is scratch PE memory; allocate once per machine.
	if len(m.scratch) < len(ac) {
		m.scratch = make([]float64, len(ac))
	}

	pruned := view != nil
	var cand []int32
	if pruned {
		cand = view.Candidates(&m.candBuf, w, idx)
		if len(m.candMask) < len(ac) {
			m.candMask = make([]bool, len(ac))
		}
		for _, p := range cand {
			m.candMask[p] = true
		}
		// Control-unit scatter of the candidate flags into PE memory.
		m.Scalar(len(cand))
	}

	m.args = operands{ac: ac, idx: idx, vx: vx, vy: vy, pruned: pruned}
	m.Search(2, peScanEligible)
	for _, p := range cand {
		m.candMask[p] = false
	}
	checks := 0
	for _, r := range m.Mask() {
		if r {
			checks++
		}
	}
	st.PairChecks += checks

	// Wide evaluation of Equations 1-6 (the 4 divisions, the interval
	// intersection and the horizon clip): ~14 word operations.
	m.ParallelOp(14, peConflictWindow)
	m.MaskAnd(peCritical)

	earliest, arg := m.MinReduce(airspace.SafeTime, peTmin)
	with = airspace.NoConflict
	if arg >= 0 {
		with = int32(arg)
	}
	return earliest, with, earliest < airspace.CriticalTime
}

// DetectResolveProgram is the AP implementation of Tasks 2-3: the
// control unit visits each aircraft in turn; detection of that
// aircraft against the entire database is one constant-time associative
// pass, so the whole task is linear in N on the ideal AP. Resolution
// rotates the course on the control unit and re-runs the pass.
//
// Control flow is identical to the sequential reference, so results
// agree bit-for-bit on any traffic.
//
//atm:modeled-time
func DetectResolveProgram(m *Machine, w *airspace.World) tasks.DetectStats {
	return DetectResolveProgramWith(m, w, nil)
}

// DetectResolveProgramWith is DetectResolveProgram with an optional
// broadphase pair source (nil keeps the paper's full associative scan).
// The in-place course commits of the sequential control flow are safe
// under pruning because the broadphase envelopes depend only on speed,
// which rotation preserves (see package broadphase).
//
//atm:modeled-time
func DetectResolveProgramWith(m *Machine, w *airspace.World, src broadphase.PairSource) tasks.DetectStats {
	var st tasks.DetectStats
	m.mark("ap.load", 0)
	m.LoadDatabase(databaseFields)
	// The broad phase runs serially on the control unit (the AP models
	// no host worker pool). A maintained source (the production sweep)
	// marks its index build and builds its candidate table once, so the
	// per-PE scatter reads table rows; other sources query per track.
	// Candidates and cycle charges are identical either way.
	var view *broadphase.View
	if src != nil {
		m.view = broadphase.PrepareView(src, w, nil, nil)
		view = &m.view
		if view.Maintained() {
			m.mark("ap.index.rebuild", 0)
		}
		// Control-unit index build over the database.
		m.Scalar(w.N())
	}
	m.mark("ap.scanresolve", 0)
	ac := w.Aircraft
	for i := range ac {
		track := &ac[i]
		track.ResetConflict()
		m.Scalar(4)
		tmin, with, critical := apScan(m, w, i, track.DX, track.DY, &st, view)
		if !critical {
			continue
		}
		st.Conflicts++
		tasks.MarkConflict(w, track, with, tmin)

		base := geom.Vec2{X: track.DX, Y: track.DY}
		resolved := false
		for _, deg := range rotationSchedule {
			st.Rotations++
			m.Scalar(8) // rotate on the control unit
			v := base.Rotate(deg)
			track.BatX, track.BatY = v.X, v.Y
			tmin, with, critical = apScan(m, w, i, v.X, v.Y, &st, view)
			if !critical {
				track.DX, track.DY = v.X, v.Y
				track.ResetConflict()
				st.Resolved++
				resolved = true
				break
			}
			tasks.MarkConflict(w, track, with, tmin)
		}
		if !resolved {
			st.Unresolved++
		}
	}
	return st
}
