package ap

import (
	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/tasks"
)

// databaseFields is the number of wide words loaded per aircraft record
// when the flight database enters PE memory.
const databaseFields = 10

// operands are the broadcast values the programs' element bodies read.
type operands struct {
	ac []airspace.Aircraft
}

// The programs' element bodies: one PE's step of a wide op, reading
// the broadcast operands from m.args.

func peExpected(m *Machine, i int) {
	a := &m.args.ac[i]
	a.ExpX = a.X + a.DX
	a.ExpY = a.Y + a.DY
	a.RMatch = airspace.MatchNone
}

func peDeadReckon(m *Machine, i int) {
	a := &m.args.ac[i]
	a.X, a.Y = a.ExpX, a.ExpY
}

func peWrap(m *Machine, i int) { airspace.Wrap(&m.args.ac[i]) }

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
// The host computes each radar's responders from its box-hit row
// (tasks.BoxHits), and the program is charged the wide-op trace the
// search issues on the hardware (see chargeBoxSearch), which depends on
// the responder counts alone, never on which PEs respond.
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

	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		m.mark("ap.boxpass", int32(pass))
		pending := m.hits.Prepare(w, f, boxHalf, m.pool)
		st.PassRadars[pass] = pending
		if pending == 0 {
			break
		}

		for j := range f.Reports {
			rep := &f.Reports[j]
			m.Scalar(2)
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			// The search's responders: aircraft not withdrawn whose
			// box contains the radar. A radar released earlier in this
			// pass is served its row on demand.
			row := m.hits.Row(w, f, &m.scan, j)
			st.Comparisons += len(ac)

			// Withdraw responders that are already paired with another
			// radar (Algorithm 1 line 8) and release those radars.
			paired := 0
			for _, k := range row {
				if ac[k].RMatch != airspace.MatchOne {
					continue
				}
				paired++
				ac[k].RMatch = airspace.MatchDiscarded
				st.WithdrawnAircraft++
				if r := matchedRadar[k]; r >= 0 {
					f.Reports[r].MatchWith = radar.Unmatched
					matchedRadar[k] = -1
					m.Scalar(2)
				}
			}

			// The free responders resolve the radar.
			free, first := 0, int32(-1)
			for _, k := range row {
				if ac[k].RMatch == airspace.MatchNone {
					if free == 0 {
						first = k
					}
					free++
				}
			}
			m.chargeBoxSearch(paired, free)
			switch {
			case free == 1:
				ac[first].RMatch = airspace.MatchOne
				rep.MatchWith = first
				matchedRadar[first] = int32(j)
			case free >= 2:
				// Two or more aircraft respond: the radar is ambiguous
				// and discarded (Algorithm 1 line 9).
				rep.MatchWith = radar.Discarded
				st.DiscardedRadars++
			}
		}
		boxHalf *= 2
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
// The host computes each associative pass with tasks.Scan over the
// machine's column snapshot of the database, and the control flow is
// the tasks runner's own in-place step, tasks.ResolveInPlace. The
// cycles are those of the wide-op trace the pass issues on the
// hardware (see chargeTrack), which depend on the candidate count
// alone, never on which PEs respond.
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
	m.cols.FillFrom(w)
	m.view.Prepare(src, w, &m.cols, nil)
	if src != nil {
		if m.view.Maintained() {
			m.mark("ap.index.rebuild", 0)
		}
		// Control-unit index build over the database.
		m.Scalar(w.N())
	}
	m.mark("ap.scanresolve", 0)
	for i := range w.Aircraft {
		r := tasks.Scan(&m.cols, &m.view, w, &m.scan, i, m.cols.DX[i], m.cols.DY[i])
		probes, _ := tasks.ResolveInPlace(&m.cols, &m.view, w, &m.scan, i, r, &st)
		m.chargeTrack(probes, r.Cands, src != nil)
	}
	return st
}

// chargeBoxSearch charges one pending radar of the tracking program,
// the trace its associative search issues: the broadcast of the radar
// position and box size; the search for eligible aircraft in the box,
// the mask narrowing to paired responders and the search for free
// ones; a pick-one step per paired responder withdrawn, plus the empty
// step that ends the walk, and the control-unit clear of each; the
// count of free responders; and the control unit's verdict — a pick-one
// step and the pairing when exactly one responds, the discard when two
// or more do.
func (m *Machine) chargeBoxSearch(paired, free int) {
	tiles := uint64(m.Tiles())
	m.Broadcast(3)
	m.chargeWide(6 + 1 + 6)
	m.cycles += uint64((paired+1)*m.prof.SelectCycles) * tiles
	m.Scalar(paired)
	m.cycles += uint64(m.prof.ReduceCycles) * tiles
	switch {
	case free == 1:
		m.cycles += uint64(m.prof.SelectCycles) * tiles
		m.Scalar(3)
	case free >= 2:
		m.Scalar(1)
	}
}

// chargeTrack charges one track of the detection program: its
// control-unit set-up, a control-unit rotation per probe, and the
// 1+probes associative passes — the track's course and each rotation
// probed. The total does not depend on the order the hardware issues
// them in, and no phase mark falls inside a track.
//
// A pass over cands candidates is a broadcast of the track record;
// with a pair source, the control-unit scatter of the candidate flags
// into PE memory; the search for eligible PEs (candidate, not the
// track, altitude band); the wide evaluation of Equations 1-6 (the 4
// divisions, the interval intersection and the horizon clip: ~14 word
// operations); the mask narrowing to critical PEs; and the
// constant-time min-reduction with select that yields the earliest
// conflict and its partner. Pruning does not shorten the wide
// operations, which run over all PEs whatever the mask holds: on a
// true AP a broad phase trims PairChecks and adds the scatter, nothing
// on the wide path.
func (m *Machine) chargeTrack(probes int, cands int32, pruned bool) {
	scans := 1 + probes
	m.Scalar(4 + 8*probes) // set-up, and a rotation per probe
	m.Broadcast(5 * scans) // x, y, vx, vy, alt
	if pruned {
		m.Scalar(int(cands) * scans)
	}
	m.chargeWide((2 + 14 + 1) * scans) // Search, Equations 1-6, MaskAnd
	// MinReduce.
	m.cycles += uint64(scans*(m.prof.ReduceCycles+m.prof.SelectCycles)) * uint64(m.Tiles())
}
