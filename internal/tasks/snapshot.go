// The snapshot step of Algorithm 2: the discipline of the paper's
// combined CUDA kernel, which the data-parallel executors share.

package tasks

import (
	"slices"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
)

// Snapshot is Algorithm 2 in the paper's data-parallel form: every
// track resolves against a frozen copy of the committed courses, writes
// only its own record and its own proposed course, and the proposals
// are committed after a barrier. Two mutually conflicting aircraft
// therefore both maneuver relative to each other's old course, where
// ResolveInPlace lets the later one see the earlier one's fix. cuda's
// kernels, vector's scanresolve phase and mimd's scanresolve phase run
// its per-track steps inside their own launches and phases and charge
// their modeled cost from what the steps return.
//
// Detect, Resolve and Commit each act on one track and may run
// concurrently for distinct tracks, each caller on its own slot (a
// host worker or a modeled core). A Snapshot is owned by one engine
// and reused across calls; once its buffers have grown, Prepare and the
// per-track steps allocate nothing.
type Snapshot struct {
	// cols is the frozen copy of committed courses every scan reads,
	// and view serves each track's candidates.
	cols airspace.Columns
	view broadphase.View
	// The proposal of each track: its first conflict-free heading, and
	// whether it found one.
	newDX, newDY []float64
	resolved     []bool
	slots        []snapSlot
}

// snapSlot is one slot's scan buffers and tallies, padded to 128 bytes
// so that one slot's tallies and the next slot's buffers never share a
// cache line.
type snapSlot struct {
	buf ScanBuf
	st  DetectStats
	_   [24]byte
}

// Prepare freezes w's committed courses, prepares the candidate view
// for src over them (nil src serves every aircraft; nil pool means the
// process default) and clears the proposals and the tallies of slots
// slots.
func (s *Snapshot) Prepare(w *airspace.World, src broadphase.PairSource, pool *parexec.Pool, slots int) {
	n := w.N()
	s.cols.FillFrom(w)
	s.view.Prepare(src, w, &s.cols, parexec.Resolve(pool))
	if cap(s.resolved) < n {
		s.newDX = make([]float64, n)
		s.newDY = make([]float64, n)
		s.resolved = make([]bool, n)
	}
	s.newDX, s.newDY, s.resolved = s.newDX[:n], s.newDY[:n], s.resolved[:n]
	clear(s.resolved)
	if len(s.slots) < slots {
		s.slots = slices.Grow(s.slots, slots-len(s.slots))[:slots]
	}
	for k := range s.slots {
		s.slots[k].st = DetectStats{}
	}
}

// Maintained reports whether the prepared source builds the candidate
// table (see broadphase.View.Maintained).
func (s *Snapshot) Maintained() bool { return s.view.Maintained() }

// Detect is Task 2 for the track at index i: it clears the track's
// conflict fields, scans the track's committed course and, if the
// earliest conflict is critical, marks it on the track. The partner's
// record is left to the partner's own step. It returns the scan; the
// caller resolves the track when the scan is Critical.
//
//atm:noalloc
func (s *Snapshot) Detect(w *airspace.World, slot, i int) ScanResult {
	sl := &s.slots[slot]
	a := &w.Aircraft[i]
	a.ResetConflict()
	r := Scan(&s.cols, &s.view, w, &sl.buf, i, s.cols.DX[i], s.cols.DY[i])
	sl.st.PairChecks += int(r.Checks)
	if r.Critical() {
		sl.st.Conflicts++
		a.Col = true
		a.ColWith = r.With
		a.TimeTill = r.Tmin
	}
	return r
}

// Resolve is Task 3 for the track at index i, flagged in conflict: it
// probes the rotation schedule around the committed course against the
// snapshot and proposes the first conflict-free heading, which Commit
// applies. Each critical probe updates the track's partner and earliest
// conflict time. It returns the number of headings probed and the last
// probe's scan. Candidate sets depend only on positions and speeds, so
// every probe has that scan's Cands and Checks, and so does the track's
// Detect scan.
//
//atm:noalloc
func (s *Snapshot) Resolve(w *airspace.World, slot, i int) (probes int, r ScanResult) {
	sl := &s.slots[slot]
	a := &w.Aircraft[i]
	base := geom.Vec2{X: s.cols.DX[i], Y: s.cols.DY[i]}
	for _, deg := range rotationSchedule {
		probes++
		h := base.Rotate(deg)
		a.BatX, a.BatY = h.X, h.Y
		r = Scan(&s.cols, &s.view, w, &sl.buf, i, h.X, h.Y)
		sl.st.PairChecks += int(r.Checks)
		if !r.Critical() {
			s.newDX[i], s.newDY[i] = h.X, h.Y
			s.resolved[i] = true
			sl.st.Rotations += probes
			sl.st.Resolved++
			return probes, r
		}
		a.ColWith = r.With
		if r.Tmin < a.TimeTill {
			a.TimeTill = r.Tmin
		}
	}
	sl.st.Rotations += probes
	sl.st.Unresolved++
	return probes, r
}

// Commit applies the track's proposal, if it has one, and clears its
// conflict fields: the barrier step after every Resolve has run.
//
//atm:noalloc
func (s *Snapshot) Commit(w *airspace.World, i int) {
	if s.resolved[i] {
		a := &w.Aircraft[i]
		a.DX, a.DY = s.newDX[i], s.newDY[i]
		a.ResetConflict()
	}
}

// Stats folds the slots' tallies of the steps run since Prepare.
func (s *Snapshot) Stats() DetectStats {
	var st DetectStats
	for k := range s.slots {
		t := &s.slots[k].st
		st.Conflicts += t.Conflicts
		st.Rotations += t.Rotations
		st.Resolved += t.Resolved
		st.Unresolved += t.Unresolved
		st.PairChecks += t.PairChecks
	}
	return st
}
