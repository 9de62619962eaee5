package tasks

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// snapTrace is what an executor charges a track from: its first scan's
// candidates and checks, its probe count, and its last probe's
// candidates and checks.
type snapTrace struct {
	cands, checks           int32
	probes                  int
	probeCands, probeChecks int32
}

// plainSnapshot is the snapshot discipline of Algorithm 2 written
// plainly over the records: it copies the committed courses, then, per
// track in index order, folds PairConflict over the track's candidates
// on its committed course (detect) and on each rotation (resolve) — all
// against the copy — keeps the first clean heading as the track's
// proposal, and commits the proposals at the end. With detect off it
// resolves the tracks already flagged, the split kernels' second half.
// src (nil for all pairs) is prepared on the copy.
func plainSnapshot(w *airspace.World, src broadphase.PairSource, detect, resolve bool) (DetectStats, []snapTrace) {
	snap := w.Clone()
	if src != nil {
		src.Prepare(snap)
	}
	n := w.N()
	var st DetectStats
	tr := make([]snapTrace, n)
	props := make([]geom.Vec2, n)
	proposed := make([]bool, n)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		c := &snap.Aircraft[i]
		if detect {
			a.ResetConflict()
			r := scalarScan(snap, src, c, c.DX, c.DY)
			st.PairChecks += int(r.Checks)
			tr[i].cands, tr[i].checks = r.Cands, r.Checks
			if r.Tmin < airspace.CriticalTime {
				st.Conflicts++
				a.Col, a.ColWith, a.TimeTill = true, r.With, r.Tmin
			}
		}
		if !resolve || !a.Col {
			continue
		}
		base := geom.Vec2{X: c.DX, Y: c.DY}
		for _, deg := range rotationSchedule {
			st.Rotations++
			tr[i].probes++
			v := base.Rotate(deg)
			a.BatX, a.BatY = v.X, v.Y
			pr := scalarScan(snap, src, c, v.X, v.Y)
			st.PairChecks += int(pr.Checks)
			tr[i].probeCands, tr[i].probeChecks = pr.Cands, pr.Checks
			if !(pr.Tmin < airspace.CriticalTime) {
				props[i], proposed[i] = v, true
				break
			}
			a.ColWith = pr.With
			if pr.Tmin < a.TimeTill {
				a.TimeTill = pr.Tmin
			}
		}
		if proposed[i] {
			st.Resolved++
		} else {
			st.Unresolved++
		}
	}
	for i := range w.Aircraft {
		if proposed[i] {
			a := &w.Aircraft[i]
			a.DX, a.DY = props[i].X, props[i].Y
			a.ResetConflict()
		}
	}
	return st, tr
}

// runSnapshot is plainSnapshot on s: Prepare, then the per-track steps
// from a parexec run over pool, each on its worker's slot, then Commit
// from a second run when resolving.
func runSnapshot(s *Snapshot, w *airspace.World, src broadphase.PairSource, pool *parexec.Pool, detect, resolve bool) (DetectStats, []snapTrace) {
	s.Prepare(w, src, pool, pool.Workers())
	tr := make([]snapTrace, w.N())
	pool.Run(w.N(), 7, func(worker, lo, hi int) {
		for i := lo; i < hi; i++ {
			if detect {
				r := s.Detect(w, worker, i)
				tr[i].cands, tr[i].checks = r.Cands, r.Checks
			}
			if resolve && w.Aircraft[i].Col {
				probes, pr := s.Resolve(w, worker, i)
				tr[i].probes = probes
				tr[i].probeCands, tr[i].probeChecks = pr.Cands, pr.Checks
			}
		}
	})
	if resolve {
		pool.Run(w.N(), 64, func(_, lo, hi int) {
			for i := lo; i < hi; i++ {
				s.Commit(w, i)
			}
		})
	}
	return s.Stats(), tr
}

// TestSnapshotMatchesPlainDiscipline holds the shared snapshot step to
// the discipline written plainly over the records: worlds, stats, and
// each track's candidates, checks and probe count, on the fused path
// (detect and resolve every track) and the split path (detect every
// track, then resolve the flagged ones from a fresh Prepare). Sources:
// all pairs, brute, the production sweep and the rebuild sweep, on
// uniform traffic at N=1100 (two rounds, the committed courses flown
// in between) and N=2600 (past ten 256-track table segments) and, for
// the production sweep, the one-cluster N=2200 world past the table's
// size limit. The steps run from parexec runs at pools of 1, 2, 3 and
// 8 workers on one reused Snapshot. Every probe's candidates and checks
// must equal the track's first scan's: the charge the executors take
// from one scan rests on it.
func TestSnapshotMatchesPlainDiscipline(t *testing.T) {
	// The one-cluster world exists to pass the production sweep's table
	// limit, so only that source runs it.
	worlds := []struct {
		spec   string
		n      int
		rounds int
		only   string
	}{
		{"uniform", 1100, 2, ""},
		{"uniform", 2600, 1, ""},
		{"dense:clusters=1,alt=25000,altspread=14000", 2200, 1, "sweep"},
	}
	sources := []struct {
		label    string
		ref, got func() broadphase.PairSource
	}{
		{"all-pairs", func() broadphase.PairSource { return nil }, func() broadphase.PairSource { return nil }},
		{"brute", func() broadphase.PairSource { return broadphase.NewBrute() }, func() broadphase.PairSource { return broadphase.NewBrute() }},
		{"sweep", func() broadphase.PairSource { return broadphase.NewSweep() }, func() broadphase.PairSource { return broadphase.MustNew(broadphase.SweepName) }},
		{"rebuild-sweep", func() broadphase.PairSource { return broadphase.NewSweep() }, func() broadphase.PairSource { return broadphase.NewSweep() }},
	}
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}
	var s Snapshot
	var resolved, unresolved int
	for wi, wl := range worlds {
		spec, err := scenario.ParseSpec(wl.spec)
		if err != nil {
			t.Fatal(err)
		}
		base := spec.Generate(wl.n, rng.New(uint64(400+wi)))
		for _, so := range sources {
			if wl.only != "" && so.label != wl.only {
				continue
			}
			for _, split := range []bool{false, true} {
				refW, refSrc := base.Clone(), so.ref()
				gotW := make([]*airspace.World, len(pools))
				gotSrc := make([]broadphase.PairSource, len(pools))
				for k := range pools {
					gotW[k], gotSrc[k] = base.Clone(), so.got()
				}
				conflicts := 0
				for round := 0; round < wl.rounds; round++ {
					var ref DetectStats
					var refTr []snapTrace
					if split {
						det, detTr := plainSnapshot(refW, refSrc, true, false)
						ref, refTr = plainSnapshot(refW, refSrc, false, true)
						ref.Conflicts, ref.PairChecks = det.Conflicts, det.PairChecks+ref.PairChecks
						for i := range refTr {
							refTr[i].cands, refTr[i].checks = detTr[i].cands, detTr[i].checks
						}
					} else {
						ref, refTr = plainSnapshot(refW, refSrc, true, true)
					}
					conflicts += ref.Conflicts
					resolved += ref.Resolved
					unresolved += ref.Unresolved
					for i, tr := range refTr {
						if tr.probes > 0 && (tr.probeCands != tr.cands || tr.probeChecks != tr.checks) {
							t.Fatalf("%s n=%d %s: track %d probes see %d/%d candidates/checks, its scan %d/%d",
								wl.spec, wl.n, so.label, i, tr.probeCands, tr.probeChecks, tr.cands, tr.checks)
						}
					}
					for k, p := range pools {
						label := fmt.Sprintf("%s n=%d %s split=%v round %d workers=%d", wl.spec, wl.n, so.label, split, round, p.Workers())
						w := gotW[k]
						var got DetectStats
						var gotTr []snapTrace
						if split {
							det, detTr := runSnapshot(&s, w, gotSrc[k], p, true, false)
							got, gotTr = runSnapshot(&s, w, gotSrc[k], p, false, true)
							got.Conflicts, got.PairChecks = det.Conflicts, det.PairChecks+got.PairChecks
							for i := range gotTr {
								gotTr[i].cands, gotTr[i].checks = detTr[i].cands, detTr[i].checks
							}
						} else {
							got, gotTr = runSnapshot(&s, w, gotSrc[k], p, true, true)
						}
						if got != ref {
							t.Fatalf("%s: stats diverged:\nplain:    %+v\nsnapshot: %+v", label, ref, got)
						}
						for i := range refTr {
							if gotTr[i] != refTr[i] {
								t.Fatalf("%s: track %d traced %+v, plain %+v", label, i, gotTr[i], refTr[i])
							}
						}
						worldsEqual(t, label, refW, w)
					}
					advance := func(w *airspace.World) {
						for i := range w.Aircraft {
							a := &w.Aircraft[i]
							a.X += a.DX
							a.Y += a.DY
							airspace.Wrap(a)
						}
					}
					advance(refW)
					for _, w := range gotW {
						advance(w)
					}
				}
				if conflicts == 0 {
					t.Fatalf("%s n=%d %s: no conflicts; the test exercises no resolution", wl.spec, wl.n, so.label)
				}
			}
		}
	}
	if resolved == 0 || unresolved == 0 {
		t.Fatalf("%d tracks resolved and %d unresolved; the test must exercise both", resolved, unresolved)
	}
}

// TestSnapshotSlotPadding pins each slot to 128 bytes, so that one
// slot's tallies never share a cache line with the next slot's scan
// buffers.
func TestSnapshotSlotPadding(t *testing.T) {
	if got := unsafe.Sizeof(snapSlot{}); got != 128 {
		t.Fatalf("snapSlot is %d bytes, want 128", got)
	}
}

// TestSnapshotAllocFree: once warm, Prepare and every step allocate
// nothing, with no source and with the sweep, at one worker and two.
func TestSnapshotAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	base := airspace.NewWorld(1500, rng.New(11))
	for _, workers := range []int{1, 2} {
		p := parexec.NewPool(workers)
		for _, srcName := range []string{"", broadphase.SweepName} {
			src := newTestSource(srcName)
			var s Snapshot
			w := base.Clone()
			run := func() {
				base.CloneInto(w)
				s.Prepare(w, src, p, workers)
				for i := range w.Aircraft {
					if s.Detect(w, i%workers, i).Critical() {
						s.Resolve(w, i%workers, i)
					}
				}
				for i := range w.Aircraft {
					s.Commit(w, i)
				}
				s.Stats()
			}
			run()
			if s.Stats().Conflicts == 0 {
				t.Fatal("the N=1500 world has no conflicts; the test would not exercise resolution")
			}
			if avg := testing.AllocsPerRun(5, run); avg > 0 {
				t.Errorf("workers=%d src=%q: %.1f allocs per Prepare and steps, want 0", workers, srcName, avg)
			}
		}
	}
}
