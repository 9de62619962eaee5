package tasks

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// scalarScan is the scalar reference scan of Algorithm 2 over the
// aircraft records: every candidate of track — every aircraft for a nil
// source, else one per-track AppendCandidates query — folded through
// PairConflict in candidate order under the strict-< first-wins rule.
func scalarScan(w *airspace.World, src broadphase.PairSource, track *airspace.Aircraft, vx, vy float64) scanResult {
	r := scanResult{tmin: airspace.SafeTime, with: airspace.NoConflict}
	fold := func(trial *airspace.Aircraft) {
		if trial.ID == track.ID || !AltOverlap(track, trial) {
			return
		}
		r.checks++
		tmin, tmax, ok := PairConflict(track.X, track.Y, vx, vy, trial)
		if ok && tmin < tmax && tmin < r.tmin {
			r.tmin = tmin
			r.with = trial.ID
		}
	}
	if src == nil {
		for p := range w.Aircraft {
			fold(&w.Aircraft[p])
		}
		return r
	}
	for _, p := range src.AppendCandidates(nil, w, track) {
		fold(&w.Aircraft[p])
	}
	return r
}

// scalarDetect is the scalar reference of Task 2: one scan per track on
// its committed course, conflicts marked in index order.
func scalarDetect(w *airspace.World, src broadphase.PairSource) DetectStats {
	if src != nil {
		src.Prepare(w)
	}
	var st DetectStats
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		track.ResetConflict()
		r := scalarScan(w, src, track, track.DX, track.DY)
		st.PairChecks += int(r.checks)
		if r.tmin < airspace.CriticalTime {
			st.Conflicts++
			MarkConflict(w, track, r.with, r.tmin)
		}
	}
	return st
}

// scalarDetectResolve is the scalar reference of Tasks 2-3: the serial
// in-place Algorithm 2, each track's detection scan followed by the
// rotation probes until one is conflict-free, whose heading is
// committed at once.
func scalarDetectResolve(w *airspace.World, src broadphase.PairSource) DetectStats {
	if src != nil {
		src.Prepare(w)
	}
	var st DetectStats
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		track.ResetConflict()
		r := scalarScan(w, src, track, track.DX, track.DY)
		st.PairChecks += int(r.checks)
		if !(r.tmin < airspace.CriticalTime) {
			continue
		}
		st.Conflicts++
		MarkConflict(w, track, r.with, r.tmin)

		base := geom.Vec2{X: track.DX, Y: track.DY}
		resolved := false
		for _, deg := range rotationSchedule {
			st.Rotations++
			v := base.Rotate(deg)
			track.BatX, track.BatY = v.X, v.Y
			pr := scalarScan(w, src, track, v.X, v.Y)
			st.PairChecks += int(pr.checks)
			if !(pr.tmin < airspace.CriticalTime) {
				track.DX, track.DY = v.X, v.Y
				track.ResetConflict()
				st.Resolved++
				resolved = true
				break
			}
			MarkConflict(w, track, pr.with, pr.tmin)
		}
		if !resolved {
			st.Unresolved++
		}
	}
	return st
}

// TestBatchedKernelMatchesScalar is the batched-vs-scalar differential:
// across randomized scenario families, the Tasks 2-3 runner — column
// snapshot, candidate view, branch-free 8-wide kernel — must produce
// worlds and full stats (PairChecks included) identical to the scalar
// reference on the same source, at every worker count, through several
// consecutive detection rounds (so commits made by one round feed the
// next, exercising table reuse against a fresh index). Every source
// runs: the all-pairs scan, brute, and the production sweep,
// whose reference is the rebuild sweep. One uniform trial runs at
// N=1100, where the table spans five segments, and one dense cluster at
// N=2200, whose ~2170 candidates per track pass the table's size limit,
// so the production sweep's per-track query path is compared too.
func TestBatchedKernelMatchesScalar(t *testing.T) {
	// ns lists one trial per entry; 0 picks a small randomized count.
	// The one-cluster world exists to pass the table limit, so only the
	// sweep runs it: every other source scans it all-pairs anyway.
	families := []struct {
		spec      string
		ns        []int
		sweepOnly bool
	}{
		{"uniform", []int{0, 0, 0, 1100}, false},
		{"circle:radius=12,speed=500", []int{0, 0, 0}, false},
		{"burst:interval=30", []int{0, 0, 0}, false},
		{"streams", []int{0, 0, 0}, false},
		{"dense", []int{0, 0, 0}, false},
		{"layers:gap=800", []int{0, 0, 0}, false},
		{"dense:clusters=1,alt=25000,altspread=14000", []int{2200}, true},
	}
	// sources pairs each runner source with its scalar reference's.
	sources := []struct {
		label    string
		ref, got func() broadphase.PairSource
	}{
		{"all-pairs", func() broadphase.PairSource { return nil }, func() broadphase.PairSource { return nil }},
		{"brute", func() broadphase.PairSource { return broadphase.NewBrute() }, func() broadphase.PairSource { return broadphase.NewBrute() }},
		{"sweep", func() broadphase.PairSource { return broadphase.NewSweep() }, func() broadphase.PairSource { return broadphase.MustNew(broadphase.SweepName) }},
	}
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	const rounds = 3

	for fi, f := range families {
		fam := f.spec
		spec, err := scenario.ParseSpec(fam)
		if err != nil {
			t.Fatalf("%s: %v", fam, err)
		}
		for trial, n := range f.ns {
			if n == 0 {
				n = 160 + (fi*97+trial*53)%240
			}
			if err := spec.Validate(n); err != nil {
				t.Fatalf("%s n=%d: %v", fam, n, err)
			}
			seed := uint64(9000 + 31*fi + trial)
			base := spec.Generate(n, rng.New(seed))

			for _, s := range sources {
				if f.sweepOnly && s.label != "sweep" {
					continue
				}
				// One scalar reference chain and one runner chain per
				// worker count, advanced in lockstep round by round.
				type chain struct {
					label string
					w     *airspace.World
					src   broadphase.PairSource
					pool  *parexec.Pool
				}
				refW, refSrc := base.Clone(), s.ref()
				var got []chain
				for _, p := range pools {
					got = append(got, chain{
						label: s.label + "/w" + itoa(p.Workers()),
						w:     base.Clone(),
						src:   s.got(),
						pool:  p,
					})
				}

				for round := 0; round < rounds; round++ {
					tag := func(c chain, task string) string {
						return fam + " trial " + itoa(trial) + " round " + itoa(round) + " " + task + " " + c.label
					}
					// Detection alone on forks, so the fused task below sees
					// identical inputs on every chain.
					detW := refW.Clone()
					detRef := scalarDetect(detW, refSrc)
					resRef := scalarDetectResolve(refW, refSrc)
					for _, c := range got {
						dw := c.w.Clone()
						if det := DetectExec(dw, c.src, c.pool); det != detRef {
							t.Fatalf("%s: stats diverged:\nscalar: %+v\nrunner: %+v", tag(c, "Detect"), detRef, det)
						}
						worldsEqual(t, tag(c, "Detect"), detW, dw)
						if res := DetectResolveExec(c.w, c.src, c.pool); res != resRef {
							t.Fatalf("%s: stats diverged:\nscalar: %+v\nrunner: %+v", tag(c, "DetectResolve"), resRef, res)
						}
						worldsEqual(t, tag(c, "DetectResolve"), refW, c.w)
					}
					// Fly the committed courses so the next round's index
					// sees moved traffic.
					advance := func(w *airspace.World) {
						for i := range w.Aircraft {
							a := &w.Aircraft[i]
							a.X += a.DX
							a.Y += a.DY
							airspace.Wrap(a)
						}
					}
					advance(refW)
					for _, c := range got {
						advance(c.w)
					}
				}
			}
		}
	}
}
