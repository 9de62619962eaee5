package tasks

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// TestBatchedKernelMatchesScalar is the batched-vs-scalar differential:
// across randomized scenario families, the table path — the production
// sweep's worker-parallel broad phase feeding the branch-free 8-wide
// kernel — must produce worlds and stats identical to the scalar kernel
// on the rebuild sweep, at every worker count, through several
// consecutive detection rounds (so commits made by one round feed the
// next, exercising table reuse against a repaired index). One uniform
// trial runs at N=1100, where the table spans five segments, and one
// dense cluster at N=2200, whose ~2170 candidates per track pass the
// table's size limit, so the production sweep's per-track query path is
// compared as well.
func TestBatchedKernelMatchesScalar(t *testing.T) {
	// ns lists one trial per entry; 0 picks a small randomized count.
	families := []struct {
		spec string
		ns   []int
	}{
		{"uniform", []int{0, 0, 0, 1100}},
		{"circle:radius=12,speed=500", []int{0, 0, 0}},
		{"burst:interval=30", []int{0, 0, 0}},
		{"streams", []int{0, 0, 0}},
		{"dense", []int{0, 0, 0}},
		{"layers:gap=800", []int{0, 0, 0}},
		{"dense:clusters=1,alt=25000,altspread=14000", []int{2200}},
	}
	serial := parexec.NewPool(1)
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

			// One scalar reference chain and one table-path chain per
			// worker count, advanced in lockstep round by round.
			type chain struct {
				label string
				w     *airspace.World
				src   broadphase.PairSource
				pool  *parexec.Pool
			}
			ref := chain{label: "scalar", w: base.Clone(), src: broadphase.NewSweep(), pool: serial}
			var got []chain
			for _, p := range pools {
				got = append(got, chain{
					label: "sweep/w" + itoa(p.Workers()),
					w:     base.Clone(),
					src:   broadphase.MustNew(broadphase.SweepName),
					pool:  p,
				})
			}

			for round := 0; round < rounds; round++ {
				tag := func(c chain, task string) string {
					return fam + " trial " + itoa(trial) + " round " + itoa(round) + " " + task + " " + c.label
				}
				// Detection alone on forks, so the fused task below sees
				// identical inputs on every chain.
				detW := ref.w.Clone()
				detRef := DetectExec(detW, ref.src, ref.pool)
				resRef := DetectResolveExec(ref.w, ref.src, ref.pool)
				for _, c := range got {
					dw := c.w.Clone()
					if det := DetectExec(dw, c.src, c.pool); det != detRef {
						t.Fatalf("%s: stats diverged:\nscalar: %+v\ntable:  %+v", tag(c, "Detect"), detRef, det)
					}
					worldsEqual(t, tag(c, "Detect"), detW, dw)
					if res := DetectResolveExec(c.w, c.src, c.pool); res != resRef {
						t.Fatalf("%s: stats diverged:\nscalar: %+v\ntable:  %+v", tag(c, "DetectResolve"), resRef, res)
					}
					worldsEqual(t, tag(c, "DetectResolve"), ref.w, c.w)
				}
				// Fly the committed courses so the next round's index — and
				// the table chains' repairs — see moved traffic.
				advance := func(w *airspace.World) {
					for i := range w.Aircraft {
						a := &w.Aircraft[i]
						a.X += a.DX
						a.Y += a.DY
						airspace.Wrap(a)
					}
				}
				advance(ref.w)
				for _, c := range got {
					advance(c.w)
				}
			}
		}
	}
}
