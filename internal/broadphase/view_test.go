package broadphase_test

import (
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
)

// TestPrepareView drives the entry point through a Counted decorator,
// as core installs sources, over two invocations: the production sweep
// is maintained and serves table rows, the reference sweep is not
// maintained and queries per track; both must return exactly what a
// per-track query on a fresh reference source returns, and the
// decorator must tally the traffic the view generated.
func TestPrepareView(t *testing.T) {
	w := airspace.NewWorld(700, rng.New(41))
	cols := &airspace.Columns{}
	pool := parexec.NewPool(3)
	cases := []struct {
		name       string
		src        broadphase.PairSource
		ref        broadphase.PairSource
		maintained bool
	}{
		{"sweep", broadphase.MustNew(broadphase.SweepName), broadphase.NewSweep(), true},
		{"reference-sweep", broadphase.NewSweep(), broadphase.NewSweep(), false},
	}
	for _, c := range cases {
		counted := broadphase.NewCounted(c.src)
		for pass := 0; pass < 2; pass++ {
			cols.FillFrom(w)
			v := broadphase.PrepareView(counted, w, cols, pool)
			if v.Maintained() != c.maintained {
				t.Fatalf("%s pass %d: Maintained=%v", c.name, pass, v.Maintained())
			}
			c.ref.Prepare(w)
			counted.Take()
			var buf []int32
			var cands int64
			for i := range w.Aircraft {
				got := v.Candidates(&buf, w, i)
				want := c.ref.AppendCandidates(nil, w, &w.Aircraft[i])
				if !slices.Equal(got, want) {
					t.Fatalf("%s pass %d track %d: view %v, query %v", c.name, pass, i, got, want)
				}
				cands += int64(len(want))
			}
			// The table build was tallied before the Take above; only
			// per-track queries may count here.
			wantQ, wantC := int64(w.N()), cands
			if c.maintained {
				wantQ, wantC = 0, 0
			}
			if q, n := counted.Take(); q != wantQ || n != wantC {
				t.Fatalf("%s pass %d: tallied %d queries, %d candidates; want %d, %d", c.name, pass, q, n, wantQ, wantC)
			}
			for i := range w.Aircraft {
				a := &w.Aircraft[i]
				a.X += a.DX
				a.Y += a.DY
				airspace.Wrap(a)
			}
		}
	}
	if v := broadphase.PrepareView(nil, w, cols, pool); v.Maintained() {
		t.Fatal("nil source: the zero view must not be maintained")
	}
}
