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
// is maintained and serves table rows, the in-band part of what a
// per-track query on a fresh reference source returns; the reference
// sweep is not maintained and serves that query whole. Both must count
// the query's full length, and the decorator must tally the traffic the
// view generated: a table build as one query per track and the total
// of the full sets, a per-track query as it runs. With no source the
// view serves the identity list [0, n) to every track, without
// allocating, as n grows and shrinks on one View.
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
			var v broadphase.View
			v.Prepare(counted, w, cols, pool)
			if v.Maintained() != c.maintained {
				t.Fatalf("%s pass %d: Maintained=%v", c.name, pass, v.Maintained())
			}
			c.ref.Prepare(w)
			buildQ, buildC := counted.Take()
			var buf []int32
			var total int64
			for i := range w.Aircraft {
				full := c.ref.AppendCandidates(nil, w, &w.Aircraft[i])
				want := full
				if c.maintained {
					want = inBand(nil, w, i, full)
				}
				got, count := v.Candidates(&buf, w, i)
				if !slices.Equal(got, want) || count != len(full) {
					t.Fatalf("%s pass %d track %d: view %v of %d, want %v of %d", c.name, pass, i, got, count, want, len(full))
				}
				total += int64(len(full))
			}
			var wantBuildQ, wantBuildC int64
			wantQ, wantC := int64(w.N()), total
			if c.maintained {
				wantBuildQ, wantBuildC, wantQ, wantC = wantQ, wantC, 0, 0
			}
			if buildQ != wantBuildQ || buildC != wantBuildC {
				t.Fatalf("%s pass %d: the build tallied %d queries, %d candidates; want %d, %d", c.name, pass, buildQ, buildC, wantBuildQ, wantBuildC)
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
	var v broadphase.View
	for _, n := range []int{1100, 1400, 850} {
		w := airspace.NewWorld(n, rng.New(uint64(n)))
		cols.FillFrom(w)
		v.Prepare(nil, w, cols, pool)
		if v.Maintained() {
			t.Fatalf("nil source n=%d: view is maintained", n)
		}
		var buf []int32
		for i := range w.Aircraft {
			got, count := v.Candidates(&buf, w, i)
			if len(got) != n || count != n {
				t.Fatalf("nil source n=%d track %d: %d candidates of %d, want %d", n, i, len(got), count, n)
			}
			for k, p := range got {
				if int(p) != k {
					t.Fatalf("nil source n=%d track %d: candidate %d is %d", n, i, k, p)
				}
			}
		}
		if a := testing.AllocsPerRun(100, func() { v.Candidates(&buf, w, n-1) }); a != 0 {
			t.Fatalf("nil source n=%d: %.1f allocs per Candidates call, want 0", n, a)
		}
	}
}
