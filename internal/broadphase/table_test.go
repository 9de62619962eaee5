package broadphase_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// checkTableMatches requires tab to hold, for every track of w, exactly
// the slice ref.AppendCandidates emits — same elements, same order.
func checkTableMatches(t *testing.T, label string, w *airspace.World, ref *broadphase.Sweep, tab *broadphase.PairTable) {
	t.Helper()
	if len(tab.Start) != w.N()+1 {
		t.Fatalf("%s: table has %d rows, world %d aircraft", label, len(tab.Start)-1, w.N())
	}
	var buf []int32
	for i := range w.Aircraft {
		buf = ref.AppendCandidates(buf[:0], w, &w.Aircraft[i])
		got := tab.Candidates(i)
		if len(got) != len(buf) {
			t.Fatalf("%s track %d: table has %d candidates, reference sweep %d", label, i, len(got), len(buf))
		}
		for k := range got {
			if got[k] != buf[k] {
				t.Fatalf("%s track %d: table[%d]=%d, reference sweep %d", label, i, k, got[k], buf[k])
			}
		}
	}
}

// TestPairTableMatchesQueries is the table exactness property: through
// long randomized mutation sequences, the production sweep's table
// must hold, for every track, exactly the slice the reference sweep's
// AppendCandidates emits — same elements, same order — at every worker
// count, and the tables built by different pools must be byte-identical
// to each other.
func TestPairTableMatchesQueries(t *testing.T) {
	pools := []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	r := rng.New(0x7ab1e)
	for _, n := range []int{0, 1, 2, 17, 120, 300, 700} {
		w := randomWorld(r.Split(), n, 0.3)
		ref := broadphase.NewSweep()
		sweeps := make([]*broadphase.Sweep, len(pools))
		for i, p := range pools {
			sweeps[i] = newSweep()
			sweeps[i].SetPool(p)
		}
		for period := 0; period < 24; period++ {
			advancePeriod(r, w, period)
			ref.Prepare(w)
			for pi, s := range sweeps {
				s.Prepare(w)
				checkTableMatches(t, fmt.Sprintf("n=%d period=%d pool=%d", n, period, pi), w, ref, s.PrepareTable())
			}
		}
	}
}

// TestPairTableRepeatable: rebuilding the table from the same prepared
// index yields the identical layout (Start and Cand byte-for-byte) —
// the property that makes rotation probes and dirty-replay rescans safe
// to serve from one build.
func TestPairTableRepeatable(t *testing.T) {
	r := rng.New(0x7ab1e2)
	w := randomWorld(r.Split(), 400, 0.3)
	s := newSweep()
	s.SetPool(parexec.NewPool(4))
	s.Prepare(w)
	first := s.PrepareTable()
	start := append([]int32(nil), first.Start...)
	cand := append([]int32(nil), first.Cand...)
	for trial := 0; trial < 3; trial++ {
		tab := s.PrepareTable()
		if len(tab.Start) != len(start) || len(tab.Cand) != len(cand) {
			t.Fatalf("trial %d: table shape changed: %d/%d vs %d/%d",
				trial, len(tab.Start), len(tab.Cand), len(start), len(cand))
		}
		for i := range start {
			if tab.Start[i] != start[i] {
				t.Fatalf("trial %d: Start[%d] = %d, want %d", trial, i, tab.Start[i], start[i])
			}
		}
		for i := range cand {
			if tab.Cand[i] != cand[i] {
				t.Fatalf("trial %d: Cand[%d] = %d, want %d", trial, i, tab.Cand[i], cand[i])
			}
		}
	}
}

// TestShardedRepairOrderInvariant: whatever pool its table build runs
// on, the production sweep's per-track queries must equal the
// reference sweep's, and its tables must be byte-identical to the
// serial build's — offsets and candidates alike.
func TestShardedRepairOrderInvariant(t *testing.T) {
	r := rng.New(0x5eed5)
	w := randomWorld(r.Split(), 500, 0.3)
	ref := broadphase.NewSweep()
	pools := []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)}
	sweeps := make([]*broadphase.Sweep, len(pools))
	for i, p := range pools {
		sweeps[i] = newSweep()
		sweeps[i].SetPool(p)
	}
	var bufS, bufP []int32
	for period := 0; period < 40; period++ {
		advancePeriod(r, w, period)
		ref.Prepare(w)
		var serial *broadphase.PairTable
		for i := range sweeps {
			sweeps[i].Prepare(w)
			tab := sweeps[i].PrepareTable()
			if i == 0 {
				serial = tab
			} else if !slices.Equal(tab.Start, serial.Start) || !slices.Equal(tab.Cand, serial.Cand) {
				t.Fatalf("period %d: the table built on pool %d differs from the serial build", period, i)
			}
		}
		for i := range w.Aircraft {
			bufS = ref.AppendCandidates(bufS[:0], w, &w.Aircraft[i])
			for si := range sweeps {
				bufP = sweeps[si].AppendCandidates(bufP[:0], w, &w.Aircraft[i])
				if !slices.Equal(bufS, bufP) {
					t.Fatalf("period %d pool %d track %d: candidates %v, reference %v",
						period, si, i, bufP, bufS)
				}
			}
		}
	}
}

// lineWorld makes n aircraft at x = i*spacing, y = 0, with a tiny
// speed, so envelopes barely overlap and all but the first few sit far
// outside the field, where the bins clamp them into the edge cells.
func lineWorld(n int, spacing float64) *airspace.World {
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i) * spacing
		a.Alt = 10000
		a.DX = 0.001
	}
	return w
}

// TestRepairRunBoundaryCrossing teleports one aircraft from x = 55 000
// nm, 1100 places along a line of clamped edge-cell aircraft and
// several 256-track table segments away, to x = 5 inside the field,
// between two Prepares of one source. The table and the per-track
// queries must follow it: both must match the reference sweep.
func TestRepairRunBoundaryCrossing(t *testing.T) {
	const n = 1536
	w := lineWorld(n, 50)
	ref := broadphase.NewSweep()
	s := newSweep()
	s.Prepare(w)
	w.Aircraft[1100].X = 5
	ref.Prepare(w)
	s.Prepare(w)
	checkTableMatches(t, "after teleport", w, ref, s.PrepareTable())
	var a, b []int32
	for i := range w.Aircraft {
		a = ref.AppendCandidates(a[:0], w, &w.Aircraft[i])
		b = s.AppendCandidates(b[:0], w, &w.Aircraft[i])
		if !slices.Equal(a, b) {
			t.Fatalf("track %d: reference %v, production %v", i, a, b)
		}
	}
}

// TestPrepareTableGrowPanic grows the world on one source so the
// segment-buffer count lands between the length and the capacity an
// earlier growth rounded up to (4 → 5 segments doubles the capacity to
// 8, then 6 segments fit in it).
func TestPrepareTableGrowPanic(t *testing.T) {
	ref := broadphase.NewSweep()
	s := newSweep()
	for _, n := range []int{1024, 1280, 1536} {
		w := lineWorld(n, 50)
		ref.Prepare(w)
		s.Prepare(w)
		checkTableMatches(t, fmt.Sprintf("n=%d", n), w, ref, s.PrepareTable())
	}
}

// resizeWorld grows w with fresh uniform traffic or truncates it to n
// aircraft, keeping the ID == index invariant the sweep relies on.
func resizeWorld(w *airspace.World, n int, r *rng.Rand) {
	if n <= w.N() {
		w.Aircraft = w.Aircraft[:n]
		return
	}
	extra := airspace.NewWorld(n-w.N(), r)
	for i := range extra.Aircraft {
		a := extra.Aircraft[i]
		a.ID = int32(w.N())
		w.Aircraft = append(w.Aircraft, a)
	}
}

// TestCoherentSweepMatchesRebuildAtScale is the production sweep's
// exactness property at scale: N spans several 256-track table
// segments and is not a multiple of 256, and one reused source sees 24
// consecutive Prepares of dead reckoning, torus re-entry
// (x, y) → (−x, −y), random teleports and N growing and shrinking.
// Every table row must equal the reference sweep's candidate set
// exactly.
func TestCoherentSweepMatchesRebuildAtScale(t *testing.T) {
	for _, n0 := range []int{1100, 2600} {
		r := rng.New(uint64(n0))
		w := airspace.NewWorld(n0, r.Split())
		ref := broadphase.NewSweep()
		s := newSweep()
		s.SetPool(parexec.NewPool(3))
		var cols airspace.Columns
		// The first growth rounds the segment-buffer capacity up, so
		// the last lands between length and capacity (n0=1100: 5 → 6
		// segments with capacity 10, then 4, then 7).
		sizes := map[int]int{6: n0 + 300, 12: n0 - 250, 18: n0 + 600}
		for step := 0; step < 24; step++ {
			if n, ok := sizes[step]; ok {
				resizeWorld(w, n, r)
			}
			// Aircraft parked at the field edge flying outward re-enter
			// at the negated position during the dead reckoning below:
			// a jump across the whole field, from one edge cell to the other.
			for k := 0; k < 8; k++ {
				a := &w.Aircraft[r.IntN(w.N())]
				sign := r.Sign()
				a.X = sign * (airspace.FieldHalf - 0.05)
				if a.DX*sign < 0 {
					a.DX = -a.DX
				}
			}
			// One period or a whole major cycle of dead reckoning: short
			// steps keep neighbouring segments apart in key space, long
			// steps mix them.
			periods := 1
			if step%2 == 1 {
				periods = airspace.PeriodsPerMajorCycle
			}
			for p := 0; p < periods; p++ {
				for i := range w.Aircraft {
					a := &w.Aircraft[i]
					a.X += a.DX
					a.Y += a.DY
					airspace.Wrap(a)
				}
			}
			for k := 0; k < 6; k++ {
				a := &w.Aircraft[r.IntN(w.N())]
				a.X = r.Range(-airspace.SetupHalf, airspace.SetupHalf)
				a.Y = r.Range(-airspace.SetupHalf, airspace.SetupHalf)
			}
			if step%2 == 0 {
				s.Prepare(w)
			} else {
				cols.FillFrom(w)
				s.PrepareColumns(&cols)
			}
			ref.Prepare(w)
			checkTableMatches(t, fmt.Sprintf("n0=%d step=%d", n0, step), w, ref, s.PrepareTable())
		}
	}
}

// TestPrepareTableSizeLimit drives the table past its size limit: one
// dense cluster puts nearly every aircraft in every other's candidate
// set, N² in all, far beyond the table's per-track average. There
// PrepareTable must return nil at every worker count, leave the sweep
// holding less than half of one copy of the full table (the build stops
// early rather than filling and then discarding), and leave the
// production sweep's per-track queries equal to the reference sweep's.
// The same source must build tables again once the traffic thins out.
func TestPrepareTableSizeLimit(t *testing.T) {
	spec, err := scenario.ParseSpec("dense:clusters=1")
	if err != nil {
		t.Fatal(err)
	}
	const n = 8000
	dense := spec.Generate(n, rng.New(7))
	ref := broadphase.NewSweep()
	ref.Prepare(dense)
	total := 0
	var buf []int32
	for i := range dense.Aircraft {
		buf = ref.AppendCandidates(buf[:0], dense, &dense.Aircraft[i])
		total += len(buf)
	}
	if total < 2*2048*n {
		t.Fatalf("dense cluster has %d candidates, %.0f per track: too sparse to test the limit", total, float64(total)/n)
	}
	sparse := airspace.NewWorld(n, rng.New(8))

	for _, workers := range []int{0, 1, 3, 8} {
		s := newSweep()
		if workers > 0 {
			s.SetPool(parexec.NewPool(workers))
		}
		s.Prepare(dense)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		before := ms.HeapAlloc
		if tab := s.PrepareTable(); tab != nil {
			t.Fatalf("workers=%d: built a table of %d candidates past the size limit", workers, len(tab.Cand))
		}
		runtime.GC()
		runtime.ReadMemStats(&ms)
		if held, full := int64(ms.HeapAlloc)-int64(before), int64(4*total); 2*held >= full {
			t.Errorf("workers=%d: the aborted build left %d bytes live, one copy of the full table is %d", workers, held, full)
		}
		var a, b []int32
		for i := 0; i < n; i += 97 {
			a = ref.AppendCandidates(a[:0], dense, &dense.Aircraft[i])
			b = s.AppendCandidates(b[:0], dense, &dense.Aircraft[i])
			if !slices.Equal(a, b) {
				t.Fatalf("workers=%d track %d: production sweep queries %d candidates, reference sweep %d", workers, i, len(b), len(a))
			}
		}

		s.Prepare(sparse)
		ref.Prepare(sparse)
		tab := s.PrepareTable()
		if tab == nil {
			t.Fatalf("workers=%d: no table for uniform traffic after the dense world", workers)
		}
		checkTableMatches(t, fmt.Sprintf("workers=%d uniform after dense", workers), sparse, ref, tab)
		ref.Prepare(dense)
	}
}

// TestPrepareTableAllocFreeAcrossGC: a steady-state table build
// allocates nothing, even when garbage collections have emptied every
// sync.Pool since the last build. Each segment walk queries with a
// bitmap its segment owns; a bitmap borrowed from the sweep's query
// pool would be reallocated after the collections. Two collections
// run between builds because a pooled item survives the first in the
// pool's victim cache. The builds run their segments serially, with
// no pool and on a one-worker pool: a collection also frees the
// runtime's own records of goroutines waiting on a channel, so a
// parallel dispatch after one may allocate in the runtime whatever
// its body does.
func TestPrepareTableAllocFreeAcrossGC(t *testing.T) {
	w := randomWorld(rng.New(0x6cb17), 600, 0.3)
	for pi, pool := range []*parexec.Pool{nil, parexec.NewPool(1)} {
		s := newSweep()
		s.SetPool(pool)
		s.Prepare(w)
		if s.PrepareTable() == nil { // grow the segment and CSR buffers
			t.Fatal("N=600 world passed the table limit")
		}
		const builds = 5
		var mallocs uint64
		var before, after runtime.MemStats
		for k := 0; k < builds; k++ {
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&before)
			s.PrepareTable()
			runtime.ReadMemStats(&after)
			mallocs += after.Mallocs - before.Mallocs
		}
		if mallocs >= builds {
			t.Errorf("pool=%d: %d allocations over %d table builds, want under one per build", pi, mallocs, builds)
		}
	}
}
