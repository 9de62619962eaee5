package broadphase_test

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// inBand appends to dst the members of cand inside the altitude band of
// w's aircraft i, in cand's order.
func inBand(dst []int32, w *airspace.World, i int, cand []int32) []int32 {
	for _, j := range cand {
		if airspace.AltOverlap(w.Aircraft[i].Alt, w.Aircraft[j].Alt) {
			dst = append(dst, j)
		}
	}
	return dst
}

// checkTableMatches requires tab to hold, for every track of w, the
// slice ref.AppendCandidates emits with the candidates outside the
// track's altitude band dropped — same elements, same order — as its
// row, and the unfiltered slice's length as its Count.
func checkTableMatches(t *testing.T, label string, w *airspace.World, ref *broadphase.Sweep, tab *broadphase.PairTable) {
	t.Helper()
	if len(tab.Start) != w.N()+1 || len(tab.Count) != w.N() {
		t.Fatalf("%s: table has %d rows and %d counts, world %d aircraft", label, len(tab.Start)-1, len(tab.Count), w.N())
	}
	var buf, row []int32
	for i := range w.Aircraft {
		buf = ref.AppendCandidates(buf[:0], w, &w.Aircraft[i])
		if int(tab.Count[i]) != len(buf) {
			t.Fatalf("%s track %d: table counts %d candidates, reference sweep %d", label, i, tab.Count[i], len(buf))
		}
		row = inBand(row[:0], w, i, buf)
		if got := tab.Candidates(i); !slices.Equal(got, row) {
			t.Fatalf("%s track %d: table row %v, reference sweep in band %v", label, i, got, row)
		}
	}
}

// TestPairTableMatchesQueries is the table exactness property: through
// long randomized mutation sequences, the production sweep's table
// must hold, for every track, exactly the in-band part of the slice the
// reference sweep's AppendCandidates emits — same elements, same order
// — and that slice's length, at every worker count, and the tables
// built by different pools must be byte-identical to each other.
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
// index yields the identical layout (Start, Cand and Count
// byte-for-byte) — the property that makes rotation probes and
// dirty-replay rescans safe to serve from one build.
func TestPairTableRepeatable(t *testing.T) {
	r := rng.New(0x7ab1e2)
	w := randomWorld(r.Split(), 400, 0.3)
	s := newSweep()
	s.SetPool(parexec.NewPool(4))
	s.Prepare(w)
	first := s.PrepareTable()
	start := append([]int32(nil), first.Start...)
	cand := append([]int32(nil), first.Cand...)
	count := append([]int32(nil), first.Count...)
	for trial := 0; trial < 3; trial++ {
		tab := s.PrepareTable()
		if !slices.Equal(tab.Count, count) {
			t.Fatalf("trial %d: counts changed", trial)
		}
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
			} else if !slices.Equal(tab.Start, serial.Start) || !slices.Equal(tab.Cand, serial.Cand) || !slices.Equal(tab.Count, serial.Count) {
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
// Every table row must equal the in-band part of the reference sweep's
// candidate set exactly, and every count its size.
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

// bandEdges returns compressed uniform traffic whose altitudes sit on
// the edges of the altitude band, cycling through lo, lo + AltBandFeet
// and lo − AltBandFeet, each of the latter two also one ulp nearer lo,
// and NaN.
func bandEdges(r *rng.Rand, lo float64) *airspace.World {
	w := randomWorld(r, 1100, 0.3)
	hi, below := lo+airspace.AltBandFeet, lo-airspace.AltBandFeet
	alts := []float64{lo, hi, math.Nextafter(hi, lo), below, math.Nextafter(below, lo), math.NaN()}
	for i := range w.Aircraft {
		w.Aircraft[i].Alt = alts[i%len(alts)]
	}
	return w
}

// TestPairTableAltitudeRows is the altitude-band differential: on
// every traffic family and on worlds built to sit on the band's edge,
// every table row must equal the in-band part of the reference sweep's
// candidate set and every count that set's size, on pools of 1, 2 and 8
// workers. One source per pool sees every world in turn, built from
// records and from columns alternately, as N goes up and down. The
// one-cluster world whose full sets pass the size limit must build no
// table, although its rows alone would fit, and the source must build
// tables again after it.
func TestPairTableAltitudeRows(t *testing.T) {
	const lo = 20000.0
	hi := lo + airspace.AltBandFeet
	if airspace.AltOverlap(lo, hi) || !airspace.AltOverlap(lo, math.Nextafter(hi, lo)) ||
		airspace.AltOverlap(math.NaN(), math.NaN()) || airspace.AltOverlap(lo, math.NaN()) {
		t.Fatal("the altitude band is not open at AltBandFeet, or admits NaN")
	}
	r := rng.New(0xa17)
	type world struct {
		name  string
		w     *airspace.World
		table bool // whether the full sets fit under the size limit
	}
	var worlds []world
	for _, c := range []struct {
		spec string
		n    int
	}{
		{"uniform", 1100}, {"layers:gap=800", 2600}, {"uniform", 8000}, {"dense", 2600},
		{"circle", 1100}, {"layers:gap=800", 8000}, {"dense", 1100}, {"circle", 2600},
	} {
		spec, err := scenario.ParseSpec(c.spec)
		if err != nil {
			t.Fatal(err)
		}
		worlds = append(worlds, world{fmt.Sprintf("%s n=%d", c.spec, c.n), spec.Generate(c.n, r.Split()), true})
	}
	cluster, err := scenario.ParseSpec("dense:clusters=1,alt=25000,altspread=14000")
	if err != nil {
		t.Fatal(err)
	}
	edges := bandEdges(r.Split(), lo)
	worlds = append(worlds, []world{
		{"zero speed", withSpeeds(1100, r.Split(), func(i int) float64 { return float64(i % 2) }), true},
		{"parked at the field edge", parkedAtEdge(r.Split()), true},
		{"altitudes on the band edge", edges, true},
		{"one cluster past the table limit", cluster.Generate(2200, rng.New(2018)), false},
		{"uniform after the limit", airspace.NewWorld(2600, r.Split()), true},
	}...)

	// The band-edge world must hold 2D candidates exactly AltBandFeet
	// apart and an altitude ulp inside it.
	ref := broadphase.NewSweep()
	ref.Prepare(edges)
	var exact, inside int
	var buf []int32
	for i := range edges.Aircraft {
		buf = ref.AppendCandidates(buf[:0], edges, &edges.Aircraft[i])
		for _, j := range buf {
			switch d := math.Abs(edges.Aircraft[i].Alt - edges.Aircraft[j].Alt); {
			case d == airspace.AltBandFeet:
				exact++
			case d < airspace.AltBandFeet && d > airspace.AltBandFeet-1e-9:
				inside++
			}
		}
	}
	if exact == 0 || inside == 0 {
		t.Fatalf("band-edge world has %d candidate pairs exactly AltBandFeet apart and %d an ulp inside", exact, inside)
	}

	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(2), parexec.NewPool(8)}
	sweeps := make([]*broadphase.Sweep, len(pools))
	for k, p := range pools {
		sweeps[k] = newSweep()
		sweeps[k].SetPool(p)
	}
	var cols airspace.Columns
	for wi, c := range worlds {
		ref.Prepare(c.w)
		cols.FillFrom(c.w)
		for k, s := range sweeps {
			label := fmt.Sprintf("%s, pool of %d", c.name, pools[k].Workers())
			if wi%2 == 0 {
				s.Prepare(c.w)
			} else {
				s.PrepareColumns(&cols)
			}
			tab := s.PrepareTable()
			if (tab != nil) != c.table {
				t.Fatalf("%s: built a table: %v, want %v", label, tab != nil, c.table)
			}
			if tab != nil {
				checkTableMatches(t, label, c.w, ref, tab)
			}
		}
	}
}

// TestPrepareTableSizeLimit drives the table past its size limit: one
// dense cluster puts nearly every aircraft in every other's candidate
// set, N² in all, far beyond the table's per-track average. There
// PrepareTable must return nil at every worker count, leave the sweep
// holding less than half of one copy of the full candidate sets (the
// build stops early rather than filling and then discarding), and leave
// the production sweep's per-track queries — the full sets — equal to
// the reference sweep's. The same source must build tables again once
// the traffic thins out.
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
