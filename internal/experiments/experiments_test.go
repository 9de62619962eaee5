package experiments

import (
	"runtime"
	"testing"

	"repro/internal/platform"
	"repro/internal/trace"
)

// quick is the test configuration: trimmed sweeps, one major cycle.
var quick = Config{Seed: 2018, Quick: true}

func labels(t *testing.T, names []string) map[string]bool {
	t.Helper()
	m := map[string]bool{}
	for _, n := range names {
		m[platform.Label(n)] = true
	}
	return m
}

func TestFig4ShapesAndOrdering(t *testing.T) {
	d, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "fig4" || len(d.Series) != len(platform.Names()) {
		t.Fatalf("dataset = %+v", d)
	}
	want := labels(t, platform.Names())
	for _, s := range d.Series {
		if !want[s.Label] {
			t.Fatalf("unexpected series %q", s.Label)
		}
		if len(s.Points) != len(quick.AllPlatformNs()) {
			t.Fatalf("series %q has %d points", s.Label, len(s.Points))
		}
		// Timings must be positive and nondecreasing-ish in N (allow
		// the MIMD jitter a 2x tolerance).
		for i, p := range s.Points {
			if p.Y <= 0 {
				t.Fatalf("series %q point %d not positive: %+v", s.Label, i, p)
			}
		}
	}
	// Ordering at the largest sweep point: every NVIDIA series below
	// AP, ClearSpeed and Xeon.
	nmax := float64(quick.AllPlatformNs()[len(quick.AllPlatformNs())-1])
	at := func(label string) float64 {
		s := d.Get(label)
		for _, p := range s.Points {
			if p.X == nmax {
				return p.Y
			}
		}
		t.Fatalf("series %q missing point at %v", label, nmax)
		return 0
	}
	for _, nv := range platform.NVIDIANames() {
		for _, other := range []string{platform.STARAN, platform.ClearSpeed, platform.Xeon16} {
			if at(platform.Label(nv)) >= at(platform.Label(other)) {
				t.Errorf("at N=%v: %s (%v) not faster than %s (%v)",
					nmax, platform.Label(nv), at(platform.Label(nv)),
					platform.Label(other), at(platform.Label(other)))
			}
		}
	}
}

func TestFig5NVIDIAOnly(t *testing.T) {
	d, err := Fig5(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(d.Series))
	}
	// Device generation ordering at the top of the sweep.
	ns := quick.NVIDIANs()
	nmax := float64(ns[len(ns)-1])
	titan := d.Get(platform.Label(platform.TitanXPascal))
	old := d.Get(platform.Label(platform.GeForce9800GT))
	var tTitan, tOld float64
	for _, p := range titan.Points {
		if p.X == nmax {
			tTitan = p.Y
		}
	}
	for _, p := range old.Points {
		if p.X == nmax {
			tOld = p.Y
		}
	}
	if tTitan >= tOld {
		t.Fatalf("Titan X (%v) not faster than 9800 GT (%v) at N=%v", tTitan, tOld, nmax)
	}
}

func TestFig6And7Task23(t *testing.T) {
	d6, err := Fig6(quick)
	if err != nil {
		t.Fatal(err)
	}
	d7, err := Fig7(quick)
	if err != nil {
		t.Fatal(err)
	}
	if d6.ID != "fig6" || d7.ID != "fig7" {
		t.Fatal("wrong ids")
	}
	if len(d7.Series) != 3 {
		t.Fatalf("fig7 series = %d", len(d7.Series))
	}
	// Tasks 2+3 cost more than Task 1 on the same platform and N (the
	// conflict equations cost ~4x a box check).
	d4, err := Fig4(quick)
	if err != nil {
		t.Fatal(err)
	}
	label := platform.Label(platform.STARAN)
	if d6.Get(label).Points[0].Y <= d4.Get(label).Points[0].Y {
		t.Errorf("Tasks 2+3 (%v) not more expensive than Task 1 (%v) on the AP",
			d6.Get(label).Points[0].Y, d4.Get(label).Points[0].Y)
	}
}

func TestFig8LinearFit(t *testing.T) {
	r, err := Fig8(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: "GTX 880M has a linear curve for its tracking and
	// correlation timings as shown by its goodness of fit values." Our
	// shape criterion is the log-log growth exponent: ~1 reads as
	// linear on the figures.
	if !r.NearLinear {
		t.Fatalf("Task 1 on 880M classified as not near-linear (exponent %v)", r.Exponent)
	}
	if r.Exponent > NearLinearExp {
		t.Fatalf("exponent %v above the near-linear threshold", r.Exponent)
	}
}

func TestFig9QuadraticSmallCoefficient(t *testing.T) {
	r, err := Fig9(quick)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: quadratic fits slightly better but "the quadratic
	// coefficient is very small compared to the linear coefficient",
	// and the curve never approaches the deadline.
	if r.Quadratic.SSE > r.Linear.SSE {
		t.Fatalf("quadratic fit worse than linear: %v > %v", r.Quadratic.SSE, r.Linear.SSE)
	}
	if !r.SmallQuadCoeff {
		t.Fatalf("quadratic coefficient not small vs linear: %s", r.Quadratic)
	}
	if r.Exponent >= 2.2 {
		t.Fatalf("Tasks 2+3 on 9800 GT growth exponent %v — worse than quadratic", r.Exponent)
	}
}

func TestDeadlineTableShapes(t *testing.T) {
	d, err := DeadlineTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic platforms: zero misses everywhere in the sweep.
	for _, name := range []string{platform.GeForce9800GT, platform.GTX880M, platform.TitanXPascal, platform.STARAN, platform.ClearSpeed} {
		s := d.Get(platform.Label(name))
		for _, p := range s.Points {
			if p.Y != 0 {
				t.Errorf("%s missed %v deadlines at N=%v", s.Label, p.Y, p.X)
			}
		}
	}
}

func TestDeterminismTable(t *testing.T) {
	d, err := DeterminismTable(quick, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{platform.TitanXPascal, platform.STARAN, platform.ClearSpeed} {
		s := d.Get(platform.Label(name))
		if s.Points[0].Y != 0 {
			t.Errorf("%s deviated %v across identical runs; must be exactly 0", s.Label, s.Points[0].Y)
		}
	}
	xeon := d.Get(platform.Label(platform.Xeon16))
	if xeon.Points[0].Y == 0 {
		t.Error("Xeon showed zero timing deviation across runs; the MIMD model must vary")
	}
}

func TestKernelSplitTable(t *testing.T) {
	d, err := KernelSplitTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	fused := d.Get("fused (paper)")
	split := d.Get("split detect+resolve")
	if fused == nil || split == nil {
		t.Fatalf("missing series: %+v", d.Series)
	}
	for i := range fused.Points {
		if split.Points[i].Y <= fused.Points[i].Y {
			t.Errorf("at N=%v: split (%v) not more expensive than fused (%v)",
				fused.Points[i].X, split.Points[i].Y, fused.Points[i].Y)
		}
	}
}

func TestBoxPassTable(t *testing.T) {
	d, err := BoxPassTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	one := d.Get("1 pass(es)")
	three := d.Get("3 pass(es)")
	if one == nil || three == nil {
		t.Fatalf("missing series: %+v", d.Series)
	}
	for i := range one.Points {
		if three.Points[i].Y < one.Points[i].Y {
			t.Errorf("at N=%v: 3 passes matched less (%v) than 1 pass (%v)",
				one.Points[i].X, three.Points[i].Y, one.Points[i].Y)
		}
	}
	// At 0.45 nm noise, the box doubling must visibly help.
	last := len(one.Points) - 1
	if three.Points[last].Y-one.Points[last].Y < 0.05 {
		t.Errorf("box doubling bought only %v extra matches — ablation not discriminating",
			three.Points[last].Y-one.Points[last].Y)
	}
}

func TestNormalizedTable(t *testing.T) {
	d, err := NormalizedTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every series starts at 1.0 by construction.
	for _, s := range d.Series {
		if s.Points[0].Y < 0.99 || s.Points[0].Y > 1.01 {
			t.Errorf("series %q starts at %v, want 1.0", s.Label, s.Points[0].Y)
		}
	}
}

func TestConfigSweeps(t *testing.T) {
	full := Config{Seed: 1}
	if full.cycles() != DefaultConfig.Cycles {
		t.Fatalf("default cycles = %d", full.cycles())
	}
	if quick.cycles() != 1 {
		t.Fatalf("quick cycles = %d", quick.cycles())
	}
	if len(full.AllPlatformNs()) < 4 || len(full.NVIDIANs()) < 5 {
		t.Fatal("full sweeps too short")
	}
	nv := full.NVIDIANs()
	if nv[len(nv)-1] != 32000 {
		t.Fatal("NVIDIA sweep must extend to 32000 aircraft")
	}
}

func TestVectorTable(t *testing.T) {
	d, err := VectorTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Series) != 4 {
		t.Fatalf("series = %d, want 4", len(d.Series))
	}
	// The Xeon Phi must beat the plain Xeon at the top of the sweep —
	// the Section 7.2 hypothesis.
	ns := quick.AllPlatformNs()
	nmax := float64(ns[len(ns)-1])
	at := func(label string) float64 {
		for _, p := range d.Get(label).Points {
			if p.X == nmax {
				return p.Y
			}
		}
		t.Fatalf("missing point for %s", label)
		return 0
	}
	if at(platform.Label(platform.XeonPhi)) >= at(platform.Label(platform.Xeon16)) {
		t.Errorf("Xeon Phi (%v) not faster than the Xeon (%v) at N=%v",
			at(platform.Label(platform.XeonPhi)), at(platform.Label(platform.Xeon16)), nmax)
	}
}

func TestRadarNetTable(t *testing.T) {
	d, err := RadarNetTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	tracked := d.Get("fraction radar-tracked")
	if tracked == nil {
		t.Fatalf("missing series: %+v", d.Series)
	}
	// More dropout, less radar tracking: strictly decreasing fractions.
	for i := 1; i < len(tracked.Points); i++ {
		if tracked.Points[i].Y >= tracked.Points[i-1].Y {
			t.Fatalf("tracked fraction not decreasing with dropout: %+v", tracked.Points)
		}
	}
	// Near-zero dropout still tracks nearly everyone.
	if tracked.Points[0].Y < 0.95 {
		t.Fatalf("baseline tracking fraction %v", tracked.Points[0].Y)
	}
}

func TestCapacityTable(t *testing.T) {
	d, err := CapacityTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every platform handles the quick-mode cap (4000 aircraft).
	for _, s := range d.Series {
		if s.Points[0].Y < 4000 {
			t.Errorf("%s capacity %v below the quick cap", s.Label, s.Points[0].Y)
		}
	}
	if len(d.Series) != len(platform.Names())+1 {
		t.Fatalf("series = %d", len(d.Series))
	}
}

func TestBroadphaseTable(t *testing.T) {
	d, err := BroadphaseTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "broadphase" {
		t.Fatalf("dataset id %q", d.ID)
	}
	brute := d.Get("pairs:brute")
	if brute == nil {
		t.Fatalf("missing brute series: %+v", d.Series)
	}
	ns := quick.AllPlatformNs()
	if len(brute.Points) != len(ns) {
		t.Fatalf("brute has %d points, want %d", len(brute.Points), len(ns))
	}
	// The sweep must evaluate strictly fewer pairs than brute at every
	// sweep point and report a wall time for each.
	pruned := d.Get("pairs:sweep")
	if pruned == nil {
		t.Fatalf("missing series pairs:sweep: %+v", d.Series)
	}
	for i := range brute.Points {
		if pruned.Points[i].X != brute.Points[i].X {
			t.Fatalf("sweep: x mismatch at %d: %+v vs %+v", i, pruned.Points[i], brute.Points[i])
		}
		if pruned.Points[i].Y >= brute.Points[i].Y {
			t.Errorf("sweep evaluates %v pairs at n=%v, brute %v — no pruning",
				pruned.Points[i].Y, pruned.Points[i].X, brute.Points[i].Y)
		}
	}
	if ms := d.Get("ms:sweep"); ms == nil || len(ms.Points) != len(pruned.Points) {
		t.Fatal("ms:sweep series malformed")
	}
}

func TestCoherenceTable(t *testing.T) {
	// Known gap: the detect scratch and the sweep's query bitmaps come
	// from per-processor sync.Pools, so a goroutine that moves between
	// processors mid-table refills them and the allocs series counts
	// those refills. One processor keeps the allocation check about the
	// lanes themselves until the scratch is owned by the sweep and the
	// engine instead.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	d, err := CoherenceTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "coherence" {
		t.Fatalf("dataset id %q", d.ID)
	}
	// Both lanes report wall times and allocations at every sweep
	// point, and nothing else: the production sweep keeps no index
	// across passes, so there is no maintenance to report. Wall times
	// are host noise, so the test asserts shape, not speedups.
	for _, m := range []string{"m1", "m16", "m64"} {
		reb := d.Get("ms:rebuild:" + m)
		prod := d.Get("ms:sweep:" + m)
		if reb == nil || prod == nil {
			t.Fatalf("missing wall-time series for %s: %+v", m, d.Series)
		}
		if len(reb.Points) != len(prod.Points) || len(reb.Points) == 0 {
			t.Fatalf("%s: rebuild has %d points, sweep %d", m, len(reb.Points), len(prod.Points))
		}
	}
	if want := 2 * 2 * 3; len(d.Series) != want {
		t.Fatalf("%d series, want %d (ms and allocs per lane per motion)", len(d.Series), want)
	}
	// Steady-state passes allocate nothing in either lane.
	for _, s := range d.Series {
		if len(s.Label) > 6 && s.Label[:6] == "allocs" {
			for _, p := range s.Points {
				if p.Y > 0.5 {
					t.Errorf("%s at n=%v: %v allocs per pass", s.Label, p.X, p.Y)
				}
			}
		}
	}
}

func TestParShardTable(t *testing.T) {
	d, err := ParShardTable(quick)
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "parshard" {
		t.Fatalf("dataset id %q", d.ID)
	}
	// Every worker count reports wall times plus the shard counters.
	// Wall times are host noise, so the test asserts shape — and the
	// worker-invariance of the counters, which are exact.
	var seg1, bat1 *trace.Series
	for _, tag := range []string{"w1", "w8"} {
		ms := d.Get("ms:" + tag)
		if ms == nil || len(ms.Points) == 0 {
			t.Fatalf("missing wall-time series for %s: %+v", tag, d.Series)
		}
		seg := d.Get("segments:" + tag)
		bat := d.Get("batches:" + tag)
		if seg == nil || bat == nil {
			t.Fatalf("missing shard-counter series for %s", tag)
		}
		for i := range seg.Points {
			if seg.Points[i].Y <= 0 || bat.Points[i].Y <= 0 {
				t.Errorf("%s at n=%v: segments %v batches %v, want positive",
					tag, seg.Points[i].X, seg.Points[i].Y, bat.Points[i].Y)
			}
		}
		if tag == "w1" {
			seg1, bat1 = seg, bat
			continue
		}
		for i := range seg.Points {
			if seg.Points[i].Y != seg1.Points[i].Y || bat.Points[i].Y != bat1.Points[i].Y {
				t.Errorf("%s at n=%v: counters diverge from w1 (segments %v vs %v, batches %v vs %v)",
					tag, seg.Points[i].X, seg.Points[i].Y, seg1.Points[i].Y, bat.Points[i].Y, bat1.Points[i].Y)
			}
		}
	}
}
