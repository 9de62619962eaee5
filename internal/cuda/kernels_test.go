package cuda

import (
	"math"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// gridWorld builds well-separated traffic (no ambiguous correlation, no
// conflicts) for exact comparisons against the sequential reference.
func gridWorld(n int) *airspace.World {
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%side)*6 - airspace.SetupHalf
		a.Y = float64(i/side)*6 - airspace.SetupHalf
		a.DX = 0.02
		a.DY = 0.01
		a.Alt = 10000 + float64(i%4)*3000
		a.ResetConflict()
	}
	return w
}

func TestTrackDroneMatchesReferenceOnCleanTraffic(t *testing.T) {
	w := gridWorld(400)
	f := radar.Generate(w, 0.2, rng.New(1))

	refW := w.Clone()
	refF := f.Clone()
	refStats := tasks.Correlate(refW, refF)

	eng := NewEngine(TitanXPascal)
	res := eng.TrackDrone(w, f)

	if res.Matched != refStats.Matched {
		t.Fatalf("matched %d, reference %d", res.Matched, refStats.Matched)
	}
	for i := range w.Aircraft {
		if w.Aircraft[i].X != refW.Aircraft[i].X || w.Aircraft[i].Y != refW.Aircraft[i].Y {
			t.Fatalf("aircraft %d position differs from reference: (%v,%v) vs (%v,%v)",
				i, w.Aircraft[i].X, w.Aircraft[i].Y, refW.Aircraft[i].X, refW.Aircraft[i].Y)
		}
	}
}

func TestTrackDroneHighMatchRateOnRandomTraffic(t *testing.T) {
	w := airspace.NewWorld(3000, rng.New(7))
	f := radar.Generate(w, radar.DefaultNoise, rng.New(8))
	eng := NewEngine(GTX880M)
	res := eng.TrackDrone(w, f)
	if res.Matched < w.N()*95/100 {
		t.Fatalf("only %d of %d matched", res.Matched, w.N())
	}
}

func TestTrackDroneDeterministicTiming(t *testing.T) {
	// The paper: "each time we ran the program ... we would get the
	// exact same timings again and again". The modeled time must be a
	// pure function of the workload, whatever the goroutine schedule.
	base := airspace.NewWorld(2000, rng.New(9))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(10))
	eng := NewEngine(GeForce9800GT)

	first := eng.TrackDrone(base.Clone(), frame.Clone())
	for i := 0; i < 4; i++ {
		again := eng.TrackDrone(base.Clone(), frame.Clone())
		if again.Time != first.Time {
			t.Fatalf("run %d time %v != first %v", i, again.Time, first.Time)
		}
		if again.Matched != first.Matched {
			t.Fatalf("run %d matched %d != first %d", i, again.Matched, first.Matched)
		}
	}
}

func TestTrackDroneWrapsExitingAircraft(t *testing.T) {
	w := gridWorld(4)
	a := &w.Aircraft[0]
	a.X = airspace.FieldHalf - 0.001
	a.DX = 0.05
	f := radar.Generate(w, 0, rng.New(3))
	NewEngine(TitanXPascal).TrackDrone(w, f)
	if w.Aircraft[0].X > 0 {
		t.Fatalf("exiting aircraft not wrapped: x=%v", w.Aircraft[0].X)
	}
}

func TestTrackDroneEmptyWorld(t *testing.T) {
	w := &airspace.World{}
	f := &radar.Frame{}
	res := NewEngine(TitanXPascal).TrackDrone(w, f)
	if res.Matched != 0 {
		t.Fatalf("empty world matched %d", res.Matched)
	}
}

// headOnPair builds two aircraft closing head-on with a conflict
// gap/0.1 periods out, plus far-away bystanders.
func headOnPair(gap float64, bystanders int) *airspace.World {
	w := gridWorld(2 + bystanders)
	a, b := &w.Aircraft[0], &w.Aircraft[1]
	a.X, a.Y, a.DX, a.DY, a.Alt = 0, 0, 0.05, 0, 10000
	b.X, b.Y, b.DX, b.DY, b.Alt = gap, 0, -0.05, 0, 10000
	for i := 2; i < w.N(); i++ {
		w.Aircraft[i].Alt = 30000
	}
	for i := range w.Aircraft {
		w.Aircraft[i].ResetConflict()
	}
	return w
}

func TestCheckCollisionPathDetects(t *testing.T) {
	w := headOnPair(10, 0)
	res := NewEngine(TitanXPascal).CheckCollisionPath(w)
	// Both threads see the conflict (symmetric detection).
	if res.Stats.Conflicts != 2 {
		t.Fatalf("conflicts = %d, want 2 (%+v)", res.Stats.Conflicts, res.Stats)
	}
}

func TestCheckCollisionPathResolvesWithinCycles(t *testing.T) {
	// With snapshot semantics both aircraft maneuver against each
	// other's old course, so full resolution may take a second major
	// cycle — the behaviour the paper describes for its concurrent
	// kernel. Require quiescence within 3 applications.
	w := headOnPair(30, 0)
	eng := NewEngine(TitanXPascal)
	for cycle := 0; cycle < 3; cycle++ {
		eng.CheckCollisionPath(w)
		check := tasks.Detect(w.Clone())
		if check.Conflicts == 0 {
			return
		}
	}
	t.Fatal("head-on conflict not resolved within 3 major cycles")
}

func TestCheckCollisionPathPreservesSpeedAndPosition(t *testing.T) {
	w := airspace.NewWorld(500, rng.New(21))
	speeds := make([]float64, w.N())
	type pos struct{ x, y float64 }
	positions := make([]pos, w.N())
	for i, a := range w.Aircraft {
		speeds[i] = a.SpeedKnots()
		positions[i] = pos{a.X, a.Y}
	}
	NewEngine(GTX880M).CheckCollisionPath(w)
	for i, a := range w.Aircraft {
		if math.Abs(a.SpeedKnots()-speeds[i]) > 1e-6 {
			t.Fatalf("aircraft %d speed changed %v -> %v", i, speeds[i], a.SpeedKnots())
		}
		if positions[i] != (pos{a.X, a.Y}) {
			t.Fatalf("aircraft %d moved during detect/resolve", i)
		}
	}
}

func TestCheckCollisionPathDeterministic(t *testing.T) {
	base := airspace.NewWorld(800, rng.New(33))
	eng := NewEngine(TitanXPascal)
	first := eng.CheckCollisionPath(base.Clone())
	firstW := base.Clone()
	eng2 := NewEngine(TitanXPascal)
	_ = eng2.CheckCollisionPath(firstW)
	for i := 0; i < 3; i++ {
		w := base.Clone()
		res := eng.CheckCollisionPath(w)
		if res.Time != first.Time {
			t.Fatalf("run %d time %v != %v", i, res.Time, first.Time)
		}
		if res.Stats != first.Stats {
			t.Fatalf("run %d stats %+v != %+v", i, res.Stats, first.Stats)
		}
		for j := range w.Aircraft {
			if w.Aircraft[j] != firstW.Aircraft[j] {
				t.Fatalf("run %d aircraft %d differs", i, j)
			}
		}
	}
}

// TestCheckCollisionPathWorkerGrowth reuses one engine at 8, 9 and 10
// workers on the per-query pruned path. Growing the candidate buffers
// from 8 to 9 doubles their capacity to 16, so 10 workers land between
// length and capacity; every run must still match the one-worker run.
func TestCheckCollisionPathWorkerGrowth(t *testing.T) {
	base := airspace.NewWorld(300, rng.New(34))
	ref := NewEngine(TitanXPascal)
	ref.SetWorkers(1)
	ref.SetPairSource(broadphase.NewSweep())
	refW := base.Clone()
	want := ref.CheckCollisionPath(refW)
	eng := NewEngine(TitanXPascal)
	eng.SetPairSource(broadphase.NewSweep())
	for _, workers := range []int{8, 9, 10} {
		eng.SetWorkers(workers)
		w := base.Clone()
		res := eng.CheckCollisionPath(w)
		if res.Time != want.Time || res.Stats != want.Stats {
			t.Fatalf("workers=%d: time %v stats %+v, one worker %v %+v", workers, res.Time, res.Stats, want.Time, want.Stats)
		}
		for j := range w.Aircraft {
			if w.Aircraft[j] != refW.Aircraft[j] {
				t.Fatalf("workers=%d: aircraft %d differs from the one-worker run", workers, j)
			}
		}
	}
}

func TestCheckCollisionPathStatsConsistent(t *testing.T) {
	w := airspace.NewWorld(1000, rng.New(55))
	res := NewEngine(GeForce9800GT).CheckCollisionPath(w)
	st := res.Stats
	if st.Resolved+st.Unresolved > st.Conflicts {
		t.Fatalf("resolved(%d)+unresolved(%d) > conflicts(%d)", st.Resolved, st.Unresolved, st.Conflicts)
	}
	if st.PairChecks == 0 {
		t.Fatal("no pair checks on 1000 aircraft")
	}
}

func TestSplitKernelsCostMoreThanFused(t *testing.T) {
	// The paper fuses Tasks 2 and 3 into one kernel to avoid the extra
	// host round-trip; the model must reflect that design pressure.
	base := airspace.NewWorld(2000, rng.New(77))
	eng := NewEngine(GeForce9800GT)

	fused := eng.CheckCollisionPath(base.Clone())

	w := base.Clone()
	det := eng.DetectOnly(w)
	resv := eng.ResolveOnly(w)
	split := det.Time + resv.Time

	if split <= fused.Time {
		t.Fatalf("split pipeline (%v) not more expensive than fused kernel (%v)", split, fused.Time)
	}
	if det.TransferTime+resv.TransferTime <= fused.TransferTime {
		t.Fatalf("split transfers (%v) must exceed fused transfers (%v)",
			det.TransferTime+resv.TransferTime, fused.TransferTime)
	}
}

func TestNearLinearScalingShape(t *testing.T) {
	// The headline claim: CUDA Task 1 time grows near-linearly — the
	// quadratic term is tiny because the N^2 work is spread over
	// thousands of cores. Doubling N from 4000 to 8000 must grow time
	// by clearly less than 4x (pure quadratic).
	eng := NewEngine(TitanXPascal)
	timeFor := func(n int) float64 {
		w := airspace.NewWorld(n, rng.New(11))
		f := radar.Generate(w, radar.DefaultNoise, rng.New(12))
		return eng.TrackDrone(w, f).Time.Seconds()
	}
	t4 := timeFor(4000)
	t8 := timeFor(8000)
	ratio := t8 / t4
	if ratio > 3.0 {
		t.Fatalf("Task 1 scaling ratio %v for 2x aircraft — not SIMD-like", ratio)
	}
}
