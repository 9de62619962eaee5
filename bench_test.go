// Benchmarks regenerating the paper's evaluation artifacts, one per
// figure/table (see DESIGN.md's per-experiment index). Figures 4-7 are
// benchmarked per platform at a representative sweep point; Figures 8-9
// benchmark the measure-and-fit pipeline; the remaining benchmarks
// cover the deadline schedule and the two ablations.
//
// Benchmark time here is host wall time for executing the simulators;
// the modeled device durations the figures report are deterministic
// outputs, not measurements, so -benchtime does not change the figures.
//
// Every benchmark reports allocations: the simulators are expected to
// run allocation-free in steady state, so allocs/op regressions are
// treated as performance bugs. Per-iteration world/frame restores use
// CloneInto on pooled buffers so the harness itself does not allocate
// either.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/airspace"
	"repro/internal/ap"
	"repro/internal/broadphase"
	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/experiments"
	"repro/internal/parexec"
	"repro/internal/platform"
	"repro/internal/radar"
	"repro/internal/radarnet"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/tasks"
	"repro/internal/terrain"
	"repro/internal/vector"
)

// benchN is the sweep point used for the per-platform benchmarks:
// mid-sweep in Figures 4/6.
const benchN = 4000

func benchWorld(n int) (*airspace.World, *radar.Frame) {
	root := rng.New(2018)
	w := airspace.NewWorld(n, root.Split())
	f := radar.Generate(w, radar.DefaultNoise, root.Split())
	return w, f
}

// benchTrack benchmarks one Task 1 invocation on the named platform.
func benchTrack(b *testing.B, name string, n int) {
	b.Helper()
	b.ReportAllocs()
	p := platform.MustNew(name, 1)
	w, f := benchWorld(n)
	wc, fc := &airspace.World{}, &radar.Frame{}
	// One untimed call grows the machine's scratch to n aircraft, so
	// allocs/op reads the steady state, not first-call growth.
	w.CloneInto(wc)
	f.CloneInto(fc)
	p.Track(wc, fc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		p.Track(wc, fc)
	}
}

// benchDetect benchmarks one Tasks 2+3 invocation on the named platform.
func benchDetect(b *testing.B, name string, n int) {
	b.Helper()
	b.ReportAllocs()
	p := platform.MustNew(name, 1)
	w, _ := benchWorld(n)
	wc := &airspace.World{}
	w.CloneInto(wc)
	p.DetectResolve(wc) // untimed warm-up, as in benchTrack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		p.DetectResolve(wc)
	}
}

// Figure 4 — Task 1, all platforms.
func BenchmarkFig4_Task1_GeForce9800GT(b *testing.B) { benchTrack(b, platform.GeForce9800GT, benchN) }
func BenchmarkFig4_Task1_GTX880M(b *testing.B)       { benchTrack(b, platform.GTX880M, benchN) }
func BenchmarkFig4_Task1_TitanXPascal(b *testing.B)  { benchTrack(b, platform.TitanXPascal, benchN) }
func BenchmarkFig4_Task1_STARAN(b *testing.B)        { benchTrack(b, platform.STARAN, benchN) }
func BenchmarkFig4_Task1_ClearSpeed(b *testing.B)    { benchTrack(b, platform.ClearSpeed, benchN) }
func BenchmarkFig4_Task1_Xeon16(b *testing.B)        { benchTrack(b, platform.Xeon16, benchN) }

// Figure 5 — Task 1, NVIDIA cards at the deeper sweep point.
func BenchmarkFig5_Task1_GeForce9800GT_8000(b *testing.B) {
	benchTrack(b, platform.GeForce9800GT, 8000)
}
func BenchmarkFig5_Task1_GTX880M_8000(b *testing.B)      { benchTrack(b, platform.GTX880M, 8000) }
func BenchmarkFig5_Task1_TitanXPascal_8000(b *testing.B) { benchTrack(b, platform.TitanXPascal, 8000) }

// Figure 6 — Tasks 2+3, all platforms.
func BenchmarkFig6_Task23_GeForce9800GT(b *testing.B) {
	benchDetect(b, platform.GeForce9800GT, benchN)
}
func BenchmarkFig6_Task23_GTX880M(b *testing.B)      { benchDetect(b, platform.GTX880M, benchN) }
func BenchmarkFig6_Task23_TitanXPascal(b *testing.B) { benchDetect(b, platform.TitanXPascal, benchN) }
func BenchmarkFig6_Task23_STARAN(b *testing.B)       { benchDetect(b, platform.STARAN, benchN) }
func BenchmarkFig6_Task23_ClearSpeed(b *testing.B)   { benchDetect(b, platform.ClearSpeed, benchN) }
func BenchmarkFig6_Task23_Xeon16(b *testing.B)       { benchDetect(b, platform.Xeon16, benchN) }

// Figure 7 — Tasks 2+3, NVIDIA cards at the deeper sweep point.
func BenchmarkFig7_Task23_GeForce9800GT_8000(b *testing.B) {
	benchDetect(b, platform.GeForce9800GT, 8000)
}
func BenchmarkFig7_Task23_GTX880M_8000(b *testing.B) { benchDetect(b, platform.GTX880M, 8000) }
func BenchmarkFig7_Task23_TitanXPascal_8000(b *testing.B) {
	benchDetect(b, platform.TitanXPascal, 8000)
}

// Figures 8 and 9 — the measure-and-curve-fit pipelines.
func BenchmarkFig8_FitPipeline(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{Seed: 2018, Quick: true}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9_FitPipeline(b *testing.B) {
	b.ReportAllocs()
	cfg := experiments.Config{Seed: 2018, Quick: true}
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// Table T-DL — a full deadline-accounted major cycle (16 periods of
// Task 1 plus the fused Tasks 2+3) on the two extreme platforms.
func BenchmarkDeadlines_MajorCycle_TitanX(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := platform.MustNew(platform.TitanXPascal, 1)
		sys := core.NewSystem(p, core.Config{N: 2000, Seed: 2018})
		sys.RunMajorCycles(1)
	}
}

func BenchmarkDeadlines_MajorCycle_Xeon16(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := platform.MustNew(platform.Xeon16, 1)
		sys := core.NewSystem(p, core.Config{N: 2000, Seed: 2018})
		sys.RunMajorCycles(1)
	}
}

// Table T-DET — repeated identical runs (the determinism check).
func BenchmarkDeterminism_RepeatRun(b *testing.B) {
	b.ReportAllocs()
	p := platform.MustNew(platform.TitanXPascal, 1)
	w, f := benchWorld(2000)
	wc, fc := &airspace.World{}, &radar.Frame{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		p.Track(wc, fc)
	}
}

// Table A-KRN — fused versus split Tasks 2+3 kernels.
func BenchmarkKernelSplit_Fused(b *testing.B) {
	b.ReportAllocs()
	eng := cuda.NewEngine(cuda.GeForce9800GT)
	w, _ := benchWorld(2000)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		eng.CheckCollisionPath(wc)
	}
}

func BenchmarkKernelSplit_Split(b *testing.B) {
	b.ReportAllocs()
	eng := cuda.NewEngine(cuda.GeForce9800GT)
	w, _ := benchWorld(2000)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		eng.DetectOnly(wc)
		eng.ResolveOnly(wc)
	}
}

// Table A-BOX — correlation pass-count ablation.
func benchBoxPasses(b *testing.B, passes int) {
	b.Helper()
	b.ReportAllocs()
	root := rng.New(2018)
	w := airspace.NewWorld(2000, root.Split())
	f := radar.Generate(w, 0.8, root.Split())
	wc, fc := &airspace.World{}, &radar.Frame{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		tasks.CorrelateN(wc, fc, passes)
	}
}

func BenchmarkBoxPasses_1(b *testing.B) { benchBoxPasses(b, 1) }
func BenchmarkBoxPasses_2(b *testing.B) { benchBoxPasses(b, 2) }
func BenchmarkBoxPasses_3(b *testing.B) { benchBoxPasses(b, 3) }

// Reference implementations, for calibrating the simulators' host cost.
func BenchmarkReference_Task1(b *testing.B) {
	b.ReportAllocs()
	w, f := benchWorld(benchN)
	wc, fc := &airspace.World{}, &radar.Frame{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		tasks.Correlate(wc, fc)
	}
}

func BenchmarkReference_Task23(b *testing.B) {
	b.ReportAllocs()
	w, _ := benchWorld(benchN)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		tasks.DetectResolve(wc)
	}
}

// Host-parallel execution (internal/parexec) — the same reference tasks
// driven through the explicit-pool entry points at one worker versus
// every host core, at the mid-sweep and full-capacity points. Results
// are bit-identical at any worker count (see
// internal/platform/workers_test.go); only host wall time and the
// fixed per-dispatch bookkeeping differ.
func benchParExecTask1(b *testing.B, n, workers int) {
	b.Helper()
	b.ReportAllocs()
	pool := parexec.NewPool(workers)
	w, f := benchWorld(n)
	wc, fc := &airspace.World{}, &radar.Frame{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		tasks.CorrelateNExec(wc, fc, tasks.BoxPasses, pool)
	}
}

func benchParExecTask23(b *testing.B, n, workers int) {
	b.Helper()
	b.ReportAllocs()
	pool := parexec.NewPool(workers)
	w, _ := benchWorld(n)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		tasks.DetectResolveExec(wc, nil, pool)
	}
}

func BenchmarkParExec_Task1_4000_Serial(b *testing.B) { benchParExecTask1(b, 4000, 1) }
func BenchmarkParExec_Task1_4000_AllCores(b *testing.B) {
	benchParExecTask1(b, 4000, runtime.NumCPU())
}
func BenchmarkParExec_Task1_16000_Serial(b *testing.B) { benchParExecTask1(b, 16000, 1) }
func BenchmarkParExec_Task1_16000_AllCores(b *testing.B) {
	benchParExecTask1(b, 16000, runtime.NumCPU())
}
func BenchmarkParExec_Task23_4000_Serial(b *testing.B) { benchParExecTask23(b, 4000, 1) }
func BenchmarkParExec_Task23_4000_AllCores(b *testing.B) {
	benchParExecTask23(b, 4000, runtime.NumCPU())
}
func BenchmarkParExec_Task23_16000_Serial(b *testing.B) { benchParExecTask23(b, 16000, 1) }
func BenchmarkParExec_Task23_16000_AllCores(b *testing.B) {
	benchParExecTask23(b, 16000, runtime.NumCPU())
}

// Extension — the terrain-avoidance task (related work [11], Section
// 7.2 future work) on the reference path and the CUDA engine.
func BenchmarkTerrain_Reference(b *testing.B) {
	b.ReportAllocs()
	root := rng.New(2018)
	g := terrain.Generate(4, 40, 14000, root.Split())
	w := airspace.NewWorld(benchN, root.Split())
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		terrain.Avoid(wc, g, terrain.DefaultHorizonPeriods, terrain.DefaultClearanceFt)
	}
}

func BenchmarkTerrain_CUDA(b *testing.B) {
	b.ReportAllocs()
	root := rng.New(2018)
	g := terrain.Generate(4, 40, 14000, root.Split())
	w := airspace.NewWorld(benchN, root.Split())
	eng := cuda.NewEngine(cuda.TitanXPascal)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		terrain.AvoidCUDA(eng, wc, g, terrain.DefaultHorizonPeriods, terrain.DefaultClearanceFt)
	}
}

// Extension — the conflict-priority display list: Batcher's bitonic
// network on the CUDA engine vs the AP's min-reduce/step idiom.
func BenchmarkPriority_CUDABitonic(b *testing.B) {
	b.ReportAllocs()
	w, _ := benchWorld(benchN)
	tasks.Detect(w)
	eng := cuda.NewEngine(cuda.TitanXPascal)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		eng.ConflictPriority(wc)
	}
}

func BenchmarkPriority_APMinReduce(b *testing.B) {
	b.ReportAllocs()
	w, _ := benchWorld(benchN)
	tasks.Detect(w)
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		m := ap.NewMachine(ap.STARAN, wc.N())
		b.StartTimer()
		ap.PriorityProgram(m, wc)
	}
}

// Extension — the wide-vector machines of Section 7.2.
func BenchmarkVector_Task1_XeonPhi(b *testing.B) {
	b.ReportAllocs()
	m := vector.New(vector.XeonPhi7210)
	w, f := benchWorld(benchN)
	wc, fc := &airspace.World{}, &radar.Frame{}
	w.CloneInto(wc)
	f.CloneInto(fc)
	m.Track(wc, fc) // untimed warm-up, as in benchTrack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		f.CloneInto(fc)
		b.StartTimer()
		m.Track(wc, fc)
	}
}

func BenchmarkVector_Task23_XeonPhi(b *testing.B) {
	b.ReportAllocs()
	m := vector.New(vector.XeonPhi7210)
	w, _ := benchWorld(benchN)
	wc := &airspace.World{}
	w.CloneInto(wc)
	m.DetectResolve(wc) // untimed warm-up, as in benchTrack
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		m.DetectResolve(wc)
	}
}

// Broad-phase pruning — one reference Task 2 detection pass per pair
// source (T-BP / results/broadphase.csv). pairChecks/op reports the
// exact pair-evaluation count alongside the wall time, so a single run
// shows both wins. Brute is quadratic and therefore only benchmarked to
// 10k aircraft; at 100k one all-pairs pass costs ~10^10 pair visits,
// minutes of wall time that would measure nothing the 10k point does
// not already show.
func benchDetectWith(b *testing.B, source string, n int) {
	b.Helper()
	b.ReportAllocs()
	w, _ := benchWorld(n)
	src := broadphase.MustNew(source)
	wc := &airspace.World{}
	var checks int
	// One untimed pass grows the source's index and the detect scratch
	// to n aircraft. Every function on the steady-state path is under
	// the //atm:noalloc contract (see internal/tasks's noalloc
	// manifest), so with the cold-path growth hoisted out here the
	// timed loop benches 0 allocs/op.
	w.CloneInto(wc)
	tasks.DetectWith(wc, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		st := tasks.DetectWith(wc, src)
		checks = st.PairChecks
	}
	b.ReportMetric(float64(checks), "pairChecks/op")
}

func BenchmarkBroadphase_Brute_1000(b *testing.B)   { benchDetectWith(b, broadphase.BruteName, 1000) }
func BenchmarkBroadphase_Brute_10000(b *testing.B)  { benchDetectWith(b, broadphase.BruteName, 10000) }
func BenchmarkBroadphase_Sweep_1000(b *testing.B)   { benchDetectWith(b, broadphase.SweepName, 1000) }
func BenchmarkBroadphase_Sweep_10000(b *testing.B)  { benchDetectWith(b, broadphase.SweepName, 10000) }
func BenchmarkBroadphase_Sweep_100000(b *testing.B) { benchDetectWith(b, broadphase.SweepName, 100000) }

// Steady-state fused Task 2+3 periods (T-COH / results/coherence.csv,
// T-PS / results/parshard.csv). Unlike benchDetect, the world is not
// restored between iterations: it advances one period of dead
// reckoning per op, exactly the motion a persistent broad phase sees in
// a real run. The warm-up sizes every buffer and lets the table's
// headroom policy settle at the workload's drift rate, so the timed
// loop is pure steady state.
func benchSteadyDetect(b *testing.B, src broadphase.PairSource, n, workers int) {
	b.Helper()
	b.ReportAllocs()
	w, _ := benchWorld(n)
	pool := parexec.NewPool(workers)
	advance := func() {
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X += a.DX
			a.Y += a.DY
			airspace.Wrap(a)
		}
	}
	for i := 0; i < 4; i++ {
		tasks.DetectResolveExec(w, src, pool)
		advance()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		advance()
		b.StartTimer()
		tasks.DetectResolveExec(w, src, pool)
	}
}

// BenchmarkCoherent_Task23_4000_Rebuild is the reference sweep (full x
// sort every pass, per-track window queries) at one worker: the
// baseline the production sweep's lanes below are read against. Both
// run the same Tasks 2-3 runner and batched kernel, so the gap is the
// binned walk plus the candidate table.
func BenchmarkCoherent_Task23_4000_Rebuild(b *testing.B) {
	benchSteadyDetect(b, broadphase.NewSweep(), benchN, 1)
}

// The production sweep: binned walk, worker-parallel table build and
// the branch-free 8-wide kernel. The W1 lanes run the table build
// serially; the W8 lanes spread it across the pool. Results are
// bit-identical to the reference lane at every worker count, so the
// delta is pure host-time win of the binned walk plus the table
// (scripts/benchdiff.sh reports it as sweep_improvement_pct).
func BenchmarkParShard_Task23_4000_W1(b *testing.B) {
	benchSteadyDetect(b, broadphase.MustNew(broadphase.SweepName), 4000, 1)
}
func BenchmarkParShard_Task23_4000_W8(b *testing.B) {
	benchSteadyDetect(b, broadphase.MustNew(broadphase.SweepName), 4000, 8)
}
func BenchmarkParShard_Task23_10000_W1(b *testing.B) {
	benchSteadyDetect(b, broadphase.MustNew(broadphase.SweepName), 10000, 1)
}
func BenchmarkParShard_Task23_10000_W8(b *testing.B) {
	benchSteadyDetect(b, broadphase.MustNew(broadphase.SweepName), 10000, 8)
}

// benchTable times the candidate-table build alone (T-PS): on a fixed
// world of the given scenario family, each op is the production
// sweep's PrepareColumns plus PrepareTable on a pool of the given
// size. The build is most of a pruned Tasks 2-3 pass at N=8000, so
// these lanes gate it apart from the scan; the dense lane, whose
// candidates nearly all sit in one altitude band, keeps its worst case
// in view. The untimed first build grows every buffer, so the timed
// loop is steady state.
func benchTable(b *testing.B, family string, n, workers int) {
	b.Helper()
	b.ReportAllocs()
	spec, err := scenario.ParseSpec(family)
	if err != nil {
		b.Fatal(err)
	}
	var cols airspace.Columns
	cols.FillFrom(spec.Generate(n, rng.New(2018)))
	s := broadphase.MustNew(broadphase.SweepName).(*broadphase.Sweep)
	s.SetPool(parexec.NewPool(workers))
	s.PrepareColumns(&cols)
	if s.PrepareTable() == nil {
		b.Fatalf("%s N=%d passed the table limit", family, n)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.PrepareColumns(&cols)
		s.PrepareTable()
	}
}

func BenchmarkParShard_Table_8000_W1(b *testing.B)       { benchTable(b, "uniform", 8000, 1) }
func BenchmarkParShard_Table_8000_W8(b *testing.B)       { benchTable(b, "uniform", 8000, 8) }
func BenchmarkParShard_Table_Dense_8000_W8(b *testing.B) { benchTable(b, "dense", 8000, 8) }

// Extension — radar-network report generation (multi-site coverage,
// cones of silence, dropouts).
func BenchmarkRadarNet_Generate(b *testing.B) {
	b.ReportAllocs()
	net := radarnet.NewGrid(4, 4, 80, 2, 0.1, radar.DefaultNoise)
	w, _ := benchWorld(benchN)
	r := rng.New(5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Generate(w, r)
	}
}

// benchScenarioGenerate benchmarks world generation for one scenario
// family — the //atm:noalloc fill loops plus the one World allocation.
// Generation is pure CPU over (spec, n, rng), so these numbers are
// stable enough for the bench-diff gate.
func benchScenarioGenerate(b *testing.B, text string, n int) {
	b.Helper()
	b.ReportAllocs()
	spec, err := scenario.ParseSpec(text)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spec.Generate(n, rng.New(2018))
	}
}

func BenchmarkScenario_Generate_Uniform(b *testing.B) { benchScenarioGenerate(b, "uniform", 1000) }
func BenchmarkScenario_Generate_Circle(b *testing.B)  { benchScenarioGenerate(b, "circle", 1000) }
func BenchmarkScenario_Generate_Streams(b *testing.B) { benchScenarioGenerate(b, "streams", 1000) }
func BenchmarkScenario_Generate_Dense(b *testing.B)   { benchScenarioGenerate(b, "dense", 1000) }
func BenchmarkScenario_Generate_Layers(b *testing.B)  { benchScenarioGenerate(b, "layers", 1000) }
func BenchmarkScenario_Generate_Burst(b *testing.B)   { benchScenarioGenerate(b, "burst", 1000) }

// benchScenarioDetect benchmarks Tasks 2+3 under structured traffic:
// the conflict-dense families load the detect/resolve kernels very
// differently from the paper's uniform world at the same N.
func benchScenarioDetect(b *testing.B, text string, n int) {
	b.Helper()
	b.ReportAllocs()
	spec, err := scenario.ParseSpec(text)
	if err != nil {
		b.Fatal(err)
	}
	p := platform.MustNew(platform.TitanXPascal, 1)
	w := spec.Generate(n, rng.New(2018))
	wc := &airspace.World{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		w.CloneInto(wc)
		b.StartTimer()
		p.DetectResolve(wc)
	}
}

func BenchmarkScenario_Task23_Circle_1000(b *testing.B) { benchScenarioDetect(b, "circle", 1000) }
func BenchmarkScenario_Task23_Dense_1000(b *testing.B)  { benchScenarioDetect(b, "dense", 1000) }
