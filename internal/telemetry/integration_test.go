package telemetry_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// allNames is every registered platform, paper set plus extensions.
func allNames() []string {
	return append(platform.Names(), platform.ExtensionNames()...)
}

// newSystem builds a single-worker system with a fresh recorder.
func newSystem(t *testing.T, name string, n int, pairSource string) (*core.System, *telemetry.Recorder) {
	t.Helper()
	p := platform.MustNew(name, 2018)
	p.(platform.Workered).SetWorkers(1)
	sys := core.NewSystem(p, core.Config{N: n, Seed: 2018, PairSource: pairSource})
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	sys.SetTelemetry(rec)
	return sys, rec
}

// TestSpanSumsMatchSchedStats is the acceptance invariant of the
// telemetry subsystem: for every platform, the per-task modeled-time
// spans recorded by the scheduler observer sum exactly to the
// scheduler's own Stats totals, and span counts equal run counts.
func TestSpanSumsMatchSchedStats(t *testing.T) {
	for _, name := range allNames() {
		sys, rec := newSystem(t, name, 300, "")
		sys.RunMajorCycles(1)
		st := sys.Stats()
		for _, task := range []string{core.Task1, core.Task23} {
			ts := st.Task(task)
			if got, want := time.Duration(rec.SumOf(task)), ts.Total; got != want {
				t.Errorf("%s: telemetry span sum for %s = %v, sched total = %v", name, task, got, want)
			}
			if got, want := rec.CountOf(task), int64(ts.Runs); got != want {
				t.Errorf("%s: telemetry span count for %s = %d, sched runs = %d", name, task, got, want)
			}
		}
		if rec.Dropped() != 0 {
			t.Errorf("%s: ring dropped %d events at default capacity", name, rec.Dropped())
		}
	}
}

// TestPlatformSpansTileTaskSpans: the platform-phase spans inside each
// period sum to the task spans (exactly for the synchronous machines,
// within per-span nanosecond rounding for the others) — the property
// that makes the Chrome trace a faithful decomposition.
func TestPlatformSpansTileTaskSpans(t *testing.T) {
	for _, name := range allNames() {
		sys, rec := newSystem(t, name, 300, "")
		sys.RunMajorCycles(1)
		taskTotal := time.Duration(rec.SumOf(core.Task1) + rec.SumOf(core.Task23))
		var phaseTotal time.Duration
		rec.Visit(func(e telemetry.Event) {
			if e.Kind != telemetry.KindSpan {
				return
			}
			switch rec.Name(e.Name) {
			case core.Task1, core.Task23:
			default:
				phaseTotal += time.Duration(e.Value)
			}
		})
		if phaseTotal == 0 {
			t.Errorf("%s: no platform phase spans recorded", name)
			continue
		}
		// One nanosecond of rounding per span is the worst case.
		spans := rec.Len()
		diff := taskTotal - phaseTotal
		if diff < 0 {
			diff = -diff
		}
		if diff > time.Duration(spans) {
			t.Errorf("%s: phase spans sum to %v, task spans to %v (diff %v over %d events)",
				name, phaseTotal, taskTotal, diff, spans)
		}
	}
}

// TestTelemetryDoesNotPerturb: attaching a recorder changes neither
// the simulated world nor any scheduling statistic.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	for _, name := range allNames() {
		run := func(attach bool) (*airspace.World, sched.Stats) {
			p := platform.MustNew(name, 2018)
			p.(platform.Workered).SetWorkers(1)
			sys := core.NewSystem(p, core.Config{N: 300, Seed: 2018})
			if attach {
				sys.SetTelemetry(telemetry.NewRecorder(1 << 10))
			}
			sys.RunMajorCycles(1)
			return sys.World, *sys.Stats()
		}
		plainW, plainSt := run(false)
		telW, telSt := run(true)
		for i := range plainW.Aircraft {
			if plainW.Aircraft[i] != telW.Aircraft[i] {
				t.Fatalf("%s: aircraft %d diverged with telemetry attached:\noff: %+v\non:  %+v",
					name, i, plainW.Aircraft[i], telW.Aircraft[i])
			}
		}
		if plainSt.VirtualElapsed != telSt.VirtualElapsed ||
			plainSt.PeriodMisses != telSt.PeriodMisses ||
			plainSt.MaxLoad != telSt.MaxLoad {
			t.Fatalf("%s: scheduler stats diverged with telemetry attached:\noff: %+v\non:  %+v",
				name, plainSt, telSt)
		}
		for _, task := range []string{core.Task1, core.Task23} {
			if *plainSt.Task(task) != *telSt.Task(task) {
				t.Fatalf("%s: task %s stats diverged with telemetry attached", name, task)
			}
		}
	}
}

// jsonl runs one Track + one DetectResolve directly against the
// platform at the given worker count and returns the recorded stream.
func jsonl(t *testing.T, name, srcName string, workers int, trackW *airspace.World, trackF *radar.Frame, detW *airspace.World) []byte {
	t.Helper()
	p := platform.MustNew(name, 77)
	p.(platform.Workered).SetWorkers(workers)
	if srcName != "" {
		p.(platform.PairSourced).SetPairSource(broadphase.MustNew(srcName))
	}
	rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
	rec.SetDetail(telemetry.DetailBlock)
	p.(platform.Instrumented).SetTelemetry(rec)
	w, f := trackW.Clone(), trackF.Clone()
	p.Track(w, f)
	rec.SetNow(rec.Now()) // spans appended at the same modeled base
	p.DetectResolve(detW.Clone())
	var buf bytes.Buffer
	if err := telemetry.WriteJSONL(&buf, rec); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestJSONLWorkerInvariance extends the platform worker-invariance
// contract to the telemetry stream: at block detail, for every machine
// and pair source, the exported JSONL is byte-identical at 1, 3 and 8
// host workers. The MIMD Track runs on clean geometry for the same
// reason as TestWorkersInvariance (its arbitration is
// interleaving-dependent by design on contended traffic).
func TestJSONLWorkerInvariance(t *testing.T) {
	randomW := airspace.NewWorld(900, rng.New(201))
	randomF := radar.Generate(randomW, radar.DefaultNoise, rng.New(202))

	clean := &airspace.World{Aircraft: make([]airspace.Aircraft, 256)}
	for i := range clean.Aircraft {
		a := &clean.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%16)*8 - 60
		a.Y = float64(i/16)*8 - 60
		a.DX, a.DY = 0.02, -0.01
		a.Alt = 10000
		a.ResetConflict()
	}
	cleanF := radar.Generate(clean, 0.2, rng.New(203))

	for _, name := range allNames() {
		trackW, trackF := randomW, randomF
		if name == platform.Xeon16 {
			trackW, trackF = clean, cleanF
		}
		for _, srcName := range []string{"", broadphase.SweepName} {
			ref := jsonl(t, name, srcName, 1, trackW, trackF, randomW)
			for _, workers := range []int{3, 8} {
				got := jsonl(t, name, srcName, workers, trackW, trackF, randomW)
				if !bytes.Equal(ref, got) {
					t.Fatalf("%s src=%q: JSONL diverged between workers=1 and workers=%d:\n-- workers=1:\n%s\n-- workers=%d:\n%s",
						name, srcName, workers, firstDiff(ref, got), workers, firstDiff(got, ref))
				}
			}
		}
	}
}

// firstDiff returns the line around the first differing byte, for
// readable failures.
func firstDiff(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	lo := bytes.LastIndexByte(a[:i], '\n') + 1
	hi := lo + 200
	if hi > len(a) {
		hi = len(a)
	}
	return a[lo:hi]
}

// TestSystemJSONLWorkerInvariance runs the whole system — scheduler
// observer, platform phases, broadphase counters — for a full major
// cycle on the deterministic platforms and requires a byte-identical
// stream at every worker count.
func TestSystemJSONLWorkerInvariance(t *testing.T) {
	run := func(name string, workers int) []byte {
		p := platform.MustNew(name, 2018)
		p.(platform.Workered).SetWorkers(workers)
		sys := core.NewSystem(p, core.Config{N: 400, Seed: 2018, PairSource: broadphase.SweepName})
		rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
		rec.SetDetail(telemetry.DetailBlock)
		sys.SetTelemetry(rec)
		sys.RunMajorCycles(1)
		var buf bytes.Buffer
		if err := telemetry.WriteJSONL(&buf, rec); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range allNames() {
		if !platform.MustNew(name, 2018).Deterministic() {
			continue
		}
		ref := run(name, 1)
		for _, workers := range []int{3, 8} {
			if got := run(name, workers); !bytes.Equal(ref, got) {
				t.Fatalf("%s: system JSONL diverged at workers=%d near:\n%s", name, workers, firstDiff(ref, got))
			}
		}
	}
}

// TestSteadyStateZeroAllocs: after warmup, a telemetry-attached period
// allocates no more than a bare one — the //atm:noalloc contract of
// the recording hot paths, observed end to end.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	for _, name := range []string{platform.TitanXPascal, platform.STARAN, platform.Xeon16} {
		measure := func(rec *telemetry.Recorder) float64 {
			p := platform.MustNew(name, 2018)
			p.(platform.Workered).SetWorkers(1)
			sys := core.NewSystem(p, core.Config{N: 300, Seed: 2018})
			if rec != nil {
				rec.SetDetail(telemetry.DetailBlock)
				sys.SetTelemetry(rec)
			}
			sys.RunMajorCycles(2) // warm scratch, interning, ring
			return testing.AllocsPerRun(32, sys.RunPeriod)
		}
		bare := measure(nil)
		// The ring is sized so the measured periods never grow it.
		attached := measure(telemetry.NewRecorder(1 << 20))
		if attached > bare+0.1 {
			t.Errorf("%s: telemetry added allocations: %.2f per period bare, %.2f attached", name, bare, attached)
		}
	}
}
