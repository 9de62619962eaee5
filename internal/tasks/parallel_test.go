package tasks

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/rng"
)

// rebuildSweepName selects broadphase.NewSweep's rebuild sweep in test
// tables; it is not a registry name ("sweep" is the production sweep).
const rebuildSweepName = "rebuild-sweep"

// newTestSource builds a fresh pair source for a registry name, or nil
// for the all-pairs scan.
func newTestSource(name string) broadphase.PairSource {
	switch name {
	case "":
		return nil
	case rebuildSweepName:
		return broadphase.NewSweep()
	}
	return broadphase.MustNew(name)
}

func worldsEqual(t *testing.T, label string, want, got *airspace.World) {
	t.Helper()
	if len(want.Aircraft) != len(got.Aircraft) {
		t.Fatalf("%s: world sizes differ: %d vs %d", label, len(want.Aircraft), len(got.Aircraft))
	}
	for i := range want.Aircraft {
		if want.Aircraft[i] != got.Aircraft[i] {
			t.Fatalf("%s: aircraft %d diverged:\nserial:   %+v\nparallel: %+v",
				label, i, want.Aircraft[i], got.Aircraft[i])
		}
	}
}

func framesEqual(t *testing.T, label string, want, got *radar.Frame) {
	t.Helper()
	for i := range want.Reports {
		if want.Reports[i] != got.Reports[i] {
			t.Fatalf("%s: report %d diverged:\nserial:   %+v\nparallel: %+v",
				label, i, want.Reports[i], got.Reports[i])
		}
	}
}

// TestParallelMatchesSerial is the determinism property test: across
// 100 randomized worlds, every pair source, and worker counts
// {1, 2, 3, 8}, the host-parallel Correlate/Detect/DetectResolve
// produce world state, frame state, and stats identical to the serial
// reference. Worker count 1 is the reference itself; the others
// exercise the phased parallel paths.
func TestParallelMatchesSerial(t *testing.T) {
	sources := []string{"", broadphase.BruteName, broadphase.GridName, broadphase.SweepName, rebuildSweepName}
	serial := parexec.NewPool(1)
	pools := []*parexec.Pool{parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}

	for trial := 0; trial < 100; trial++ {
		seed := uint64(1000 + 7*trial)
		n := 40 + (trial*37)%360
		passes := 1 + trial%BoxPasses
		srcName := sources[trial%len(sources)]

		base := airspace.NewWorld(n, rng.New(seed))
		frame := radar.Generate(base, radar.DefaultNoise, rng.New(seed+1))

		// Serial reference chain: Task 1, then Task 2 on a fork, then
		// Tasks 2+3 on the correlated world. corrW snapshots the
		// post-Task-1 state before DetectResolve mutates refW further.
		refW := base.Clone()
		refF := frame.Clone()
		corrRef := CorrelateNExec(refW, refF, passes, serial)
		corrW := refW.Clone()
		refDetW := refW.Clone()
		detRef := DetectExec(refDetW, newTestSource(srcName), serial)
		resRef := DetectResolveExec(refW, newTestSource(srcName), serial)

		for _, p := range pools {
			gotW := base.Clone()
			gotF := frame.Clone()
			corr := CorrelateNExec(gotW, gotF, passes, p)
			tag := func(task string) string {
				return task + " (trial " + itoa(trial) + ", n " + itoa(n) + ", src " + srcName +
					", passes " + itoa(passes) + ", workers " + itoa(p.Workers()) + ")"
			}
			if corr != corrRef {
				t.Fatalf("%s: stats diverged:\nserial:   %+v\nparallel: %+v", tag("Correlate"), corrRef, corr)
			}
			worldsEqual(t, tag("Correlate"), corrW, gotW)
			framesEqual(t, tag("Correlate"), refF, gotF)

			gotDetW := gotW.Clone()
			det := DetectExec(gotDetW, newTestSource(srcName), p)
			if det != detRef {
				t.Fatalf("%s: stats diverged:\nserial:   %+v\nparallel: %+v", tag("Detect"), detRef, det)
			}
			worldsEqual(t, tag("Detect"), refDetW, gotDetW)

			res := DetectResolveExec(gotW, newTestSource(srcName), p)
			if res != resRef {
				t.Fatalf("%s: stats diverged:\nserial:   %+v\nparallel: %+v", tag("DetectResolve"), resRef, res)
			}
			worldsEqual(t, tag("DetectResolve"), refW, gotW)
		}
	}
}

// TestParallelMatchesSerialDense drives the paths the randomized sweep
// cannot reach at small n: a world big enough that the dirty replay
// rescans and probes long all-pairs candidate lists on the serial
// thread, and radar noise heavy enough that aircraft withdrawals
// release mid-pass radars into the serial fallback.
func TestParallelMatchesSerialDense(t *testing.T) {
	serial := parexec.NewPool(1)
	pools := []*parexec.Pool{parexec.NewPool(2), parexec.NewPool(8)}

	// Big world: conflicted aircraft probe rotations over 4000 aircraft.
	big := airspace.NewWorld(4000, rng.New(99))
	refBig := big.Clone()
	resRef := DetectResolveExec(refBig, nil, serial)
	if resRef.Conflicts == 0 {
		t.Fatal("dense world produced no conflicts; test exercises nothing")
	}
	for _, p := range pools {
		gotBig := big.Clone()
		res := DetectResolveExec(gotBig, nil, p)
		if res != resRef {
			t.Fatalf("workers=%d: stats diverged:\nserial:   %+v\nparallel: %+v", p.Workers(), resRef, res)
		}
		worldsEqual(t, "DetectResolve dense (workers "+itoa(p.Workers())+")", refBig, gotBig)
	}

	// Noisy correlation: fixes land in several aircraft's boxes, forcing
	// withdrawals, discards, and mid-pass radar releases.
	noisy := airspace.NewWorld(1500, rng.New(17))
	frame := radar.Generate(noisy, 2.5, rng.New(18))
	refW := noisy.Clone()
	refF := frame.Clone()
	corrRef := CorrelateExec(refW, refF, serial)
	if corrRef.WithdrawnAircraft == 0 || corrRef.DiscardedRadars == 0 {
		t.Fatalf("noisy frame produced no contention (stats %+v); test exercises nothing", corrRef)
	}
	for _, p := range pools {
		gotW := noisy.Clone()
		gotF := frame.Clone()
		corr := CorrelateExec(gotW, gotF, p)
		if corr != corrRef {
			t.Fatalf("workers=%d: stats diverged:\nserial:   %+v\nparallel: %+v", p.Workers(), corrRef, corr)
		}
		worldsEqual(t, "Correlate noisy (workers "+itoa(p.Workers())+")", refW, gotW)
		framesEqual(t, "Correlate noisy (workers "+itoa(p.Workers())+")", refF, gotF)
	}
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// TestExecZeroAllocSteadyState pins the zero-allocation property of
// the hot paths: after a warm-up call, a full Correlate+DetectResolve
// period allocates nothing on the serial path and at most a handful of
// fixed-size dispatch closures on the parallel path — never anything
// proportional to the aircraft count. A second world, past 2·1024
// aircraft and with conflicts, holds the all-pairs and brute
// DetectResolve to the same limit at 4 workers: its probe scans are
// long enough that a scan fanned out per probe would allocate per
// probe.
//
// The functions under this contract are exactly those listed in
// noallocContract (noalloc_manifest_test.go), which also carry
// //atm:noalloc directives enforced statically by make lint. Under
// -race the runtime counts are meaningless (detector instrumentation
// allocates) and this test skips; the manifest consistency test and
// the static analyzer keep the contract checked there.
func TestExecZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race; " +
			"the noalloc contract stays enforced by TestNoallocManifestMatchesDirectives and make lint")
	}
	base := airspace.NewWorld(600, rng.New(3))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(4))
	for _, workers := range []int{1, 4} {
		p := parexec.NewPool(workers)
		// The parallel path allocates one closure per Run dispatch
		// (phase bodies capture per-invocation state); that is a small
		// constant per period, independent of n.
		limit := 0.5
		if workers > 1 {
			limit = 12
		}
		for _, srcName := range []string{"", broadphase.GridName, broadphase.SweepName, rebuildSweepName} {
			src := newTestSource(srcName)
			w := base.Clone()
			f := frame.Clone()
			run := func() {
				CorrelateExec(w, f, p)
				DetectResolveExec(w, src, p)
			}
			run() // warm scratch pools and the worker pool
			avg := testing.AllocsPerRun(10, run)
			if avg > limit {
				t.Errorf("workers=%d src=%q: %.1f allocs per period, want <= %.1f", workers, srcName, avg, limit)
			}
		}
	}

	big := airspace.NewWorld(2400, rng.New(5))
	p := parexec.NewPool(4)
	for _, srcName := range []string{"", broadphase.BruteName} {
		src := newTestSource(srcName)
		w := big.Clone()
		if st := DetectResolveExec(w, src, p); st.Conflicts == 0 {
			t.Fatalf("src=%q: N=%d world produced no conflicts; test exercises nothing", srcName, big.N())
		}
		avg := testing.AllocsPerRun(5, func() {
			big.CloneInto(w)
			DetectResolveExec(w, src, p)
		})
		if avg > 12 {
			t.Errorf("workers=4 src=%q N=%d: %.1f allocs per DetectResolve, want <= 12", srcName, big.N(), avg)
		}
	}
}

// TestDetectScratchWorkerGrowth reuses one detect scratch at 8, 9 and
// 10 workers. Growing from 8 to 9 doubles the buffer capacity to 16,
// so 10 workers land between length and capacity.
func TestDetectScratchWorkerGrowth(t *testing.T) {
	putDetectScratch(&detectScratch{})
	for _, workers := range []int{8, 9, 10} {
		sc := getDetectScratch(16, workers)
		if len(sc.bufs) < workers || len(sc.res) != 16 {
			t.Fatalf("workers=%d: %d worker buffers, %d results", workers, len(sc.bufs), len(sc.res))
		}
		putDetectScratch(sc)
	}
}

// TestCorrScratchWorkerGrowth is TestDetectScratchWorkerGrowth for the
// correlate scratch.
func TestCorrScratchWorkerGrowth(t *testing.T) {
	putCorrScratch(&corrScratch{})
	for _, workers := range []int{8, 9, 10} {
		sc := getCorrScratch(16, workers)
		if len(sc.bufs) < workers || len(sc.start) != 16 {
			t.Fatalf("workers=%d: %d worker buffers, %d radars", workers, len(sc.bufs), len(sc.start))
		}
		putCorrScratch(sc)
	}
}
