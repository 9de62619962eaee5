package tasks

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/scenario"
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

// scalarCorrelate is the scalar reference of Task 1, Algorithm 1 as
// written: expected positions, then per pass every still-unmatched
// radar tested against every still-eligible aircraft in index order,
// then the commit of line 12 and field re-entry.
func scalarCorrelate(w *airspace.World, f *radar.Frame, passes int) CorrelateStats {
	var st CorrelateStats
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ExpX = a.X + a.DX
		a.ExpY = a.Y + a.DY
		a.RMatch = airspace.MatchNone
	}
	f.Reset()

	boxHalf := InitialBoxHalf
	for pass := 0; pass < passes; pass++ {
		pending := 0
		for i := range f.Reports {
			if f.Reports[i].MatchWith == radar.Unmatched {
				pending++
			}
		}
		if pass < BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}
		for i := range f.Reports {
			rep := &f.Reports[i]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			for p := range w.Aircraft {
				a := &w.Aircraft[p]
				if a.RMatch != airspace.MatchNone && a.RMatch != airspace.MatchOne {
					continue // withdrawn aircraft are out of the search
				}
				st.Comparisons++
				if !inBox(rep, a, boxHalf) {
					continue
				}
				switch a.RMatch {
				case airspace.MatchNone:
					if rep.MatchWith == radar.Unmatched {
						// First correlation for both: pair them up.
						a.RMatch = airspace.MatchOne
						rep.MatchWith = a.ID
					} else {
						// A second aircraft matched this radar: unmatch the
						// earlier aircraft and discard the radar (line 9).
						w.Aircraft[rep.MatchWith].RMatch = airspace.MatchNone
						rep.MatchWith = radar.Discarded
						st.DiscardedRadars++
					}
				case airspace.MatchOne:
					// A second radar correlated with this aircraft: withdraw
					// the aircraft and release its earlier radar (line 8).
					a.RMatch = airspace.MatchDiscarded
					st.WithdrawnAircraft++
					releaseRadarOf(f, a.ID)
				}
				if rep.MatchWith == radar.Discarded {
					break // this radar is done
				}
			}
		}
		boxHalf *= 2
	}

	// Line 12: correctly correlated aircraft take their radar's
	// position, all others keep their expected position.
	for p := range w.Aircraft {
		a := &w.Aircraft[p]
		a.X, a.Y = a.ExpX, a.ExpY
	}
	for i := range f.Reports {
		rep := &f.Reports[i]
		switch rep.MatchWith {
		case radar.Unmatched:
			st.UnmatchedRadars++
		case radar.Discarded:
		default:
			if a := &w.Aircraft[rep.MatchWith]; a.RMatch == airspace.MatchOne {
				a.X, a.Y = rep.RX, rep.RY
				st.Matched++
			}
		}
	}
	w.WrapAll()
	return st
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
// {1, 2, 3, 8}, Correlate and the Tasks 2-3 runner produce world
// state, frame state, and stats identical to the scalar references of
// Algorithms 1 and 2. Every fifth trial uses withdrawal-heavy radar
// noise.
func TestParallelMatchesSerial(t *testing.T) {
	sources := []string{"", broadphase.BruteName, broadphase.SweepName, rebuildSweepName}
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}

	for trial := 0; trial < 100; trial++ {
		seed := uint64(1000 + 7*trial)
		n := 40 + (trial*37)%360
		passes := 1 + trial%BoxPasses
		srcName := sources[trial%len(sources)]
		noise := radar.DefaultNoise
		if trial%5 == 4 {
			noise = 2.5
		}

		base := airspace.NewWorld(n, rng.New(seed))
		frame := radar.Generate(base, noise, rng.New(seed+1))

		// Reference chain: Task 1, then Task 2 on a fork, then Tasks
		// 2+3 on the correlated world. corrW snapshots the post-Task-1
		// state before DetectResolve mutates refW further.
		refW := base.Clone()
		refF := frame.Clone()
		corrRef := scalarCorrelate(refW, refF, passes)
		corrW := refW.Clone()
		refDetW := refW.Clone()
		detRef := scalarDetect(refDetW, newTestSource(srcName))
		resRef := scalarDetectResolve(refW, newTestSource(srcName))

		for _, p := range pools {
			gotW := base.Clone()
			gotF := frame.Clone()
			corr := CorrelateNExec(gotW, gotF, passes, p)
			tag := func(task string) string {
				return task + " (trial " + itoa(trial) + ", n " + itoa(n) + ", src " + srcName +
					", passes " + itoa(passes) + ", workers " + itoa(p.Workers()) + ")"
			}
			if corr != corrRef {
				t.Fatalf("%s: stats diverged:\nscalar: %+v\nexec:   %+v", tag("Correlate"), corrRef, corr)
			}
			worldsEqual(t, tag("Correlate"), corrW, gotW)
			framesEqual(t, tag("Correlate"), refF, gotF)

			gotDetW := gotW.Clone()
			det := DetectExec(gotDetW, newTestSource(srcName), p)
			if det != detRef {
				t.Fatalf("%s: stats diverged:\nscalar: %+v\nexec:   %+v", tag("Detect"), detRef, det)
			}
			worldsEqual(t, tag("Detect"), refDetW, gotDetW)

			res := DetectResolveExec(gotW, newTestSource(srcName), p)
			if res != resRef {
				t.Fatalf("%s: stats diverged:\nscalar: %+v\nexec:   %+v", tag("DetectResolve"), resRef, res)
			}
			worldsEqual(t, tag("DetectResolve"), refW, gotW)
		}
	}
}

// TestParallelMatchesSerialDense drives the paths the randomized sweep
// cannot reach at small n: a world big enough that the dirty replay
// rescans and probes long all-pairs candidate lists on the serial
// thread; the production sweep at N=8000, where the replay decides
// from table rows which tracks to rescan, on uniform traffic (1358
// headings committed at one worker) and on layers 800 ft apart, each
// inside the altitude band of the next (103 committed over long rows);
// and radar noise heavy enough that aircraft withdrawals release
// mid-pass radars onto on-demand box rows, held to the scalar
// Algorithm 1 at every worker count.
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

	for _, family := range []string{"uniform", "layers:gap=800"} {
		spec, err := scenario.ParseSpec(family)
		if err != nil {
			t.Fatal(err)
		}
		world := spec.Generate(8000, rng.New(3))
		src := broadphase.MustNew(broadphase.SweepName)
		src.Prepare(world)
		if broadphase.TableOf(src).PrepareTable() == nil {
			t.Fatalf("%s: N=8000 passed the table limit; the replay's row test does not engage", family)
		}
		ref := world.Clone()
		want := DetectResolveExec(ref, src, serial)
		if want.Resolved == 0 {
			t.Fatalf("%s: the one-worker pass committed no heading; the replay rescans nothing", family)
		}
		for _, p := range pools {
			got := world.Clone()
			res := DetectResolveExec(got, broadphase.MustNew(broadphase.SweepName), p)
			label := "DetectResolve " + family + " sweep (workers " + itoa(p.Workers()) + ")"
			if res != want {
				t.Fatalf("%s: stats diverged:\nserial:   %+v\nparallel: %+v", label, want, res)
			}
			worldsEqual(t, label, ref, got)
		}
	}

	// Noisy correlation: fixes land in several aircraft's boxes, forcing
	// withdrawals, discards, and mid-pass radar releases.
	noisy := airspace.NewWorld(1500, rng.New(17))
	frame := radar.Generate(noisy, 2.5, rng.New(18))
	refW := noisy.Clone()
	refF := frame.Clone()
	corrRef := scalarCorrelate(refW, refF, BoxPasses)
	if corrRef.WithdrawnAircraft == 0 || corrRef.DiscardedRadars == 0 {
		t.Fatalf("noisy frame produced no contention (stats %+v); test exercises nothing", corrRef)
	}
	for _, p := range append([]*parexec.Pool{serial, parexec.NewPool(3)}, pools...) {
		gotW := noisy.Clone()
		gotF := frame.Clone()
		corr := CorrelateNExec(gotW, gotF, BoxPasses, p)
		if corr != corrRef {
			t.Fatalf("workers=%d: stats diverged:\nscalar: %+v\nexec:   %+v", p.Workers(), corrRef, corr)
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
// the hot paths: after a warm-up call, Correlate allocates nothing at
// one worker or four, and a full Correlate+DetectResolve period
// allocates nothing at one worker and at most one object above that,
// room for the runtime's own record of a goroutine parked on the
// pool's channels, which a collection frees (over 50 runs at
// GOMAXPROCS 2 and 8 every source read 0.0). So a per-call allocation
// in the parallel scan phase, the table build or the replay fails it.
// A second world, past 2·1024 aircraft and with conflicts, holds the
// all-pairs and brute DetectResolve at 4 workers to a handful of
// fixed-size objects, never anything proportional to the aircraft
// count: its probe scans are long enough that a scan fanned out per
// probe would allocate per probe, and the pooled scratch may refill
// after a collection.
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
		w, f := base.Clone(), frame.Clone()
		CorrelateNExec(w, f, BoxPasses, p) // warm the scratch pool and the worker pool
		if avg := testing.AllocsPerRun(10, func() { CorrelateNExec(w, f, BoxPasses, p) }); avg > 0.5 {
			t.Errorf("workers=%d: %.1f allocs per Correlate, want <= 0.5", workers, avg)
		}

		// Above one worker the limit leaves room for one runtime
		// allocation per period.
		limit := 0.5
		if workers > 1 {
			limit = 1
		}
		for _, srcName := range []string{"", broadphase.SweepName, rebuildSweepName} {
			src := newTestSource(srcName)
			w := base.Clone()
			f := frame.Clone()
			run := func() {
				CorrelateNExec(w, f, BoxPasses, p)
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

// TestCorrScratchWorkerGrowth is TestDetectScratchWorkerGrowth for
// Task 1's box search: one BoxHits reused at 8, 9 and 10 workers keeps
// a buffer per worker and a row per radar.
func TestCorrScratchWorkerGrowth(t *testing.T) {
	w := airspace.NewWorld(16, rng.New(1))
	f := radar.Generate(w, radar.DefaultNoise, rng.New(2))
	var b BoxHits
	for _, workers := range []int{8, 9, 10} {
		b.Prepare(w, f, InitialBoxHalf, parexec.NewPool(workers))
		if len(b.bufs) < workers || len(b.start) != 16 {
			t.Fatalf("workers=%d: %d worker buffers, %d radars", workers, len(b.bufs), len(b.start))
		}
	}
}

// TestPooledScratchDropsCaller: once DetectExec, DetectResolveExec or
// CorrelateNExec returns, the scratch it pooled must hold neither the
// caller's world nor its pair source. sync.Pool's victim cache keeps a
// pooled scratch through the next collection, so a scratch still
// referencing them would keep them live through it; here one
// collection must find them unreachable and run their finalizers.
func TestPooledScratchDropsCaller(t *testing.T) {
	p := parexec.NewPool(2)
	cases := []struct {
		name    string
		withSrc bool
		run     func(w *airspace.World, src broadphase.PairSource)
	}{
		{"DetectExec", true, func(w *airspace.World, src broadphase.PairSource) { DetectExec(w, src, p) }},
		{"DetectResolveExec", true, func(w *airspace.World, src broadphase.PairSource) { DetectResolveExec(w, src, p) }},
		{"CorrelateNExec", false, func(w *airspace.World, _ broadphase.PairSource) {
			CorrelateNExec(w, radar.Generate(w, radar.DefaultNoise, rng.New(2)), BoxPasses, p)
		}},
	}
	for _, c := range cases {
		worldGone, srcGone := make(chan struct{}), make(chan struct{})
		func() {
			w := airspace.NewWorld(600, rng.New(1))
			runtime.SetFinalizer(w, func(*airspace.World) { close(worldGone) })
			var src broadphase.PairSource
			if c.withSrc {
				s := broadphase.NewSweep()
				runtime.SetFinalizer(s, func(*broadphase.Sweep) { close(srcGone) })
				src = s
			}
			c.run(w, src)
		}()
		runtime.GC()
		waitCollected(t, c.name+": the world", worldGone)
		if c.withSrc {
			waitCollected(t, c.name+": the pair source", srcGone)
		}
	}
}

// waitCollected waits for a finalizer to close gone.
func waitCollected(t *testing.T, what string, gone <-chan struct{}) {
	t.Helper()
	select {
	case <-gone:
	case <-time.After(10 * time.Second):
		t.Errorf("%s is still live after a collection", what)
	}
}
