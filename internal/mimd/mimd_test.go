package mimd

import (
	"math"
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
)

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

func TestNewPanicsWithoutCores(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero-core profile did not panic")
		}
	}()
	New(Profile{}, 1)
}

func TestTrackMatchesReferenceOnCleanTraffic(t *testing.T) {
	w := gridWorld(400)
	f := radar.Generate(w, 0.2, rng.New(1))
	refW, refF := w.Clone(), f.Clone()
	refStats := tasks.Correlate(refW, refF)

	m := New(Xeon16, 1)
	st, _ := m.Track(w, f)
	if st.Matched != refStats.Matched {
		t.Fatalf("matched %d, reference %d", st.Matched, refStats.Matched)
	}
	for i := range w.Aircraft {
		if w.Aircraft[i].X != refW.Aircraft[i].X || w.Aircraft[i].Y != refW.Aircraft[i].Y {
			t.Fatalf("aircraft %d position differs from reference", i)
		}
	}
}

// serialTrack is Track at one worker written as the sequential
// algorithm it then is: per pass, each radar still unmatched, in index
// order, tests every aircraft not withdrawn — one comparison each — up
// to its second box hit. Two hits discard the radar; one claims the
// aircraft first come first served, and a claim on an aircraft already
// matched withdraws it and releases its radar.
func serialTrack(w *airspace.World, f *radar.Frame) tasks.CorrelateStats {
	var st tasks.CorrelateStats
	state := make([]int32, w.N())
	matchedBy := make([]int32, w.N())
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ExpX, a.ExpY = a.X+a.DX, a.Y+a.DY
		a.RMatch = airspace.MatchNone
		matchedBy[i] = -1
	}
	f.Reset()
	h := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		for j := range f.Reports {
			if f.Reports[j].MatchWith == radar.Unmatched {
				st.PassRadars[pass]++
			}
		}
		if st.PassRadars[pass] == 0 {
			break
		}
		for j := range f.Reports {
			rep := &f.Reports[j]
			if rep.MatchWith != radar.Unmatched {
				continue
			}
			hits, cand := 0, int32(-1)
			for p := range w.Aircraft {
				if state[p] == acWithdrawn {
					continue
				}
				st.Comparisons++
				a := &w.Aircraft[p]
				if rep.RX > a.ExpX-h && rep.RX < a.ExpX+h && rep.RY > a.ExpY-h && rep.RY < a.ExpY+h {
					hits++
					cand = int32(p)
					if hits > 1 {
						break
					}
				}
			}
			switch {
			case hits >= 2:
				rep.MatchWith = radar.Discarded
				st.DiscardedRadars++
			case hits == 1 && state[cand] == acFree:
				state[cand] = acMatched
				matchedBy[cand] = int32(j)
				rep.MatchWith = cand
			case hits == 1 && state[cand] == acMatched:
				state[cand] = acWithdrawn
				st.WithdrawnAircraft++
				f.Reports[matchedBy[cand]].MatchWith = radar.Unmatched
				matchedBy[cand] = -1
			}
		}
		h *= 2
	}
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.X, a.Y = a.ExpX, a.ExpY
		switch state[i] {
		case acMatched:
			a.RMatch = airspace.MatchOne
		case acWithdrawn:
			a.RMatch = airspace.MatchDiscarded
		}
	}
	for j := range f.Reports {
		rep := &f.Reports[j]
		switch {
		case rep.MatchWith == radar.Unmatched:
			st.UnmatchedRadars++
		case rep.MatchWith >= 0 && state[rep.MatchWith] == acMatched:
			w.Aircraft[rep.MatchWith].X, w.Aircraft[rep.MatchWith].Y = rep.RX, rep.RY
			st.Matched++
		}
	}
	w.WrapAll()
	return st
}

// TestTrackAtOneWorkerIsSerial: at one worker the cores run in order,
// so Track is serialTrack exactly — world, frame and stats, the
// Comparisons tally included, which the census reads off its box-hit
// rows and its log of this call's withdrawals. Noisy traffic makes
// withdrawals release radars mid-pass, some onto radars not yet
// scanned.
func TestTrackAtOneWorkerIsSerial(t *testing.T) {
	base := airspace.NewWorld(1500, rng.New(17))
	m := New(Xeon16, 1)
	m.SetWorkers(1)
	for period := 0; period < 3; period++ {
		frame := radar.Generate(base, 2.5, rng.New(uint64(18+period)))
		refW, refF := base.Clone(), frame.Clone()
		ref := serialTrack(refW, refF)
		if ref.WithdrawnAircraft == 0 || ref.DiscardedRadars == 0 {
			t.Fatalf("period %d: no contention (stats %+v); the test exercises nothing", period, ref)
		}
		w, f := base.Clone(), frame.Clone()
		st, _ := m.Track(w, f)
		if st != ref {
			t.Fatalf("period %d: stats %+v, serial %+v", period, st, ref)
		}
		for i := range w.Aircraft {
			if w.Aircraft[i] != refW.Aircraft[i] {
				t.Fatalf("period %d: aircraft %d is %+v, serial %+v", period, i, w.Aircraft[i], refW.Aircraft[i])
			}
		}
		for j := range f.Reports {
			if f.Reports[j] != refF.Reports[j] {
				t.Fatalf("period %d: report %d is %+v, serial %+v", period, j, f.Reports[j], refF.Reports[j])
			}
		}
		base = w
	}
}

func TestTrackHighMatchRateOnRandomTraffic(t *testing.T) {
	w := airspace.NewWorld(3000, rng.New(7))
	f := radar.Generate(w, radar.DefaultNoise, rng.New(8))
	st, _ := New(Xeon16, 2).Track(w, f)
	if st.Matched < w.N()*95/100 {
		t.Fatalf("only %d of %d matched", st.Matched, w.N())
	}
}

func TestTimingIsNonDeterministic(t *testing.T) {
	// The heart of the paper's MIMD critique: the same task on the same
	// data takes a different time each invocation.
	base := airspace.NewWorld(1000, rng.New(9))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(10))
	m := New(Xeon16, 3)
	seen := map[time.Duration]bool{}
	for i := 0; i < 5; i++ {
		_, d := m.Track(base.Clone(), frame.Clone())
		seen[d] = true
	}
	if len(seen) < 2 {
		t.Fatalf("5 identical runs produced identical times: %v", seen)
	}
	if m.Deterministic() {
		t.Fatal("MIMD machine must not claim determinism")
	}
}

func TestSameSeedSameTimeSequence(t *testing.T) {
	// Whole-program reproducibility: two machines with the same seed
	// draw the same jitter sequence.
	base := airspace.NewWorld(500, rng.New(11))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(12))
	m1 := New(Xeon16, 42)
	m2 := New(Xeon16, 42)
	for i := 0; i < 3; i++ {
		_, d1 := m1.Track(base.Clone(), frame.Clone())
		_, d2 := m2.Track(base.Clone(), frame.Clone())
		if d1 != d2 {
			t.Fatalf("run %d: same seed, different times %v vs %v", i, d1, d2)
		}
	}
}

func TestContentionGrowsSuperlinearly(t *testing.T) {
	m := New(Xeon16, 1)
	c1 := m.contention(2000)
	c2 := m.contention(16000)
	c3 := m.contention(32000)
	if !(c1 < c2 && c2 < c3) {
		t.Fatalf("contention not increasing: %v %v %v", c1, c2, c3)
	}
	// Superlinear: the factor itself must grow faster than N.
	if (c3-1)/(c2-1) < 2 {
		t.Fatalf("contention growth too shallow: %v -> %v", c2, c3)
	}
	if m.contention(0) != 1 {
		t.Fatal("empty database must have unit contention")
	}
}

func TestDetectResolveInvariants(t *testing.T) {
	w := airspace.NewWorld(800, rng.New(21))
	speeds := make([]float64, w.N())
	for i, a := range w.Aircraft {
		speeds[i] = a.SpeedKnots()
	}
	st, d := New(Xeon16, 5).DetectResolve(w)
	if d <= 0 {
		t.Fatal("no modeled time")
	}
	if st.Resolved+st.Unresolved > st.Conflicts {
		t.Fatalf("inconsistent stats: %+v", st)
	}
	for i, a := range w.Aircraft {
		if math.Abs(a.SpeedKnots()-speeds[i]) > 1e-6 {
			t.Fatalf("aircraft %d speed changed", i)
		}
	}
}

func TestDetectResolveHeadOnQuiesces(t *testing.T) {
	w := gridWorld(2)
	a, b := &w.Aircraft[0], &w.Aircraft[1]
	a.X, a.Y, a.DX, a.DY, a.Alt = 0, 0, 0.05, 0, 10000
	b.X, b.Y, b.DX, b.DY, b.Alt = 30, 0, -0.05, 0, 10000
	a.ResetConflict()
	b.ResetConflict()
	m := New(Xeon16, 6)
	for cycle := 0; cycle < 3; cycle++ {
		m.DetectResolve(w)
		if check := tasks.Detect(w.Clone()); check.Conflicts == 0 {
			return
		}
	}
	t.Fatal("head-on conflict not quiesced within 3 cycles")
}

func TestXeonSlowerThanLinearAtScale(t *testing.T) {
	// The multicore curve must grow clearly faster than linear: 2x the
	// aircraft must cost more than 3x the time at scale (quadratic work
	// on fixed cores plus growing contention).
	m := New(Xeon16, 7)
	timeFor := func(n int) float64 {
		w := airspace.NewWorld(n, rng.New(13))
		f := radar.Generate(w, radar.DefaultNoise, rng.New(14))
		// Average over a few periods to tame jitter.
		total := 0.0
		for k := 0; k < 5; k++ {
			_, d := m.Track(w.Clone(), f.Clone())
			total += d.Seconds()
		}
		return total / 5
	}
	t8 := timeFor(8000)
	t16 := timeFor(16000)
	if t16/t8 < 3 {
		t.Fatalf("Xeon scaling ratio %.2f for 2x aircraft — should be superlinear", t16/t8)
	}
}

func TestTrackTimeIncludesJitterTail(t *testing.T) {
	// Across many draws the jitter must occasionally spike well above
	// its mean — that tail is what produces the sporadic misses.
	m := New(Xeon16, 8)
	base := airspace.NewWorld(200, rng.New(15))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(16))
	var min, max time.Duration
	for i := 0; i < 50; i++ {
		_, d := m.Track(base.Clone(), frame.Clone())
		if i == 0 || d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max < 2*min {
		t.Fatalf("jitter spread too tight: min=%v max=%v", min, max)
	}
}

func TestEmptyWorld(t *testing.T) {
	w := &airspace.World{}
	f := &radar.Frame{}
	m := New(Xeon16, 9)
	st, _ := m.Track(w, f)
	if st.Matched != 0 {
		t.Fatalf("empty world matched %d", st.Matched)
	}
	dst, _ := m.DetectResolve(w)
	if dst.Conflicts != 0 {
		t.Fatalf("empty world had conflicts")
	}
}
