package vector

import (
	"math"
	"slices"
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
	"repro/internal/telemetry"
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

func TestNewPanicsOnBadProfile(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad profile did not panic")
		}
	}()
	New(Profile{})
}

// tailWorld is a 13-aircraft world, one full lane block and a tail
// block of five, parked 10 nm apart, with the aircraft listed in pair
// moved onto one position and one radar fix on that position (or far
// from every aircraft when pair is empty).
func tailWorld(pair ...int) (*airspace.World, *radar.Frame) {
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, 13)}
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i)*10 - 60
		a.Alt = 10000
		a.ResetConflict()
	}
	fix := radar.Report{RX: 100, RY: 100, MatchWith: radar.Unmatched}
	for _, i := range pair {
		w.Aircraft[i].X, w.Aircraft[i].Y = 5, 5
		fix.RX, fix.RY = 5, 5
	}
	return w, &radar.Frame{Reports: []radar.Report{fix}}
}

// censusBlocks runs Track with phase marks on and returns the lane
// blocks each census phase was charged, with the Track's stats. The
// machine has one core, so the critical core's spans carry every
// instruction, and the spans are emitted at one instruction per second
// with no barrier, so each lasts its instruction count in seconds.
func censusBlocks(w *airspace.World, f *radar.Frame) ([]int, tasks.CorrelateStats) {
	prof := XeonPhi7210
	prof.Cores = 1
	m := New(prof)
	m.cores.BeginMarks()
	st, _ := m.Track(w, f)
	rec := telemetry.NewRecorder(0)
	m.cores.EmitSpans(rec, 1, 0)
	var blocks []int
	rec.Visit(func(ev telemetry.Event) {
		if rec.Name(ev.Name) == "census" {
			blocks = append(blocks, int(time.Duration(ev.Value)/(viBoxCheck*time.Second)))
		}
	})
	return blocks, st
}

// TestMaskHelpers: a radar with no eligible hit is charged every lane
// block at N=13, the tail block included, but only the 13 valid lanes
// as comparisons — in each of the three passes it stays unmatched.
func TestMaskHelpers(t *testing.T) {
	blocks, st := censusBlocks(tailWorld())
	if !slices.Equal(blocks, []int{2, 2, 2}) || st.Comparisons != 3*13 {
		t.Fatalf("census blocks %v, %d comparisons; want [2 2 2], 39", blocks, st.Comparisons)
	}
}

// TestLoadFieldTailLanes: the census stops after the block holding the
// radar's second eligible hit. At aircraft 9 that is the tail block (2
// blocks, 13 valid lanes compared); at aircraft 5 the first block (1
// block, 8 comparisons). The radar is discarded in pass 0.
func TestLoadFieldTailLanes(t *testing.T) {
	for _, c := range []struct {
		first, second, blocks, comparisons int
	}{
		{2, 9, 2, 13},
		{1, 5, 1, 8},
	} {
		blocks, st := censusBlocks(tailWorld(c.first, c.second))
		if !slices.Equal(blocks, []int{c.blocks}) || st.Comparisons != c.comparisons || st.DiscardedRadars != 1 {
			t.Errorf("hits at %d and %d: census blocks %v, stats %+v; want [%d], %d comparisons, 1 discard",
				c.first, c.second, blocks, st, c.blocks, c.comparisons)
		}
	}
}

func TestTrackMatchesReferenceOnCleanTraffic(t *testing.T) {
	w := gridWorld(400)
	f := radar.Generate(w, 0.2, rng.New(1))
	refW, refF := w.Clone(), f.Clone()
	refStats := tasks.Correlate(refW, refF)

	m := New(XeonPhi7210)
	st, d := m.Track(w, f)
	if st.Matched != refStats.Matched {
		t.Fatalf("matched %d, reference %d", st.Matched, refStats.Matched)
	}
	if d <= 0 {
		t.Fatal("no modeled time")
	}
	for i := range w.Aircraft {
		if w.Aircraft[i].X != refW.Aircraft[i].X || w.Aircraft[i].Y != refW.Aircraft[i].Y {
			t.Fatalf("aircraft %d position differs from reference", i)
		}
	}
}

func TestTrackHighMatchRateOnRandomTraffic(t *testing.T) {
	w := airspace.NewWorld(2000, rng.New(7))
	f := radar.Generate(w, radar.DefaultNoise, rng.New(8))
	st, _ := New(XeonPhi7210).Track(w, f)
	if st.Matched < w.N()*95/100 {
		t.Fatalf("only %d of %d matched", st.Matched, w.N())
	}
}

func TestTrackTimeDeterministic(t *testing.T) {
	base := airspace.NewWorld(1000, rng.New(9))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(10))
	m := New(XeonPhi7210)
	_, first := m.Track(base.Clone(), frame.Clone())
	for i := 0; i < 3; i++ {
		_, again := m.Track(base.Clone(), frame.Clone())
		if again != first {
			t.Fatalf("run %d time %v != %v", i, again, first)
		}
	}
	if !m.Deterministic() {
		t.Fatal("vector model must report deterministic timing")
	}
}

func TestDetectResolveInvariants(t *testing.T) {
	w := airspace.NewWorld(600, rng.New(21))
	speeds := make([]float64, w.N())
	for i, a := range w.Aircraft {
		speeds[i] = a.SpeedKnots()
	}
	st, d := New(XeonPhi7210).DetectResolve(w)
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

func TestDetectResolveHeadOn(t *testing.T) {
	w := gridWorld(2)
	a, b := &w.Aircraft[0], &w.Aircraft[1]
	a.X, a.Y, a.DX, a.DY, a.Alt = 0, 0, 0.05, 0, 10000
	b.X, b.Y, b.DX, b.DY, b.Alt = 30, 0, -0.05, 0, 10000
	a.ResetConflict()
	b.ResetConflict()
	m := New(XeonPhi7210)
	for cycle := 0; cycle < 3; cycle++ {
		m.DetectResolve(w)
		if check := tasks.Detect(w.Clone()); check.Conflicts == 0 {
			return
		}
	}
	t.Fatal("head-on conflict not quiesced within 3 cycles")
}

func TestPhiFasterThanAVX2AtScale(t *testing.T) {
	// 64 cores x 8 lanes must beat 8 cores at the same workload.
	base := airspace.NewWorld(4000, rng.New(13))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(14))
	_, phi := New(XeonPhi7210).Track(base.Clone(), frame.Clone())
	_, avx := New(AVX2Workstation).Track(base.Clone(), frame.Clone())
	if phi >= avx {
		t.Fatalf("Xeon Phi (%v) not faster than the AVX2 workstation (%v)", phi, avx)
	}
}

func TestNearLinearScaling(t *testing.T) {
	// The Section 7.2 hypothesis: wide SIMD gives GPU-like near-linear
	// growth over the measured domain.
	m := New(XeonPhi7210)
	timeFor := func(n int) float64 {
		w := airspace.NewWorld(n, rng.New(11))
		f := radar.Generate(w, radar.DefaultNoise, rng.New(12))
		_, d := m.Track(w, f)
		return d.Seconds()
	}
	t4, t8 := timeFor(4000), timeFor(8000)
	if t8/t4 > 3.5 {
		t.Fatalf("scaling ratio %.2f for 2x aircraft — not SIMD-like", t8/t4)
	}
}

func TestEmptyWorld(t *testing.T) {
	m := New(XeonPhi7210)
	st, _ := m.Track(&airspace.World{}, &radar.Frame{})
	if st.Matched != 0 {
		t.Fatal("empty world matched")
	}
	dst, _ := m.DetectResolve(&airspace.World{})
	if dst.Conflicts != 0 {
		t.Fatal("empty world conflicted")
	}
}
