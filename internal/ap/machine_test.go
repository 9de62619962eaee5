package ap

import (
	"testing"
	"time"
)

func TestTiles(t *testing.T) {
	cases := []struct {
		pes, n, tiles int
	}{
		{0, 100000, 1}, // ideal AP: one PE per record
		{192, 0, 1},
		{192, 1, 1},
		{192, 192, 1},
		{192, 193, 2},
		{192, 32000, 167},
	}
	for _, c := range cases {
		m := NewMachine(Profile{PEs: c.pes, ClockHz: 1e6, ArithCycles: 1}, c.n)
		if got := m.Tiles(); got != c.tiles {
			t.Errorf("PEs=%d n=%d: Tiles=%d, want %d", c.pes, c.n, got, c.tiles)
		}
	}
}

func TestNegativeNPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewMachine(-1) did not panic")
		}
	}()
	NewMachine(STARAN, -1)
}

func TestCycleChargingWide(t *testing.T) {
	m := NewMachine(Profile{PEs: 10, ClockHz: 1e6, ArithCycles: 3}, 25) // 3 tiles
	m.ParallelOp(4, func(*Machine, int) {})
	if m.Cycles() != 4*3*3 {
		t.Fatalf("cycles = %d, want %d", m.Cycles(), 4*3*3)
	}
}

func TestIdealAPConstantTimePass(t *testing.T) {
	// On the ideal AP one wide operation costs the same no matter how
	// many records there are — the property behind the linear curves.
	small := NewMachine(STARAN, 100)
	big := NewMachine(STARAN, 100000)
	small.ParallelOp(5, func(*Machine, int) {})
	big.ParallelOp(5, func(*Machine, int) {})
	if small.Cycles() != big.Cycles() {
		t.Fatalf("ideal AP pass cost depends on N: %d vs %d", small.Cycles(), big.Cycles())
	}
}

func TestClearSpeedTiledPassScales(t *testing.T) {
	small := NewMachine(ClearSpeedCSX600, 192)
	big := NewMachine(ClearSpeedCSX600, 1920)
	small.ParallelOp(5, func(*Machine, int) {})
	big.ParallelOp(5, func(*Machine, int) {})
	if big.Cycles() != 10*small.Cycles() {
		t.Fatalf("tiled pass: %d vs %d (want 10x)", big.Cycles(), small.Cycles())
	}
}

func TestSearchAndReductions(t *testing.T) {
	m := NewMachine(STARAN, 10)
	m.Search(1, func(_ *Machine, i int) bool { return i%2 == 0 })
	if got := m.CountResponders(); got != 5 {
		t.Fatalf("CountResponders = %d, want 5", got)
	}
	if !m.AnyResponder() {
		t.Fatal("AnyResponder = false")
	}
	if got := m.FirstResponder(); got != 0 {
		t.Fatalf("FirstResponder = %d, want 0", got)
	}
	m.ClearResponder(0)
	if got := m.FirstResponder(); got != 2 {
		t.Fatalf("FirstResponder after clear = %d, want 2", got)
	}
	m.MaskAnd(func(_ *Machine, i int) bool { return i > 5 })
	if got := m.CountResponders(); got != 2 { // 6, 8
		t.Fatalf("after MaskAnd: %d responders, want 2", got)
	}
}

func TestMinMaxReduce(t *testing.T) {
	m := NewMachine(STARAN, 6)
	vals := []float64{5, 3, 9, 3, 7, 1}
	m.Search(1, func(_ *Machine, i int) bool { return i != 5 }) // exclude the 1
	min, argMin := m.MinReduce(100, func(_ *Machine, i int) float64 { return vals[i] })
	if min != 3 || argMin != 1 {
		t.Fatalf("MinReduce = (%v,%d), want (3,1) — lowest index wins ties", min, argMin)
	}
	max, argMax := m.MaxReduce(-100, func(_ *Machine, i int) float64 { return vals[i] })
	if max != 9 || argMax != 2 {
		t.Fatalf("MaxReduce = (%v,%d), want (9,2)", max, argMax)
	}
}

func TestReduceNoResponders(t *testing.T) {
	m := NewMachine(STARAN, 4)
	m.Search(1, func(_ *Machine, i int) bool { return false })
	min, arg := m.MinReduce(42, func(_ *Machine, i int) float64 { return 0 })
	if min != 42 || arg != -1 {
		t.Fatalf("MinReduce with no responders = (%v,%d)", min, arg)
	}
	if m.AnyResponder() {
		t.Fatal("AnyResponder with empty mask")
	}
	if m.FirstResponder() != -1 {
		t.Fatal("FirstResponder with empty mask")
	}
}

func TestTimeConversion(t *testing.T) {
	m := NewMachine(Profile{PEs: 0, ClockHz: 1e6, ArithCycles: 1}, 1)
	m.ParallelOp(1000, func(*Machine, int) {}) // 1000 cycles at 1 MHz = 1 ms
	if got := m.Time(); got != time.Millisecond {
		t.Fatalf("Time = %v, want 1ms", got)
	}
	m.ResetCycles()
	if m.Time() != 0 {
		t.Fatal("ResetCycles did not zero the clock")
	}
}

func TestZeroRecordMachine(t *testing.T) {
	m := NewMachine(STARAN, 0)
	m.Search(1, func(_ *Machine, i int) bool { return true })
	if m.CountResponders() != 0 || m.AnyResponder() {
		t.Fatal("empty machine has responders")
	}
}

func TestProfilesSane(t *testing.T) {
	for _, p := range Profiles() {
		if p.ClockHz <= 0 || p.ArithCycles <= 0 || p.ReduceCycles <= 0 {
			t.Errorf("profile %q has non-positive costs: %+v", p.Name, p)
		}
	}
	if ClearSpeedCSX600.PEs != 192 {
		t.Errorf("ClearSpeed must model 2 chips x 96 PEs, got %d", ClearSpeedCSX600.PEs)
	}
	if STARAN.PEs != 0 {
		t.Error("STARAN profile must model one PE per record")
	}
}
