package ap

import (
	"testing"

	"repro/internal/rng"
)

func TestBitPlanesSetGet(t *testing.T) {
	bp := NewBitPlanes(130) // spans three 64-bit mask words
	r := rng.New(1)
	want := make([]uint32, 130)
	for i := range want {
		want[i] = uint32(r.IntN(1 << WordBits))
		bp.Set(i, want[i])
	}
	for i, w := range want {
		if got := bp.Get(i); got != w {
			t.Fatalf("record %d = %d, want %d", i, got, w)
		}
	}
}

func TestBitPlanesNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	NewBitPlanes(-1)
}

func TestBitPlanesTruncatesToWordBits(t *testing.T) {
	bp := NewBitPlanes(1)
	bp.Set(0, 1<<WordBits|5)
	if got := bp.Get(0); got != 5 {
		t.Fatalf("Get = %d, want 5 (truncated)", got)
	}
}

func TestAddBroadcastMasked(t *testing.T) {
	const n = 100
	m := NewMachine(STARAN, n)
	bp := NewBitPlanes(n)
	r := rng.New(2)
	vals := make([]uint32, n)
	for i := range vals {
		vals[i] = uint32(r.IntN(1 << 12))
		bp.Set(i, vals[i])
	}
	// Mask the even records only.
	m.Search(1, func(_ *Machine, i int) bool { return i%2 == 0 })
	before := m.Cycles()
	m.AddBroadcast(bp, 777)
	charged := m.Cycles() - before
	if charged < 2*WordBits {
		t.Fatalf("bit-serial add charged only %d cycles, want >= %d", charged, 2*WordBits)
	}
	for i := range vals {
		want := vals[i]
		if i%2 == 0 {
			want = (vals[i] + 777) & (1<<WordBits - 1)
		}
		if got := bp.Get(i); got != want {
			t.Fatalf("record %d = %d, want %d", i, got, want)
		}
	}
}

func TestAddBroadcastOverflowWraps(t *testing.T) {
	m := NewMachine(STARAN, 1)
	bp := NewBitPlanes(1)
	bp.Set(0, 1<<WordBits-1)
	m.Search(1, func(_ *Machine, i int) bool { return true })
	m.AddBroadcast(bp, 1)
	if got := bp.Get(0); got != 0 {
		t.Fatalf("wrap = %d, want 0", got)
	}
}

func TestLessBroadcastMatchesScalarCompare(t *testing.T) {
	const n = 300
	r := rng.New(3)
	vals := make([]uint32, n)
	bp := NewBitPlanes(n)
	for i := range vals {
		vals[i] = uint32(r.IntN(1 << WordBits))
		bp.Set(i, vals[i])
	}
	for _, threshold := range []uint32{0, 1, 500, 32768, 1<<WordBits - 1} {
		m := NewMachine(STARAN, n)
		m.Search(1, func(_ *Machine, i int) bool { return true })
		m.LessBroadcast(bp, threshold)
		for i, on := range m.mask {
			want := vals[i] < threshold
			if on != want {
				t.Fatalf("threshold %d record %d (=%d): mask %v, want %v",
					threshold, i, vals[i], on, want)
			}
		}
	}
}

func TestLessBroadcastRespectsMask(t *testing.T) {
	const n = 64
	bp := NewBitPlanes(n)
	for i := 0; i < n; i++ {
		bp.Set(i, 0) // everything is < 5
	}
	m := NewMachine(STARAN, n)
	m.Search(1, func(_ *Machine, i int) bool { return i < 10 })
	m.LessBroadcast(bp, 5)
	if got := len(responders(m)); got != 10 {
		t.Fatalf("responders = %d, want only the 10 pre-masked", got)
	}
}

func TestBitSerialCostScalesWithWordWidth(t *testing.T) {
	// The point of the layer: one word operation costs O(WordBits)
	// cycles per tile — which is where the STARAN profile's ArithCycles
	// summary comes from.
	m := NewMachine(STARAN, 50)
	bp := NewBitPlanes(50)
	m.Search(1, func(_ *Machine, i int) bool { return true })
	before := m.Cycles()
	m.LessBroadcast(bp, 1234)
	compareCost := m.Cycles() - before
	if compareCost < WordBits || compareCost > 4*WordBits+2*uint64(STARAN.BroadcastCycles)+uint64(STARAN.ArithCycles) {
		t.Fatalf("bit-serial compare cost %d cycles, want O(WordBits=%d)", compareCost, WordBits)
	}
}

func TestRegisterSizeMismatchPanics(t *testing.T) {
	m := NewMachine(STARAN, 4)
	bp := NewBitPlanes(8)
	for name, f := range map[string]func(){
		"AddBroadcast":  func() { m.AddBroadcast(bp, 1) },
		"LessBroadcast": func() { m.LessBroadcast(bp, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with mismatched register did not panic", name)
				}
			}()
			f()
		}()
	}
}
