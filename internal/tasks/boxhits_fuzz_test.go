package tasks

import (
	"math"
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// boxFuzzMaxN bounds the decoded aircraft and radar counts: past two
// radarGrain chunks, so two workers each take a chunk.
const boxFuzzMaxN = 2*radarGrain + 8

// boxFuzzReader hands out the fuzz input a byte at a time, then zeros.
type boxFuzzReader []byte

func (r *boxFuzzReader) next() byte {
	if len(*r) == 0 {
		return 0
	}
	c := (*r)[0]
	*r = (*r)[1:]
	return c
}

// value decodes one coordinate: a quarter-nm grid point (on which box
// edges are exact), a finer grid over the whole field, NaN, ±Inf,
// ±FieldHalf, or any float64 bit pattern.
func (r *boxFuzzReader) value() float64 {
	switch c := r.next(); c % 8 {
	case 0:
		return float64(int8(r.next())) / 4
	case 1:
		return math.NaN()
	case 2:
		return math.Inf(1)
	case 3:
		return math.Inf(-1)
	case 4:
		return airspace.FieldHalf
	case 5:
		return -airspace.FieldHalf
	case 6:
		return float64(int16(uint16(r.next())<<8|uint16(r.next()))) / 64
	default:
		var u uint64
		for range 8 {
			u = u<<8 | uint64(r.next())
		}
		return math.Float64frombits(u)
	}
}

// radarCoord decodes one radar coordinate on an axis whose aircraft
// coordinates are exp: a value as above, or aircraft k's coordinate
// minus h, plus h or unchanged (the box's two edges and its centre),
// moved by -1, 0 or +1 ulp.
func (r *boxFuzzReader) radarCoord(exp func(k int) float64, n int, h float64) float64 {
	c := r.next()
	if c%4 == 0 {
		return r.value()
	}
	v := exp(int(r.next()) % n)
	switch c % 4 {
	case 1:
		v -= h
	case 2:
		v += h
	}
	switch (c >> 2) % 3 {
	case 0:
		v = math.Nextafter(v, math.Inf(-1))
	case 2:
		v = math.Nextafter(v, math.Inf(1))
	}
	return v
}

// Radar states FuzzBoxHits decodes: Unmatched at Prepare, matched or
// discarded at Prepare and released after it, or matched throughout.
// Only the first gets a row from Prepare; the others are served on
// demand.
const (
	boxFuzzPending = iota
	boxFuzzMatchedReleased
	boxFuzzDiscardedReleased
	boxFuzzMatched
	boxFuzzStates
)

// decodeBoxFuzz decodes FuzzBoxHits' input: the box half (0.5, 1 or
// 2 nm), 1 to boxFuzzMaxN aircraft with their expected positions, and
// 1 to boxFuzzMaxN radars with their fixes and states.
func decodeBoxFuzz(data []byte) (w *airspace.World, f *radar.Frame, h float64, states []byte) {
	r := boxFuzzReader(data)
	h = [...]float64{0.5, 1, 2}[r.next()%3]
	n := 1 + int(r.next())%boxFuzzMaxN
	nr := 1 + int(r.next())%boxFuzzMaxN
	w = &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.ExpX = r.value()
		a.ExpY = r.value()
	}
	expX := func(k int) float64 { return w.Aircraft[k].ExpX }
	expY := func(k int) float64 { return w.Aircraft[k].ExpY }
	f = &radar.Frame{Reports: make([]radar.Report, nr)}
	states = make([]byte, nr)
	for j := range f.Reports {
		f.Reports[j].RX = r.radarCoord(expX, n, h)
		f.Reports[j].RY = r.radarCoord(expY, n, h)
		states[j] = r.next() % boxFuzzStates
	}
	return w, f, h, states
}

// FuzzBoxHits holds BoxHits to the short-circuit census, boxCensus, on
// decoded worlds and frames: fixes exactly on box edges and one ulp
// either side, NaN, ±Inf and ±FieldHalf coordinates, box halves 0.5, 1
// and 2 nm, N from 1 past two radarGrain chunks, pools of 1 and then
// 2 workers on one BoxHits, and radars released after Prepare so
// their rows are served on demand. The seed corpus in
// testdata/fuzz/FuzzBoxHits puts a fix on each of the four edges of a
// box, and one ulp inside and outside it, at each box half.
func FuzzBoxHits(f *testing.F) {
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(2)}
	f.Fuzz(func(t *testing.T, data []byte) {
		w, fr, h, states := decodeBoxFuzz(data)
		want := make([][]int32, fr.N())
		for j := range fr.Reports {
			want[j] = boxCensus(w.Aircraft, &fr.Reports[j], h)
		}
		var b BoxHits
		var buf ScanBuf
		for _, p := range pools {
			unmatched := 0
			for j, s := range states {
				switch s {
				case boxFuzzPending:
					fr.Reports[j].MatchWith = radar.Unmatched
					unmatched++
				case boxFuzzDiscardedReleased:
					fr.Reports[j].MatchWith = radar.Discarded
				default:
					fr.Reports[j].MatchWith = int32(j % w.N())
				}
			}
			if got := b.Prepare(w, fr, h, p); got != unmatched {
				t.Fatalf("workers=%d: Prepare reports %d pending, want %d", p.Workers(), got, unmatched)
			}
			for j, s := range states {
				if s == boxFuzzMatchedReleased || s == boxFuzzDiscardedReleased {
					fr.Reports[j].MatchWith = radar.Unmatched
				}
			}
			for j := range fr.Reports {
				if got := b.Row(w, fr, &buf, j); !slices.Equal(got, want[j]) {
					rep := fr.Reports[j]
					t.Fatalf("workers=%d h=%v: radar %d at (%v, %v) row %v, census %v", p.Workers(), h, j, rep.RX, rep.RY, got, want[j])
				}
			}
		}
	})
}
