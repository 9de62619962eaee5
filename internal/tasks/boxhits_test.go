package tasks

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/rng"
)

// boxCensus is the all-N census BoxHits is held to: the ascending
// indices of the aircraft whose box around the expected position
// strictly contains the radar. The test does not wrap at the field
// edge.
func boxCensus(ac []airspace.Aircraft, rep *radar.Report, h float64) []int32 {
	var row []int32
	for q := range ac {
		a := &ac[q]
		if rep.RX > a.ExpX-h && rep.RX < a.ExpX+h && rep.RY > a.ExpY-h && rep.RY < a.ExpY+h {
			row = append(row, int32(q))
		}
	}
	return row
}

// inBox is the box test for one record, short-circuit: the radar lies
// strictly inside the boxHalf-sized box around the aircraft's expected
// position. The census and replay oracles use it.
func inBox(rep *radar.Report, a *airspace.Aircraft, boxHalf float64) bool {
	return rep.RX > a.ExpX-boxHalf && rep.RX < a.ExpX+boxHalf &&
		rep.RY > a.ExpY-boxHalf && rep.RY < a.ExpY+boxHalf
}

// boxWorld returns an n-aircraft world with current expected positions
// and a noisy frame of its radar fixes. Every fifth aircraft sits
// within 2 nm of the ±FieldHalf edge (every tenth in a corner), so its
// expected position and its fix lie at or just past the edge.
func boxWorld(n int, seed uint64) (*airspace.World, *radar.Frame) {
	w := airspace.NewWorld(n, rng.New(seed))
	r := rng.New(seed + 1)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		if i%5 == 0 {
			a.X = (airspace.FieldHalf - r.Range(0, 2)) * r.Sign()
			if i%10 == 0 {
				a.Y = (airspace.FieldHalf - r.Range(0, 2)) * r.Sign()
			}
		}
		a.ExpX = a.X + a.DX
		a.ExpY = a.Y + a.DY
	}
	return w, radar.Generate(w, 2.5, rng.New(seed+2))
}

// TestBoxHitsMatchesCensus is the differential of BoxHits against the
// all-N census: at N 1100, 1400, 850 and 4000 on one reused BoxHits,
// box half-widths 0.5, 1 and 2 nm, and the default pool and pools of
// 1, 2, 3 and 8 workers, every row equals the census. Every seventh
// radar is matched and every eleventh discarded at Prepare, then
// released, so its row is served on demand; the pending count is the
// number of Unmatched radars. Any change to how rows are found (a cell
// index) is held to this test.
func TestBoxHitsMatchesCensus(t *testing.T) {
	pools := []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}
	var b BoxHits
	var buf ScanBuf
	for _, n := range []int{1100, 1400, 850, 4000} {
		w, f := boxWorld(n, uint64(n))
		for _, h := range []float64{0.5, 1, 2} {
			want := make([][]int32, f.N())
			multi := 0
			for j := range f.Reports {
				want[j] = boxCensus(w.Aircraft, &f.Reports[j], h)
				if len(want[j]) > 1 {
					multi++
				}
			}
			if h == 2 && multi == 0 {
				t.Fatalf("n=%d h=%v: no radar lies in two boxes; the test exercises no ambiguity", n, h)
			}
			for _, p := range pools {
				label := fmt.Sprintf("n=%d h=%v workers=%d", n, h, parexec.Resolve(p).Workers())
				unmatched := 0
				for j := range f.Reports {
					switch {
					case j%7 == 0:
						f.Reports[j].MatchWith = int32(j % n)
					case j%11 == 0:
						f.Reports[j].MatchWith = radar.Discarded
					default:
						f.Reports[j].MatchWith = radar.Unmatched
						unmatched++
					}
				}
				if got := b.Prepare(w, f, h, p); got != unmatched {
					t.Fatalf("%s: Prepare reports %d pending, want %d", label, got, unmatched)
				}
				f.Reset()
				for j := range f.Reports {
					if got := b.Row(w, f, &buf, j); !slices.Equal(got, want[j]) {
						t.Fatalf("%s: radar %d row %v, census %v", label, j, got, want[j])
					}
				}
			}
		}
	}
}

// TestBoxHitsDoesNotWrap pins the box test at the field edge: a box
// never reaches across to the opposite edge, however close the two
// points are through the wrap, and a fix exactly on the box edge is
// outside the box.
func TestBoxHitsDoesNotWrap(t *testing.T) {
	w := &airspace.World{Aircraft: []airspace.Aircraft{
		{ID: 0, ExpX: airspace.FieldHalf - 0.1, ExpY: 3},
		{ID: 1, ExpX: -airspace.FieldHalf + 0.1, ExpY: 3},
		{ID: 2, ExpX: 10, ExpY: -airspace.FieldHalf + 0.05},
	}}
	f := &radar.Frame{Reports: []radar.Report{
		{RX: airspace.FieldHalf - 0.05, RY: 3},  // beside aircraft 0, 0.15 nm from aircraft 1 through the wrap
		{RX: -airspace.FieldHalf - 0.2, RY: 3},  // past the edge beside aircraft 1
		{RX: 10, RY: airspace.FieldHalf - 0.05}, // 0.1 nm from aircraft 2 through the wrap
		{RX: 10.5, RY: -airspace.FieldHalf},     // on the right edge of aircraft 2's half-width 0.5 box
	}}
	f.Reset()
	var b BoxHits
	var buf ScanBuf
	for _, h := range []float64{0.5, 2} {
		b.Prepare(w, f, h, parexec.NewPool(1))
		want := [][]int32{{0}, {1}, nil, nil}
		if h == 2 {
			want[3] = []int32{2}
		}
		for j := range f.Reports {
			if got := b.Row(w, f, &buf, j); !slices.Equal(got, want[j]) {
				t.Errorf("h=%v radar %d: row %v, want %v", h, j, got, want[j])
			}
		}
	}
}

// TestBoxHitsAllocFree: once warm, Prepare and every Row, on-demand
// rows included, allocate nothing at one worker and at two.
func TestBoxHitsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	w, f := boxWorld(2000, 5)
	for _, workers := range []int{1, 2} {
		p := parexec.NewPool(workers)
		var b BoxHits
		var buf ScanBuf
		run := func() {
			for j := range f.Reports {
				f.Reports[j].MatchWith = radar.Unmatched
				if j%3 == 0 {
					f.Reports[j].MatchWith = radar.Discarded
				}
			}
			b.Prepare(w, f, 2, p)
			f.Reset()
			for j := range f.Reports {
				b.Row(w, f, &buf, j)
			}
		}
		run()
		if avg := testing.AllocsPerRun(5, run); avg > 0 {
			t.Errorf("workers=%d: %.1f allocs per Prepare and rows, want 0", workers, avg)
		}
	}
}
