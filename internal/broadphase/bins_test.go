package broadphase_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/scenario"
)

// touching returns small worlds whose envelopes touch exactly on one
// axis: a fast aircraft with its centre on, or a few ulps either side
// of, a line every 4 nm across the field — the cell edges of any cell
// size that divides into 4 nm steps — and two slow tracks, one whose
// low edge equals the fast aircraft's high edge and one whose high edge
// equals its low edge. The fast aircraft is alone in its speed class,
// so the class is exactly as wide as it is, and its envelope is so much
// wider than its distance from the origin that its width and centre
// carry rounding error: a query block widened by the class's half-width
// without slack can end one ulp inside the fast aircraft's cell edge.
func touching(yAxis bool) []*airspace.World {
	var out []*airspace.World
	for _, speed := range []float64{0.1, 0.5, 1, 2} { // nm per period
		for edge := -airspace.FieldHalf; edge <= airspace.FieldHalf; edge += 4 {
			for ulps := -3; ulps <= 3; ulps++ {
				x := edge
				for k := 0; k < ulps; k++ {
					x = math.Nextafter(x, math.Inf(1))
				}
				for k := 0; k > ulps; k-- {
					x = math.Nextafter(x, math.Inf(-1))
				}
				w := &airspace.World{}
				add := func(x, dx float64) {
					a := airspace.Aircraft{ID: int32(w.N()), X: x, DX: dx, Alt: 20000}
					if yAxis {
						a.X, a.Y, a.DX, a.DY = 0, x, 0, dx
					}
					w.Aircraft = append(w.Aircraft, a)
				}
				add(x, speed)
				r, rt := broadphase.ReachAt(speed, 0), broadphase.ReachAt(0.01, 0)
				for _, side := range []float64{1, -1} {
					// A track centre t with t − rt == x + r (side 1) or
					// t + rt == x − r (side −1) in floating point, if one
					// lies within a few ulps of x ± (r + rt).
					edgeOf := x + side*r
					t := edgeOf + side*rt
					for k := 0; k < 8 && t-side*rt != edgeOf; k++ {
						if (t-side*rt < edgeOf) == (side > 0) {
							t = math.Nextafter(t, math.Inf(int(side)))
						} else {
							t = math.Nextafter(t, math.Inf(-int(side)))
						}
					}
					if t-side*rt == edgeOf {
						add(t, 0.01)
					}
				}
				out = append(out, w)
			}
		}
	}
	return out
}

// parkedAtEdge places aircraft on the field boundary, at the corners
// and just beyond it, most of them at rest, among uniform traffic.
func parkedAtEdge(r *rng.Rand) *airspace.World {
	w := airspace.NewWorld(900, r)
	h := airspace.FieldHalf
	beyond := math.Nextafter(h, math.Inf(1))
	spots := [][2]float64{{h, 0}, {-h, 0}, {0, h}, {0, -h}, {h, h}, {-h, -h}, {h, -h}, {-h, h}, {beyond, 3}, {-beyond, -3}, {5, beyond}}
	for k, p := range spots {
		for c := 0; c < 12; c++ {
			a := &w.Aircraft[k*12+c]
			a.X, a.Y = p[0], p[1]+float64(c%3)
			if c%2 == 0 {
				a.DX, a.DY = 0, 0
			}
		}
	}
	return w
}

// withSpeeds returns uniform traffic with every velocity rescaled by
// scale(i).
func withSpeeds(n int, r *rng.Rand, scale func(i int) float64) *airspace.World {
	w := airspace.NewWorld(n, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		s := scale(i)
		a.DX, a.DY = a.DX*s, a.DY*s
	}
	return w
}

// oneSpeed returns uniform traffic with every aircraft at the same
// speed on its own heading: one populated speed class.
func oneSpeed(n int, r *rng.Rand) *airspace.World {
	w := airspace.NewWorld(n, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		h := math.Hypot(a.DX, a.DY)
		a.DX, a.DY = a.DX/h*0.06, a.DY/h*0.06
	}
	return w
}

// TestBinnedSweepBoundaries is the binned walk's boundary differential:
// on worlds built to sit on its edges, every table row must equal the
// in-band part of the reference sweep's candidate set, every table
// count its size, and every per-track query of the production sweep the
// full set, at every pool. One source per pool sees every world in
// turn, so cell contents, class bounds and world size all change
// between Prepares.
func TestBinnedSweepBoundaries(t *testing.T) {
	r := rng.New(0xb1a5)
	cluster, err := scenario.ParseSpec("dense:clusters=1,alt=25000,altspread=14000")
	if err != nil {
		t.Fatal(err)
	}
	resized := airspace.NewWorld(1100, r.Split())
	grown := resized.Clone()
	resizeWorld(grown, 1400, r.Split())
	shrunk := grown.Clone()
	resizeWorld(shrunk, 850, r.Split())
	type world struct {
		name  string
		w     *airspace.World
		table bool // whether the table fits under its size limit
	}
	var worlds []world
	for _, y := range []bool{false, true} {
		for i, w := range touching(y) {
			worlds = append(worlds, world{fmt.Sprintf("touching on a cell edge %d, y axis %v", i, y), w, true})
		}
	}
	worlds = append(worlds, []world{
		{"parked at the field edge", parkedAtEdge(r.Split()), true},
		{"zero speed", withSpeeds(700, r.Split(), func(i int) float64 { return float64(i % 2) }), true},
		{"one speed", oneSpeed(700, r.Split()), true},
		{"one fast among slow", withSpeeds(700, r.Split(), func(i int) float64 {
			if i == 350 {
				return 40
			}
			return 0.1
		}), true},
		{"n=1100", resized, true},
		{"n=1400", grown, true},
		{"n=850", shrunk, true},
		{"one cluster past the table limit", cluster.Generate(2200, rng.New(2018)), false},
	}...)
	ref := broadphase.NewSweep()
	for pi, pool := range []*parexec.Pool{nil, parexec.NewPool(1), parexec.NewPool(3), parexec.NewPool(8)} {
		s := newSweep()
		s.SetPool(pool)
		var cols airspace.Columns
		for wi, c := range worlds {
			label := fmt.Sprintf("pool %d, %s", pi, c.name)
			if wi%2 == 0 {
				s.Prepare(c.w)
			} else {
				cols.FillFrom(c.w)
				s.PrepareColumns(&cols)
			}
			ref.Prepare(c.w)
			tab := s.PrepareTable()
			if (tab != nil) != c.table {
				t.Fatalf("%s: built a table: %v, want %v", label, tab != nil, c.table)
			}
			if tab != nil {
				checkTableMatches(t, label, c.w, ref, tab)
			}
			var want, got []int32
			for i := range c.w.Aircraft {
				want = ref.AppendCandidates(want[:0], c.w, &c.w.Aircraft[i])
				got = s.AppendCandidates(got[:0], c.w, &c.w.Aircraft[i])
				if !slices.Equal(got, want) {
					t.Fatalf("%s track %d: query %v, reference %v", label, i, got, want)
				}
			}
		}
	}
}
