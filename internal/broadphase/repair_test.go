package broadphase

import (
	"sort"
	"testing"

	"repro/internal/airspace"
	"repro/internal/rng"
)

// TestRepairOrderMatchesSort is the bin build's counting sort against
// sort.Sort over adversarial envelopes: centres drawn from a handful of
// values so cells hold long runs, centres exactly on cell edges and far
// outside the field, and widths spanning every speed class. The
// envelopes must come out as a permutation of the aircraft in sort
// order of their cell key, ascending aircraft index within a cell,
// with start delimiting every cell exactly, each key the cell of the
// aircraft's centre in its class, and every class's half-width bound
// holding for its members.
func TestRepairOrderMatchesSort(t *testing.T) {
	r := rng.New(0x5eb1)
	for _, n := range []int{1, 2, 3, 257, 1100, 2600} {
		for trial := 0; trial < 20; trial++ {
			lox, hix := make([]float64, n), make([]float64, n)
			loy, hiy := make([]float64, n), make([]float64, n)
			alt := make([]float64, n)
			distinct := 1 + r.IntN(n)
			if trial%3 == 0 {
				distinct = 1 + r.IntN(4)
			}
			var maxW float64
			for i := 0; i < n; i++ {
				var x, y float64
				switch trial % 4 {
				case 0: // on cell edges
					x = float64(r.IntN(binGrid+1))*binCell - airspace.FieldHalf
					y = float64(r.IntN(binGrid+1))*binCell - airspace.FieldHalf
				case 1: // far outside the field
					x = r.Range(-4, 4) * airspace.FieldHalf
					y = r.Range(-4, 4) * airspace.FieldHalf
				default: // a few distinct positions
					v := float64(r.IntN(distinct))
					x, y = v-airspace.FieldHalf/2, airspace.FieldHalf/3-v
				}
				w := r.Range(1.5, 26.5)
				if trial%5 == 4 {
					w = 7 // one speed: a single populated class
				}
				lox[i], hix[i] = x-w, x+w
				loy[i], hiy[i] = y-w, y+w
				alt[i] = r.Range(airspace.AltMin, airspace.AltMax)
				maxW = max(maxW, 2*w)
			}
			var b binIndex
			b.build(lox, hix, loy, hiy, alt, maxW)

			want := make([]int32, n)
			for i := range want {
				want[i] = int32(i)
			}
			sort.SliceStable(want, func(a, c int) bool { return b.key[want[a]] < b.key[want[c]] })
			seen := make([]bool, n)
			for p, e := range b.env {
				id := e.id
				if id < 0 || int(id) >= n || seen[id] {
					t.Fatalf("n=%d trial %d: env is not a permutation at %d", n, trial, p)
				}
				seen[id] = true
				if id != want[p] {
					t.Fatalf("n=%d trial %d: env[%d] holds aircraft %d, sort order %d", n, trial, p, id, want[p])
				}
				if e.lox != lox[id] || e.hix != hix[id] || e.loy != loy[id] || e.hiy != hiy[id] || e.alt != alt[id] {
					t.Fatalf("n=%d trial %d: env[%d] does not hold aircraft %d's envelope", n, trial, p, id)
				}
				k := int(b.key[id])
				if int(b.start[k]) > p || p >= int(b.start[k+1]) {
					t.Fatalf("n=%d trial %d: env[%d] in cell %d outside [%d, %d)", n, trial, p, k, b.start[k], b.start[k+1])
				}
				c := k / (binGrid * binGrid)
				cx, cy := k%binGrid, k/binGrid%binGrid
				if cx != binOf((lox[id]+hix[id])/2) || cy != binOf((loy[id]+hiy[id])/2) {
					t.Fatalf("n=%d trial %d: aircraft %d binned in cell (%d, %d)", n, trial, id, cx, cy)
				}
				if (hix[id]-lox[id])/2 > b.half[c] {
					t.Fatalf("n=%d trial %d: aircraft %d wider than its class %d bound %v", n, trial, id, c, b.half[c])
				}
			}
			if b.start[0] != 0 || int(b.start[binCells]) != n {
				t.Fatalf("n=%d trial %d: start spans [%d, %d]", n, trial, b.start[0], b.start[binCells])
			}
		}
	}
}
