package broadphase

import (
	"slices"
	"testing"

	"repro/internal/airspace"
)

// prepareEnvelopes is Prepare on envelope edges and altitudes given
// directly, with the widest width maxW given as the envelope fill would
// compute it (twice the widest reach), so a test can pin envelopes
// down to the ulp.
func prepareEnvelopes(s *Sweep, lox, hix, loy, hiy, alt []float64, maxW float64) {
	s.growFor(len(lox))
	copy(s.lox, lox)
	copy(s.hix, hix)
	copy(s.loy, loy)
	copy(s.hiy, hiy)
	copy(s.alt, alt)
	s.maxW = maxW
	s.finishPrepare()
}

// TestPairTableAsymmetricWindow pins a pair that is a candidate one way
// only. j is the widest envelope, centre −73.14844861891203 and
// half-width 11.790608245867542, so maxW is twice the half-width; i's
// low x edge is j's high x edge. Rounded, i's window start lox_i − maxW
// lies one ulp above lox_j, so j is not in row i, while i is in row j:
// j's hix − lox exceeds maxW by that ulp. Both rows and both counts of
// the production sweep's table must equal the reference sweep's, which
// a build treating the relation as symmetric cannot reproduce.
func TestPairTableAsymmetricWindow(t *testing.T) {
	cj, rj := -73.14844861891203, 11.790608245867542
	maxW := 2 * rj
	loxJ, hixJ := cj-rj, cj+rj
	loxI := hixJ
	if loxJ != -84.93905686477957 || loxI != -61.35784037304448 || loxI-maxW != -84.93905686477956 {
		t.Fatalf("edges lox_j %v, lox_i %v, window start of i %v: not the ulp case", loxJ, loxI, loxI-maxW)
	}
	// i is narrower than j and inside j's y extent; both altitudes are
	// inside one band, so a row is the whole candidate set.
	const i, j = 0, 1
	lox := []float64{loxI, loxJ}
	hix := []float64{loxI + 6, hixJ}
	loy := []float64{-3, -rj}
	hiy := []float64{3, rj}
	alt := []float64{20000, 20400}
	if !airspace.AltOverlap(alt[i], alt[j]) {
		t.Fatal("the two altitudes are not inside one band")
	}

	ref := NewSweep()
	prepareEnvelopes(ref, lox, hix, loy, hiy, alt, maxW)
	s := newBinnedSweep()
	prepareEnvelopes(s, lox, hix, loy, hiy, alt, maxW)
	tab := s.PrepareTable()
	if tab == nil {
		t.Fatal("two envelopes passed the table limit")
	}
	words := make([]uint64, 1)
	rows := make([][]int32, 2)
	for k := range rows {
		rows[k] = ref.appendCandidatesID(nil, k, words)
		if int(tab.Count[k]) != len(rows[k]) {
			t.Errorf("track %d: table counts %d candidates, reference sweep %d", k, tab.Count[k], len(rows[k]))
		}
		if got := tab.Candidates(k); !slices.Equal(got, rows[k]) {
			t.Errorf("track %d: table row %v, reference sweep %v", k, got, rows[k])
		}
	}
	if slices.Contains(rows[i], j) || !slices.Contains(rows[j], i) {
		t.Fatalf("reference rows %v: want i in row j and j not in row i", rows)
	}
}
