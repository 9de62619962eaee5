package broadphase_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// randomWorld builds a world whose traffic density is controlled by
// spread: positions are compressed toward the origin by the spread
// factor and altitudes are squeezed into a few bands so that a
// meaningful fraction of pairs is in real conflict.
func randomWorld(r *rng.Rand, n int, spread float64) *airspace.World {
	w := airspace.NewWorld(n, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.X *= spread
		a.Y *= spread
		// Three altitude bands 800 ft apart: within-band pairs overlap
		// (|dAlt| < AltBandFeet), cross-band pairs mostly do not.
		band := float64(r.IntN(3)) * 800
		a.Alt = 20000 + band + r.Range(0, 150)
	}
	return w
}

// sources returns fresh instances of every registered pair source.
func sources(t *testing.T) []broadphase.PairSource {
	t.Helper()
	var out []broadphase.PairSource
	for _, name := range broadphase.Names() {
		src, err := broadphase.New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		out = append(out, src)
	}
	return out
}

// checkStatsEqual compares every DetectStats field except PairChecks,
// which legitimately differs between pruned and unpruned scans.
func checkStatsEqual(t *testing.T, label string, want, got tasks.DetectStats) {
	t.Helper()
	if want.Conflicts != got.Conflicts || want.Rotations != got.Rotations ||
		want.Resolved != got.Resolved || want.Unresolved != got.Unresolved {
		t.Errorf("%s: stats diverge: want %+v, got %+v", label, want, got)
	}
}

// checkWorldsEqual requires bit-identical aircraft state: detection and
// resolution under a pruned source must be indistinguishable from the
// all-pairs reference.
func checkWorldsEqual(t *testing.T, label string, want, got *airspace.World) {
	t.Helper()
	if want.N() != got.N() {
		t.Fatalf("%s: world sizes differ: %d vs %d", label, want.N(), got.N())
	}
	for i := range want.Aircraft {
		a, b := &want.Aircraft[i], &got.Aircraft[i]
		if a.Col != b.Col || a.ColWith != b.ColWith || a.TimeTill != b.TimeTill {
			t.Errorf("%s: aircraft %d conflict state diverges: want Col=%v ColWith=%d TimeTill=%v, got Col=%v ColWith=%d TimeTill=%v",
				label, i, a.Col, a.ColWith, a.TimeTill, b.Col, b.ColWith, b.TimeTill)
		}
		if a.DX != b.DX || a.DY != b.DY || a.BatX != b.BatX || a.BatY != b.BatY {
			t.Errorf("%s: aircraft %d course diverges: want (%v,%v) bat (%v,%v), got (%v,%v) bat (%v,%v)",
				label, i, a.DX, a.DY, a.BatX, a.BatY, b.DX, b.DY, b.BatX, b.BatY)
		}
	}
}

// TestSourcesAgree is the core exactness property: on randomized worlds
// of varying size and density, Detect and DetectResolve under Brute and
// the production Sweep must produce bit-identical results to the all-pairs
// reference — same conflict count, same earliest-critical pairs, same
// committed resolution courses.
func TestSourcesAgree(t *testing.T) {
	r := rng.New(0xb20adfa5e)
	worlds := 0
	for _, spread := range []float64{1, 0.3, 0.1} {
		for trial := 0; trial < 36; trial++ {
			n := 40 + r.IntN(260)
			base := randomWorld(r.Split(), n, spread)
			worlds++

			// Reference: all-pairs scan, no source.
			refDet := base.Clone()
			refDetSt := tasks.DetectWith(refDet, nil)
			refRes := base.Clone()
			refResSt := tasks.DetectResolveWith(refRes, nil)

			for _, src := range sources(t) {
				label := src.Name()
				wd := base.Clone()
				st := tasks.DetectWith(wd, src)
				checkStatsEqual(t, label+"/detect", refDetSt, st)
				checkWorldsEqual(t, label+"/detect", refDet, wd)

				wr := base.Clone()
				st = tasks.DetectResolveWith(wr, src)
				checkStatsEqual(t, label+"/resolve", refResSt, st)
				checkWorldsEqual(t, label+"/resolve", refRes, wr)
			}
		}
	}
	if worlds < 100 {
		t.Fatalf("property exercised only %d worlds, want >= 100", worlds)
	}
}

// TestGridSeamWraparound pins both sweeps at the (x, y) -> (-x, -y)
// field exit seam: traffic parked just inside opposite edges and
// corners, with envelopes spilling past them, must detect and resolve
// exactly like Brute under the production sweep and the NewSweep
// reference, and every critically conflicting pair must be in the
// production sweep's table row and in both sweeps' per-track queries.
func TestGridSeamWraparound(t *testing.T) {
	r := rng.New(0x5ea3)
	sweeps := []struct {
		name string
		new  func() *broadphase.Sweep
	}{{"sweep", newSweep}, {"reference-sweep", broadphase.NewSweep}}
	for trial := 0; trial < 40; trial++ {
		n := 60 + r.IntN(120)
		w := airspace.NewWorld(n, r.Split())
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			// Park each aircraft within a couple of nm of a field edge
			// (or corner), on either side of the seam.
			edge := airspace.FieldHalf - r.Range(0, 2)
			sx, sy := r.Sign(), r.Sign()
			switch r.IntN(3) {
			case 0: // x seam
				a.X = edge * sx
				a.Y = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
			case 1: // y seam
				a.X = r.Range(-airspace.FieldHalf, airspace.FieldHalf)
				a.Y = edge * sy
			default: // corner
				a.X = edge * sx
				a.Y = (airspace.FieldHalf - r.Range(0, 2)) * sy
			}
			a.Alt = 25000 + r.Range(0, 400)
		}

		refDet := w.Clone()
		refSt := tasks.DetectWith(refDet, broadphase.NewBrute())
		refRes := w.Clone()
		refResSt := tasks.DetectResolveWith(refRes, nil)
		for _, s := range sweeps {
			gw := w.Clone()
			checkStatsEqual(t, s.name+" seam/detect", refSt, tasks.DetectWith(gw, s.new()))
			checkWorldsEqual(t, s.name+" seam/detect", refDet, gw)
			gr := w.Clone()
			checkStatsEqual(t, s.name+" seam/resolve", refResSt, tasks.DetectResolveWith(gr, s.new()))
			checkWorldsEqual(t, s.name+" seam/resolve", refRes, gr)
		}

		// Explicit superset check on the original snapshot: every pair
		// whose conflict window opens before the prune horizon must be
		// in every candidate set served for the track.
		prod, ref := newSweep(), broadphase.NewSweep()
		prod.Prepare(w)
		ref.Prepare(w)
		tab := prod.PrepareTable()
		if tab == nil {
			t.Fatalf("trial %d: the production sweep built no table for %d aircraft", trial, n)
		}
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			sets := []struct {
				name string
				cand []int32
			}{
				{"sweep table row", tab.Candidates(i)},
				{"sweep query", prod.AppendCandidates(nil, w, a)},
				{"reference-sweep query", ref.AppendCandidates(nil, w, a)},
			}
			for j := range w.Aircraft {
				if i == j {
					continue
				}
				b := &w.Aircraft[j]
				if !tasks.AltOverlap(a, b) {
					continue
				}
				tmin, tmax, ok := tasks.PairConflict(a.X, a.Y, a.DX, a.DY, b)
				if !ok || tmin >= tmax || tmin >= broadphase.PruneHorizon {
					continue
				}
				for _, set := range sets {
					if !containsID(set.cand, int32(j)) {
						t.Fatalf("trial %d: %s dropped critical pair (%d, %d) with tmin %v: candidates %v",
							trial, set.name, i, j, tmin, set.cand)
					}
				}
			}
		}
	}
}

// TestCandidatesSortedAndSuperset checks the two structural halves of
// the PairSource contract on random dense worlds: ascending order and
// the critical-pair superset property, for every source.
func TestCandidatesSortedAndSuperset(t *testing.T) {
	r := rng.New(0xca9d)
	for trial := 0; trial < 25; trial++ {
		w := randomWorld(r.Split(), 50+r.IntN(150), 0.25)
		for _, src := range sources(t) {
			src.Prepare(w)
			for i := range w.Aircraft {
				a := &w.Aircraft[i]
				cand := src.Candidates(w, a)
				for k := 1; k < len(cand); k++ {
					if cand[k-1] >= cand[k] {
						t.Fatalf("%s: candidates for %d not strictly ascending: %v", src.Name(), i, cand)
					}
				}
				for j := range w.Aircraft {
					if i == j {
						continue
					}
					b := &w.Aircraft[j]
					tmin, tmax, ok := tasks.PairConflict(a.X, a.Y, a.DX, a.DY, b)
					if !ok || tmin >= tmax || tmin >= broadphase.PruneHorizon {
						continue
					}
					if !containsID(cand, int32(j)) {
						t.Fatalf("%s: dropped critical pair (%d, %d), tmin %v", src.Name(), i, j, tmin)
					}
				}
			}
		}
	}
}

func containsID(ids []int32, id int32) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}

// TestReachBoundsTravel sanity-checks the envelope half-width: within
// PruneHorizon periods an aircraft cannot leave its reach box on either
// axis, under any heading of the same speed.
func TestReachBoundsTravel(t *testing.T) {
	r := rng.New(7)
	w := airspace.NewWorld(64, r)
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		reach := broadphase.Reach(a)
		speed := math.Hypot(a.DX, a.DY)
		travel := speed*broadphase.PruneHorizon + airspace.SepTotal/2
		if reach < travel {
			t.Fatalf("aircraft %d: reach %v below worst-case travel %v", i, reach, travel)
		}
	}
}

func TestEmptyAndTinyWorlds(t *testing.T) {
	for _, n := range []int{0, 1, 2} {
		w := airspace.NewWorld(n, rng.New(uint64(n)+1))
		for _, src := range sources(t) {
			st := tasks.DetectWith(w.Clone(), src)
			ref := tasks.DetectWith(w.Clone(), nil)
			checkStatsEqual(t, src.Name(), ref, st)
		}
	}
}

// TestFixedCellGridAgrees holds the production sweep to the all-pairs
// run on one random world squeezed onto its 8 nm bins at three scales:
// every aircraft inside one cell, the aircraft filling one cell row,
// and the aircraft spread over the field.
func TestFixedCellGridAgrees(t *testing.T) {
	r := rng.New(0xce11)
	base := randomWorld(r, 120, 1)
	// intoCell maps a setup coordinate into the cell [0, 8) nm, clear of
	// its edges.
	intoCell := func(v float64) float64 { return 0.5 + 7*(v+airspace.SetupHalf)/(2*airspace.SetupHalf) }
	for _, c := range []struct {
		name         string
		cellX, cellY bool
	}{{"one cell", true, true}, {"one cell row", false, true}, {"field", false, false}} {
		w := base.Clone()
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			if c.cellX {
				a.X = intoCell(a.X)
			}
			if c.cellY {
				a.Y = intoCell(a.Y)
			}
		}
		ref := w.Clone()
		refSt := tasks.DetectResolveWith(ref, nil)
		st := tasks.DetectResolveWith(w, newSweep())
		checkStatsEqual(t, c.name, refSt, st)
		checkWorldsEqual(t, c.name, ref, w)
	}
}

// TestNewGridCellPanicsOnNonPositive pins the removal of the grid
// source: the registry rejects "grid" like any unknown name and lists
// the known ones.
func TestNewGridCellPanicsOnNonPositive(t *testing.T) {
	_, err := broadphase.New("grid")
	if err == nil {
		t.Fatal(`New("grid") did not error`)
	}
	for _, name := range broadphase.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestRegistry(t *testing.T) {
	for _, name := range broadphase.Names() {
		src := broadphase.MustNew(name)
		if src.Name() != name {
			t.Errorf("MustNew(%q).Name() = %q", name, src.Name())
		}
	}
	if _, err := broadphase.New("quadtree"); err == nil {
		t.Error("New with unknown name did not error")
	}
}

// TestPruningPrunes guards against the trivial "return everything"
// implementation: on a sparse full-field world the sweep must evaluate
// strictly fewer pairs than brute force.
func TestPruningPrunes(t *testing.T) {
	w := airspace.NewWorld(2000, rng.New(42))
	brute := tasks.DetectWith(w.Clone(), broadphase.NewBrute())
	st := tasks.DetectWith(w.Clone(), broadphase.MustNew(broadphase.SweepName))
	if st.PairChecks >= brute.PairChecks {
		t.Errorf("sweep: %d pair checks, brute %d — no pruning", st.PairChecks, brute.PairChecks)
	}
}
