package airspace

import (
	"math"
	"testing"

	"repro/internal/rng"
)

func TestNewWorldCount(t *testing.T) {
	w := NewWorld(100, rng.New(1))
	if w.N() != 100 {
		t.Fatalf("N = %d, want 100", w.N())
	}
	for i, a := range w.Aircraft {
		if int(a.ID) != i {
			t.Fatalf("aircraft %d has ID %d", i, a.ID)
		}
	}
}

func TestNewWorldZero(t *testing.T) {
	w := NewWorld(0, rng.New(1))
	if w.N() != 0 {
		t.Fatalf("N = %d, want 0", w.N())
	}
}

func TestNewWorldNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(-1) did not panic")
		}
	}()
	NewWorld(-1, rng.New(1))
}

// Section 4.1 invariants: positions within ±SetupHalf, speed within
// [SpeedMin, SpeedMax] knots, altitude within [AltMin, AltMax].
func TestSetupFlightInvariants(t *testing.T) {
	w := NewWorld(5000, rng.New(2))
	for _, a := range w.Aircraft {
		if math.Abs(a.X) > SetupHalf || math.Abs(a.Y) > SetupHalf {
			t.Fatalf("aircraft %d outside setup bounds: (%v,%v)", a.ID, a.X, a.Y)
		}
		s := a.SpeedKnots()
		if s < SpeedMin-1e-9 || s > SpeedMax+1e-9 {
			t.Fatalf("aircraft %d speed %v knots outside [%v,%v]", a.ID, s, SpeedMin, SpeedMax)
		}
		if a.Alt < AltMin || a.Alt > AltMax {
			t.Fatalf("aircraft %d altitude %v outside [%v,%v]", a.ID, a.Alt, AltMin, AltMax)
		}
		if a.ColWith != NoConflict || a.Col {
			t.Fatalf("aircraft %d starts with conflict state set", a.ID)
		}
		if a.TimeTill != SafeTime {
			t.Fatalf("aircraft %d TimeTill = %v, want %v", a.ID, a.TimeTill, SafeTime)
		}
	}
}

// SetupFlight draws signs independently, so all four quadrants and all
// four velocity sign combinations must occur.
func TestSetupFlightCoversQuadrants(t *testing.T) {
	w := NewWorld(1000, rng.New(3))
	var posQuad, velQuad [4]int
	quad := func(x, y float64) int {
		q := 0
		if x < 0 {
			q |= 1
		}
		if y < 0 {
			q |= 2
		}
		return q
	}
	for _, a := range w.Aircraft {
		posQuad[quad(a.X, a.Y)]++
		velQuad[quad(a.DX, a.DY)]++
	}
	for q := 0; q < 4; q++ {
		if posQuad[q] == 0 {
			t.Errorf("no aircraft in position quadrant %d", q)
		}
		if velQuad[q] == 0 {
			t.Errorf("no aircraft with velocity signs in quadrant %d", q)
		}
	}
}

func TestSetupDeterministic(t *testing.T) {
	a := NewWorld(50, rng.New(7))
	b := NewWorld(50, rng.New(7))
	for i := range a.Aircraft {
		if a.Aircraft[i] != b.Aircraft[i] {
			t.Fatalf("same seed produced different aircraft %d", i)
		}
	}
}

func TestWrapReentersAtNegated(t *testing.T) {
	a := Aircraft{X: FieldHalf + 5, Y: -30, DX: 0.1, DY: 0.2}
	Wrap(&a)
	if a.X != -(FieldHalf+5) || a.Y != 30 {
		t.Fatalf("Wrap moved aircraft to (%v,%v)", a.X, a.Y)
	}
	if a.DX != 0.1 || a.DY != 0.2 {
		t.Fatal("Wrap changed the velocity; re-entry must keep speed and direction")
	}
}

func TestWrapLeavesInFieldAlone(t *testing.T) {
	a := Aircraft{X: 10, Y: -10}
	Wrap(&a)
	if a.X != 10 || a.Y != -10 {
		t.Fatalf("Wrap moved in-field aircraft to (%v,%v)", a.X, a.Y)
	}
}

// Property: re-entry preserves distance from the field center (the
// negated point is symmetric), and an aircraft that exits moving
// outward is moving inward after the wrap — which is what keeps the
// traffic population stable.
func TestWrapSymmetryAndInwardMotion(t *testing.T) {
	r := rng.New(11)
	for i := 0; i < 1000; i++ {
		// An aircraft that just stepped slightly past an edge.
		a := Aircraft{X: r.Range(FieldHalf, FieldHalf+0.1), Y: r.Range(-FieldHalf, FieldHalf), DX: 0.05, DY: r.Range(-0.05, 0.05)}
		d0 := math.Hypot(a.X, a.Y)
		Wrap(&a)
		if math.Abs(math.Hypot(a.X, a.Y)-d0) > 1e-12 {
			t.Fatalf("Wrap changed distance from center")
		}
		// It exited moving +x; after negation it sits at x < -FieldHalf
		// still moving +x, i.e. back toward the field.
		if a.X > 0 || a.DX <= 0 {
			t.Fatalf("wrapped aircraft not re-entering: x=%v dx=%v", a.X, a.DX)
		}
	}
}

// Wrap is an involution on out-of-field points: applying it twice
// returns the original position.
func TestWrapInvolution(t *testing.T) {
	r := rng.New(12)
	for i := 0; i < 1000; i++ {
		x := r.Range(-2*FieldHalf, 2*FieldHalf)
		y := r.Range(-2*FieldHalf, 2*FieldHalf)
		if InField(x, y) {
			continue
		}
		a := Aircraft{X: x, Y: y}
		Wrap(&a)
		Wrap(&a)
		if a.X != x || a.Y != y {
			t.Fatalf("double Wrap of (%v,%v) gave (%v,%v)", x, y, a.X, a.Y)
		}
	}
}

// Over many periods of dead-reckoned movement plus wrapping, every
// aircraft stays within the field plus one period's travel.
func TestLongRunStaysNearField(t *testing.T) {
	w := NewWorld(500, rng.New(13))
	maxStep := SpeedMax / PeriodsPerHour
	for period := 0; period < 5000; period++ {
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X += a.DX
			a.Y += a.DY
		}
		w.WrapAll()
	}
	for _, a := range w.Aircraft {
		if math.Abs(a.X) > FieldHalf+maxStep || math.Abs(a.Y) > FieldHalf+maxStep {
			t.Fatalf("aircraft %d drifted to (%v,%v)", a.ID, a.X, a.Y)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	w := NewWorld(10, rng.New(5))
	c := w.Clone()
	c.Aircraft[0].X = 999
	if w.Aircraft[0].X == 999 {
		t.Fatal("Clone shares backing storage with original")
	}
}

func TestResetConflict(t *testing.T) {
	a := Aircraft{DX: 0.1, DY: 0.2, Col: true, TimeTill: 5, ColWith: 3, BatX: 9, BatY: 9}
	a.ResetConflict()
	if a.Col || a.TimeTill != SafeTime || a.ColWith != NoConflict {
		t.Fatalf("ResetConflict left state: %+v", a)
	}
	if a.BatX != a.DX || a.BatY != a.DY {
		t.Fatal("ResetConflict should reset trial path to committed course")
	}
}

func TestHorizonConstant(t *testing.T) {
	if HorizonPeriods != 2400 {
		t.Fatalf("HorizonPeriods = %v, want 2400 (20 min of half-second periods)", HorizonPeriods)
	}
	if PeriodsPerMajorCycle != 16 {
		t.Fatalf("PeriodsPerMajorCycle = %d, want 16", PeriodsPerMajorCycle)
	}
}
