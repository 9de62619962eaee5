package tasks

import (
	"math"
	"testing"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
)

// spreadWorld builds a world of n stationary-ish aircraft on a grid with
// pitch nm spacing so correlation cases are fully controlled.
func spreadWorld(n int, pitch float64) *airspace.World {
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	side := int(math.Ceil(math.Sqrt(float64(n))))
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%side)*pitch - airspace.SetupHalf
		a.Y = float64(i/side)*pitch - airspace.SetupHalf
		a.Alt = 10000
		a.ResetConflict()
	}
	return w
}

func TestCorrelateAllMatchFirstPass(t *testing.T) {
	// Well-separated aircraft, noise well inside the 1x1 box: everyone
	// must match on pass 1 and take the radar position.
	w := spreadWorld(400, 5)
	f := radar.Generate(w, 0.2, rng.New(1))
	want := f.Clone() // radar positions before matching
	st := Correlate(w, f)

	if st.Matched != 400 {
		t.Fatalf("Matched = %d, want 400 (stats: %+v)", st.Matched, st)
	}
	if st.DiscardedRadars != 0 || st.WithdrawnAircraft != 0 || st.UnmatchedRadars != 0 {
		t.Fatalf("unexpected discards: %+v", st)
	}
	if st.PassRadars[1] != 0 {
		t.Fatalf("pass 2 still had %d radars pending", st.PassRadars[1])
	}
	// Every aircraft position must now be one of the radar positions.
	for i := range f.Reports {
		rep := &f.Reports[i]
		if rep.MatchWith < 0 {
			t.Fatalf("report %d unmatched: %d", i, rep.MatchWith)
		}
		a := &w.Aircraft[rep.MatchWith]
		if a.X != want.Reports[i].RX || a.Y != want.Reports[i].RY {
			t.Fatalf("aircraft %d not at its radar position", rep.MatchWith)
		}
	}
}

func TestCorrelateSecondPassPicksUpLargerNoise(t *testing.T) {
	// One aircraft, radar offset 0.7 nm: outside the 0.5 half-box but
	// inside the doubled 1.0 half-box.
	w := spreadWorld(1, 5)
	f := &radar.Frame{Reports: []radar.Report{{RX: w.Aircraft[0].X + 0.7, RY: w.Aircraft[0].Y, MatchWith: radar.Unmatched}}}
	st := Correlate(w, f)
	if st.Matched != 1 {
		t.Fatalf("Matched = %d, want 1", st.Matched)
	}
	if st.PassRadars[0] != 1 || st.PassRadars[1] != 1 || st.PassRadars[2] != 0 {
		t.Fatalf("pass pending counts = %v", st.PassRadars)
	}
	if w.Aircraft[0].X != f.Reports[0].RX {
		t.Fatal("aircraft did not take radar position after pass-2 match")
	}
}

func TestCorrelateThirdPassBox(t *testing.T) {
	// Offset 1.5 nm: needs the second doubling (half-box 2.0).
	w := spreadWorld(1, 5)
	f := &radar.Frame{Reports: []radar.Report{{RX: w.Aircraft[0].X + 1.5, RY: w.Aircraft[0].Y, MatchWith: radar.Unmatched}}}
	st := Correlate(w, f)
	if st.Matched != 1 {
		t.Fatalf("Matched = %d, want 1", st.Matched)
	}
}

func TestCorrelateFarRadarStaysUnmatched(t *testing.T) {
	// Offset 3 nm: outside even the largest (half-box 2.0) pass. The
	// aircraft must keep its expected position.
	w := spreadWorld(1, 5)
	a0 := w.Aircraft[0]
	f := &radar.Frame{Reports: []radar.Report{{RX: a0.X + 3, RY: a0.Y, MatchWith: radar.Unmatched}}}
	st := Correlate(w, f)
	if st.Matched != 0 || st.UnmatchedRadars != 1 {
		t.Fatalf("stats = %+v, want 0 matched / 1 unmatched", st)
	}
	if w.Aircraft[0].X != a0.X+a0.DX || w.Aircraft[0].Y != a0.Y+a0.DY {
		t.Fatal("unmatched aircraft must keep its expected position")
	}
}

func TestCorrelateDiscardsAmbiguousRadar(t *testing.T) {
	// Two aircraft 0.2 nm apart; a single radar between them correlates
	// with both, so Algorithm 1 discards the radar and both aircraft
	// keep their expected positions.
	w := spreadWorld(2, 100)
	w.Aircraft[1].X = w.Aircraft[0].X + 0.2
	w.Aircraft[1].Y = w.Aircraft[0].Y
	f := &radar.Frame{Reports: []radar.Report{
		{RX: w.Aircraft[0].X + 0.1, RY: w.Aircraft[0].Y, MatchWith: radar.Unmatched},
	}}
	st := Correlate(w, f)
	if st.DiscardedRadars != 1 {
		t.Fatalf("DiscardedRadars = %d, want 1 (stats %+v)", st.DiscardedRadars, st)
	}
	if f.Reports[0].MatchWith != radar.Discarded {
		t.Fatalf("radar MatchWith = %d, want Discarded", f.Reports[0].MatchWith)
	}
	if st.Matched != 0 {
		t.Fatalf("Matched = %d, want 0", st.Matched)
	}
}

func TestCorrelateWithdrawsAmbiguousAircraft(t *testing.T) {
	// One aircraft with two radars in its box: the aircraft is withdrawn
	// (RMatch = -1) and keeps its expected position. Use distinct boxes
	// so the radars don't also double-match.
	w := spreadWorld(1, 100)
	a := &w.Aircraft[0]
	f := &radar.Frame{Reports: []radar.Report{
		{RX: a.X + 0.1, RY: a.Y, MatchWith: radar.Unmatched},
		{RX: a.X - 0.1, RY: a.Y, MatchWith: radar.Unmatched},
	}}
	st := Correlate(w, f)
	if st.WithdrawnAircraft != 1 {
		t.Fatalf("WithdrawnAircraft = %d, want 1 (stats %+v)", st.WithdrawnAircraft, st)
	}
	if w.Aircraft[0].RMatch != airspace.MatchDiscarded {
		t.Fatalf("RMatch = %d, want MatchDiscarded", w.Aircraft[0].RMatch)
	}
	if st.Matched != 0 {
		t.Fatalf("Matched = %d, want 0", st.Matched)
	}
	if w.Aircraft[0].X != a.ExpX || w.Aircraft[0].Y != a.ExpY {
		t.Fatal("withdrawn aircraft must keep its expected position")
	}
}

func TestCorrelateAppliesWrap(t *testing.T) {
	// An aircraft crossing the field edge this period must re-enter at
	// the negated position after commit.
	w := spreadWorld(1, 5)
	a := &w.Aircraft[0]
	a.X = airspace.FieldHalf - 0.001
	a.Y = 40
	a.DX = 0.05
	f := &radar.Frame{Reports: []radar.Report{{RX: a.X + a.DX, RY: a.Y, MatchWith: radar.Unmatched}}}
	Correlate(w, f)
	if w.Aircraft[0].X > 0 {
		t.Fatalf("aircraft did not wrap: x = %v", w.Aircraft[0].X)
	}
}

func TestCorrelateNPanicsOnZeroPasses(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("CorrelateN(0 passes) did not panic")
		}
	}()
	w := spreadWorld(1, 5)
	CorrelateN(w, &radar.Frame{}, 0)
}

func TestCorrelateFullPipelineRealisticTraffic(t *testing.T) {
	// End-to-end sanity on random traffic with the default noise: the
	// overwhelming majority of aircraft must correlate every period.
	w := airspace.NewWorld(2000, rng.New(42))
	r := rng.New(43)
	for period := 0; period < 8; period++ {
		f := radar.Generate(w, radar.DefaultNoise, r)
		st := Correlate(w, f)
		if st.Matched < w.N()*95/100 {
			t.Fatalf("period %d: only %d of %d matched (%+v)", period, st.Matched, w.N(), st)
		}
	}
}

func TestPairConflictHeadOn(t *testing.T) {
	trial := &airspace.Aircraft{ID: 1, X: 10, Y: 0, DX: -0.05, DY: 0, Alt: 10000}
	// Track at origin flying +x at 0.05 nm/period; closing speed 0.1.
	// |d|=10, sep=3 -> window (70, 130).
	tmin, tmax, ok := PairConflict(0, 0, 0.05, 0, trial)
	if !ok {
		t.Fatal("head-on pair not detected")
	}
	if math.Abs(tmin-70) > 1e-9 || math.Abs(tmax-130) > 1e-9 {
		t.Fatalf("window = (%v,%v), want (70,130)", tmin, tmax)
	}
}

func TestPairConflictParallelSafe(t *testing.T) {
	trial := &airspace.Aircraft{ID: 1, X: 50, Y: 0, DX: 0.05, DY: 0, Alt: 10000}
	if _, _, ok := PairConflict(0, 0, 0.05, 0, trial); ok {
		t.Fatal("parallel distant pair reported as conflict")
	}
}

func TestPairConflictBeyondHorizon(t *testing.T) {
	// Closing at 0.001 nm/period from 100 nm away: conflict at t=97000,
	// far beyond the 2400-period horizon.
	trial := &airspace.Aircraft{ID: 1, X: 100, Y: 0, DX: -0.001, DY: 0, Alt: 10000}
	if _, _, ok := PairConflict(0, 0, 0, 0, trial); ok {
		t.Fatal("conflict beyond the 20-minute horizon must be ignored")
	}
}

func TestPairConflictAlreadyOverlapping(t *testing.T) {
	// Aircraft currently within the bands: window must start at 0.
	trial := &airspace.Aircraft{ID: 1, X: 1, Y: 1, DX: 0.01, DY: 0, Alt: 10000}
	tmin, _, ok := PairConflict(0, 0, 0, 0, trial)
	if !ok || tmin != 0 {
		t.Fatalf("overlapping pair: tmin=%v ok=%v, want 0,true", tmin, ok)
	}
}

// Property: the analytic conflict test agrees with trajectory sampling.
func TestPairConflictMatchesBruteForce(t *testing.T) {
	r := rng.New(77)
	const dt = 0.5
	for i := 0; i < 3000; i++ {
		tx, ty := r.Range(-50, 50), r.Range(-50, 50)
		tvx, tvy := r.Range(-0.08, 0.08), r.Range(-0.08, 0.08)
		trial := &airspace.Aircraft{
			ID: 1, X: r.Range(-50, 50), Y: r.Range(-50, 50),
			DX: r.Range(-0.08, 0.08), DY: r.Range(-0.08, 0.08), Alt: 10000,
		}
		tmin, tmax, ok := PairConflict(tx, ty, tvx, tvy, trial)
		first, bf := BruteForceConflict(tx, ty, tvx, tvy, trial, dt)
		if bf {
			if !ok {
				t.Fatalf("case %d: sampling finds conflict at t=%v, analytic does not", i, first)
			}
			if first < tmin-dt || first > tmax+dt {
				t.Fatalf("case %d: sampled first conflict %v outside analytic window (%v,%v)", i, first, tmin, tmax)
			}
		} else if ok && tmax-tmin > 2*dt && tmax < airspace.HorizonPeriods {
			t.Fatalf("case %d: analytic window (%v,%v) wide but sampling found nothing", i, tmin, tmax)
		}
	}
}

// headOnWorld builds a world with one head-on pair separated by gap nm
// (conflict window starts at (gap-3)/0.1 periods) plus optional
// bystanders far away. A gap of 10 puts the conflict 70 periods out —
// critical but too close to resolve with a <=30° turn (the lateral
// displacement a 30° turn buys by t=70 is under the 3 nm band); a gap of
// 30 puts it 270 periods out, where a 15° turn resolves it.
func headOnWorld(gap float64, bystanders int) *airspace.World {
	w := spreadWorld(2+bystanders, 40)
	a := &w.Aircraft[0]
	b := &w.Aircraft[1]
	a.X, a.Y, a.DX, a.DY, a.Alt = 0, 0, 0.05, 0, 10000
	b.X, b.Y, b.DX, b.DY, b.Alt = gap, 0, -0.05, 0, 10000
	for i := 2; i < w.N(); i++ {
		c := &w.Aircraft[i]
		c.X = 1000 // outside the field, but fine for pure detection tests
		c.Y = 1000
		c.Alt = 30000
	}
	for i := range w.Aircraft {
		w.Aircraft[i].ResetConflict()
	}
	return w
}

func TestDetectMarksBothAircraft(t *testing.T) {
	w := headOnWorld(10, 0)
	st := Detect(w)
	if st.Conflicts == 0 {
		t.Fatal("head-on pair not detected")
	}
	a, b := &w.Aircraft[0], &w.Aircraft[1]
	if !a.Col || !b.Col {
		t.Fatalf("col flags: a=%v b=%v, want both true", a.Col, b.Col)
	}
	if a.ColWith != 1 || b.ColWith != 0 {
		t.Fatalf("colWith: a=%d b=%d", a.ColWith, b.ColWith)
	}
	if math.Abs(a.TimeTill-70) > 1e-9 {
		t.Fatalf("TimeTill = %v, want 70", a.TimeTill)
	}
}

func TestDetectAltitudeFilter(t *testing.T) {
	w := headOnWorld(10, 0)
	w.Aircraft[1].Alt = w.Aircraft[0].Alt + 5000 // vertically separated
	st := Detect(w)
	if st.Conflicts != 0 {
		t.Fatalf("vertically separated pair detected as conflict: %+v", st)
	}
}

func TestDetectNoFalsePositives(t *testing.T) {
	// Widely spread grid, everyone flying the same direction: no
	// conflicts possible.
	w := spreadWorld(100, 20)
	for i := range w.Aircraft {
		w.Aircraft[i].DX = 0.05
	}
	st := Detect(w)
	if st.Conflicts != 0 {
		t.Fatalf("conflicts on parallel traffic: %+v", st)
	}
}

func TestDetectResolveResolvesHeadOn(t *testing.T) {
	w := headOnWorld(30, 0)
	st := DetectResolve(w)
	if st.Conflicts == 0 {
		t.Fatal("no conflict detected before resolution")
	}
	if st.Resolved == 0 {
		t.Fatalf("head-on conflict not resolved: %+v", st)
	}
	// After resolution the world must be free of critical conflicts.
	check := Detect(w)
	if check.Conflicts != 0 {
		t.Fatalf("critical conflicts remain after resolution: %+v", check)
	}
}

func TestResolvePreservesSpeed(t *testing.T) {
	w := headOnWorld(30, 0)
	before := make([]float64, w.N())
	for i := range w.Aircraft {
		before[i] = w.Aircraft[i].SpeedKnots()
	}
	DetectResolve(w)
	for i := range w.Aircraft {
		if math.Abs(w.Aircraft[i].SpeedKnots()-before[i]) > 1e-6 {
			t.Fatalf("aircraft %d speed changed: %v -> %v", i, before[i], w.Aircraft[i].SpeedKnots())
		}
	}
}

func TestResolveLeavesPositionsAlone(t *testing.T) {
	w := headOnWorld(30, 3)
	type pos struct{ x, y float64 }
	before := make([]pos, w.N())
	for i, a := range w.Aircraft {
		before[i] = pos{a.X, a.Y}
	}
	DetectResolve(w)
	for i, a := range w.Aircraft {
		if before[i] != (pos{a.X, a.Y}) {
			t.Fatalf("aircraft %d moved during detect/resolve", i)
		}
	}
}

func TestDetectResolveIsDeterministic(t *testing.T) {
	w1 := airspace.NewWorld(300, rng.New(5))
	w2 := w1.Clone()
	st1 := DetectResolve(w1)
	st2 := DetectResolve(w2)
	if st1 != st2 {
		t.Fatalf("stats differ: %+v vs %+v", st1, st2)
	}
	for i := range w1.Aircraft {
		if w1.Aircraft[i] != w2.Aircraft[i] {
			t.Fatalf("aircraft %d differs after identical runs", i)
		}
	}
}

func TestRotationSchedule(t *testing.T) {
	want := []float64{5, -5, 10, -10, 15, -15, 20, -20, 25, -25, 30, -30}
	got := rotationSchedule
	if len(got) != len(want) {
		t.Fatalf("schedule = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("schedule[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDetectResolveRandomTrafficInvariant(t *testing.T) {
	// On dense random traffic: every aircraft the resolver leaves
	// unresolved must still carry its collision flags; every aircraft it
	// resolved must be conflict-free on a fresh detection of itself.
	w := airspace.NewWorld(500, rng.New(99))
	st := DetectResolve(w)
	if st.PairChecks == 0 {
		t.Fatal("no pair checks on 500 aircraft")
	}
	// Conflicts and resolutions must be consistent.
	if st.Resolved+st.Unresolved != st.Conflicts {
		t.Fatalf("resolved(%d) + unresolved(%d) != conflicts(%d)",
			st.Resolved, st.Unresolved, st.Conflicts)
	}
}

func TestAltitudeResolveSeparatesPair(t *testing.T) {
	// A head-on pair too close to resolve by turning (gap 10 -> conflict
	// at t=70, inside the band a 30° turn cannot clear).
	w := headOnWorld(10, 0)
	st := DetectResolve(w)
	if st.Unresolved == 0 {
		t.Fatalf("expected unresolved conflicts, got %+v", st)
	}
	changed := AltitudeResolve(w)
	if changed == 0 {
		t.Fatal("AltitudeResolve changed nothing")
	}
	if math.Abs(w.Aircraft[0].Alt-w.Aircraft[1].Alt) < airspace.AltBandFeet {
		t.Fatalf("pair still vertically overlapping: %v vs %v",
			w.Aircraft[0].Alt, w.Aircraft[1].Alt)
	}
	if check := Detect(w); check.Conflicts != 0 {
		t.Fatalf("conflicts remain after altitude resolution: %+v", check)
	}
}

func TestAltitudeResolveNoopsOnCleanWorld(t *testing.T) {
	w := spreadWorld(50, 20)
	if changed := AltitudeResolve(w); changed != 0 {
		t.Fatalf("AltitudeResolve changed %d aircraft in a conflict-free world", changed)
	}
}

func TestAltitudeResolveRespectsLimits(t *testing.T) {
	// A conflicting pair at the altitude ceiling: the climber must flip
	// direction rather than exceed AltMax.
	w := headOnWorld(10, 0)
	w.Aircraft[0].Alt = airspace.AltMax - 100
	w.Aircraft[1].Alt = airspace.AltMax - 200
	DetectResolve(w)
	AltitudeResolve(w)
	for i := range w.Aircraft {
		if w.Aircraft[i].Alt > airspace.AltMax || w.Aircraft[i].Alt < airspace.AltMin {
			t.Fatalf("aircraft %d altitude %v outside limits", i, w.Aircraft[i].Alt)
		}
	}
	if math.Abs(w.Aircraft[0].Alt-w.Aircraft[1].Alt) < airspace.AltBandFeet {
		t.Fatal("pair not vertically separated at the ceiling")
	}
}

func TestAltitudeResolveStorm(t *testing.T) {
	// Rings of aircraft all converging on the origin: unresolvable by
	// turning, fully resolvable by altitude layering.
	const n = 120
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	const speed = 300.0 / airspace.PeriodsPerHour
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.ID = int32(i)
		theta := float64(i%60) / 60 * 2 * math.Pi
		radius := 30 + float64(1+i/60)*12
		a.X = radius * math.Cos(theta)
		a.Y = radius * math.Sin(theta)
		a.DX = -speed * math.Cos(theta)
		a.DY = -speed * math.Sin(theta)
		a.Alt = 15000
		a.ResetConflict()
	}
	before := Detect(w.Clone())
	if before.Conflicts == 0 {
		t.Fatal("storm produced no conflicts")
	}
	DetectResolve(w)
	AltitudeResolve(w)
	after := Detect(w.Clone())
	if after.Conflicts >= before.Conflicts/4 {
		t.Fatalf("altitude layering barely helped: %d -> %d conflicts",
			before.Conflicts, after.Conflicts)
	}
}

func TestPriorityListOrdering(t *testing.T) {
	w := spreadWorld(6, 50)
	// Conflicts with distinct urgencies plus a tie.
	w.Aircraft[1].Col, w.Aircraft[1].TimeTill = true, 200
	w.Aircraft[3].Col, w.Aircraft[3].TimeTill = true, 50
	w.Aircraft[4].Col, w.Aircraft[4].TimeTill = true, 200
	got := PriorityList(w)
	want := []int32{3, 1, 4} // urgency first, ties by ID
	if len(got) != len(want) {
		t.Fatalf("list = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("list = %v, want %v", got, want)
		}
	}
}

func TestPriorityListEmpty(t *testing.T) {
	w := spreadWorld(10, 50)
	if got := PriorityList(w); len(got) != 0 {
		t.Fatalf("calm world produced list %v", got)
	}
}
