// Package airspace models the simulated airfield of the paper: a
// 256 x 256 nautical-mile bounding area with thousands of constantly
// moving aircraft at varying altitudes. It owns the aircraft flight
// record (the "drone" struct the CUDA program keeps in global memory),
// random flight setup per Section 4.1 of the paper, and the (-x, -y)
// re-entry rule for aircraft that leave the field.
package airspace

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/rng"
)

// Physical and scheduling constants from the paper.
const (
	// FieldHalf is half the airfield edge: the field spans
	// [-FieldHalf, +FieldHalf] in both coordinates (256 nm x 256 nm).
	FieldHalf = 128.0

	// SetupHalf bounds the initial positions: Section 4.1 creates
	// aircraft satisfying -125 <= x, y <= 125.
	SetupHalf = 125.0

	// PeriodSeconds is the length of one scheduling period. Task 1 runs
	// every period; Tasks 2-3 run once per 16-period major cycle.
	PeriodSeconds = 0.5

	// PeriodsPerMajorCycle is the number of half-second periods in the
	// 8-second major cycle.
	PeriodsPerMajorCycle = 16

	// PeriodsPerHour converts a velocity in nautical miles per hour to
	// nautical miles per period (the paper divides dx and dy by 7200).
	PeriodsPerHour = 7200.0

	// SpeedMin and SpeedMax bound the random aircraft speed S in knots.
	SpeedMin = 30.0
	SpeedMax = 600.0

	// AltMin and AltMax bound the random cruise altitude in feet.
	AltMin = 1000.0
	AltMax = 40000.0

	// HorizonPeriods is the collision-detection look-ahead: 20 minutes
	// expressed in half-second periods.
	HorizonPeriods = 20 * 60 / PeriodSeconds // 2400

	// CriticalTime is the paper's conflict urgency threshold: a detected
	// conflict with time_min below this value (in periods) triggers
	// collision resolution. 300 periods = 2.5 minutes.
	CriticalTime = 300.0

	// SafeTime is the value time_till is reset to when no critical
	// conflict is pending ("300 is considered a safe number").
	SafeTime = 300.0

	// SepTotal is the total bounding separation used by Equations 1-4:
	// a 1.5 nm error band added to each of the two aircraft.
	SepTotal = 3.0

	// AltBandFeet is the vertical filter of Algorithm 2: only pairs
	// "within 1000 feet of each other" are checked for conflicts.
	AltBandFeet = 1000.0
)

// Match states for Aircraft.RMatch during Task 1.
const (
	// MatchNone means no radar has correlated with the aircraft yet.
	MatchNone int8 = 0
	// MatchOne means exactly one radar has correlated with the aircraft.
	MatchOne int8 = 1
	// MatchDiscarded means multiple radars correlated with the aircraft,
	// which withdraws it from correlation: it keeps its expected position.
	MatchDiscarded int8 = -1
)

// NoConflict is the ColWith value of an aircraft with no pending
// collision partner.
const NoConflict int32 = -1

// Aircraft is one flight record — the fields of the paper's "drone"
// global-memory struct (Section 5).
type Aircraft struct {
	// ID is the aircraft's index; thread i handles aircraft i.
	ID int32

	// X, Y is the current position in nautical miles.
	X, Y float64
	// DX, DY is the velocity in nautical miles per period.
	DX, DY float64
	// Alt is the altitude in feet.
	Alt float64

	// BatX, BatY hold the trial-path velocity proposed by collision
	// resolution (named after Batcher's algorithm, as in the paper).
	BatX, BatY float64

	// Col records whether a collision is anticipated.
	Col bool
	// TimeTill is the time (in periods) until the earliest detected
	// critical conflict; SafeTime when none is pending.
	TimeTill float64
	// ColWith is the ID of the conflicting aircraft, or NoConflict.
	ColWith int32

	// RMatch is the Task 1 correlation state (MatchNone / MatchOne /
	// MatchDiscarded).
	RMatch int8

	// ExpX, ExpY is the expected position computed at the start of the
	// current period: (X + DX, Y + DY).
	ExpX, ExpY float64
}

// Pos returns the aircraft's current position.
func (a *Aircraft) Pos() geom.Vec2 { return geom.Vec2{X: a.X, Y: a.Y} }

// SpeedKnots returns the aircraft's ground speed in nautical miles per
// hour.
func (a *Aircraft) SpeedKnots() float64 {
	return math.Hypot(a.DX, a.DY) * PeriodsPerHour
}

// ResetConflict clears the collision-detection state to the "no pending
// conflict" defaults used at the start of each Task 2 run.
func (a *Aircraft) ResetConflict() {
	a.Col = false
	a.TimeTill = SafeTime
	a.ColWith = NoConflict
	a.BatX = a.DX
	a.BatY = a.DY
}

// World is the simulated airfield: the dynamic database of aircraft
// records that Task 1 updates every half-second.
type World struct {
	Aircraft []Aircraft
}

// NewWorld creates a world of n aircraft initialized by SetupFlight
// draws from r. It panics if n < 0.
func NewWorld(n int, r *rng.Rand) *World {
	if n < 0 {
		panic(fmt.Sprintf("airspace: NewWorld with negative n %d", n))
	}
	w := &World{Aircraft: make([]Aircraft, n)}
	for i := range w.Aircraft {
		SetupFlight(&w.Aircraft[i], int32(i), r)
	}
	return w
}

// N returns the number of aircraft being tracked.
func (w *World) N() int { return len(w.Aircraft) }

// Clone returns a deep copy of the world, used to run the same traffic
// snapshot through multiple platforms.
func (w *World) Clone() *World {
	c := &World{Aircraft: make([]Aircraft, len(w.Aircraft))}
	copy(c.Aircraft, w.Aircraft)
	return c
}

// CloneInto copies w into dst, reusing dst's aircraft array when it is
// large enough — the allocation-free restore used by harnesses that
// replay the same initial world many times.
func (w *World) CloneInto(dst *World) {
	if cap(dst.Aircraft) < len(w.Aircraft) {
		dst.Aircraft = make([]Aircraft, len(w.Aircraft))
	}
	dst.Aircraft = dst.Aircraft[:len(w.Aircraft)]
	copy(dst.Aircraft, w.Aircraft)
}

// SetupFlight initializes one aircraft following Section 4.1:
// position components drawn in [0, SetupHalf] with random signs, speed
// S in [SpeedMin, SpeedMax] knots, |dx| drawn in [SpeedMin, S] with
// dy = sqrt(S^2 - dx^2), random signs for both velocity components, and
// a random altitude. Velocities are converted from nm/hour to nm/period.
//
// The paper fixes the component signs by testing the parity of a random
// integer in [0, 50]; that is an even/odd coin flip, which Sign models
// directly.
func SetupFlight(a *Aircraft, id int32, r *rng.Rand) {
	a.ID = id
	a.X = r.Range(0, SetupHalf) * r.Sign()
	a.Y = r.Range(0, SetupHalf) * r.Sign()
	a.Alt = r.Range(AltMin, AltMax)

	s := r.Range(SpeedMin, SpeedMax)
	dx := r.Range(SpeedMin, s) // nm per hour along x; SpeedMin <= s
	dy := math.Sqrt(s*s - dx*dx)
	a.DX = dx * r.Sign() / PeriodsPerHour
	a.DY = dy * r.Sign() / PeriodsPerHour

	a.ExpX, a.ExpY = a.X, a.Y
	a.RMatch = MatchNone
	a.ResetConflict()
}

// AltOverlap reports whether two altitudes are within AltBandFeet of
// each other, Algorithm 2's vertical filter: only such pairs are checked
// for conflicts. A NaN altitude overlaps nothing. The pair scan and the
// broad phase's candidate table both apply this one expression, so they
// agree on every pair.
//
//atm:inline
func AltOverlap(a, b float64) bool {
	return math.Abs(a-b) < AltBandFeet
}

// InField reports whether position (x, y) lies inside the monitored
// airfield.
func InField(x, y float64) bool {
	return x >= -FieldHalf && x <= FieldHalf && y >= -FieldHalf && y <= FieldHalf
}

// Wrap applies the paper's re-entry rule to one aircraft: when an
// aircraft exits the grid at (x, y), an aircraft with the same speed and
// direction re-enters at (-x, -y).
func Wrap(a *Aircraft) {
	if !InField(a.X, a.Y) {
		a.X, a.Y = -a.X, -a.Y
	}
}

// WrapAll applies Wrap to every aircraft. Task 1 calls this after
// committing radar positions.
func (w *World) WrapAll() {
	for i := range w.Aircraft {
		Wrap(&w.Aircraft[i])
	}
}
