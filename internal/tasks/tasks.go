// Package tasks contains the architecture-neutral reference
// implementations of the paper's three compute-intensive ATM tasks:
//
//	Task 1 — Tracking and Correlation (Algorithm 1),
//	Task 2 — Collision Detection (Algorithm 2, Equations 1-6), and
//	Task 3 — Collision Resolution (Algorithm 2, rotation search).
//
// Every platform simulator (CUDA, associative processor, multicore)
// implements the same algorithms with its own execution model; this
// package is the ground truth they are tested against, and it supplies
// the shared pairwise conflict math so that all platforms agree
// bit-for-bit on what a conflict is.
//
// Task 1 has one host body (parallel.go): the bounding-box search of
// each pass fanned out per radar, then a serial replay of Algorithm 1's
// matching in radar order, identical at any worker count; the tests
// hold it to a scalar fold of Algorithm 1. Tasks 2-3 have one runner
// for every pair source (batch.go): a column snapshot of the world
// scanned by a batched pair kernel, with candidates from the source's
// broadphase.View or, with no source, every aircraft. It runs the serial in-place Algorithm 2 at
// one worker and a parallel snapshot scan plus serial replay above
// that, identical at any worker count; the tests hold it to a scalar
// fold of Algorithm 2 over the aircraft records.
package tasks

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/radar"
)

// BoxPasses is the number of correlation passes of Algorithm 1: the
// initial 1x1 nm bounding box plus two box doublings.
const BoxPasses = 3

// InitialBoxHalf is the half-width of the first-pass bounding box: the
// paper checks aircraft.x-0.5 < radar.x < aircraft.x+0.5 (a 1x1 nm box).
const InitialBoxHalf = 0.5

// MaxResolutionDeg is the largest heading change collision resolution
// will try ("incrementing the angle by 5 degrees each time, to a maximum
// of 30").
const MaxResolutionDeg = 30.0

// ResolutionStepDeg is the heading-change increment.
const ResolutionStepDeg = 5.0

// CorrelateStats reports what Task 1 did, for assertions and for the
// platform cost models.
type CorrelateStats struct {
	// Matched is the number of aircraft whose position was updated from
	// a radar report.
	Matched int
	// DiscardedRadars is the number of reports dropped because more than
	// one aircraft correlated with them (MatchWith = -2).
	DiscardedRadars int
	// WithdrawnAircraft is the number of aircraft withdrawn because more
	// than one radar correlated with them (RMatch = -1).
	WithdrawnAircraft int
	// UnmatchedRadars is the number of reports that never correlated.
	UnmatchedRadars int
	// Comparisons counts radar-vs-aircraft bounding-box tests across all
	// passes (the dominant cost of Task 1).
	Comparisons int
	// PassRadars[k] is the number of still-unmatched radars entering
	// pass k.
	PassRadars [BoxPasses]int
}

// Correlate runs Task 1 on the world against one radar frame: it
// computes expected positions, runs the multi-pass bounding-box
// correlation of Algorithm 1, commits matched radar positions (aircraft
// without a valid match keep their expected position), and applies the
// field re-entry rule. The frame's MatchWith fields are updated in
// place.
func Correlate(w *airspace.World, f *radar.Frame) CorrelateStats {
	return CorrelateNExec(w, f, BoxPasses, nil)
}

// CorrelateN is Correlate with a configurable number of bounding-box
// passes (1 to say "no doubling"), used by the A-BOX ablation. passes
// must be >= 1; each pass doubles the previous box.
func CorrelateN(w *airspace.World, f *radar.Frame, passes int) CorrelateStats {
	return CorrelateNExec(w, f, passes, nil)
}

// releaseRadarOf returns the radar currently matched to aircraft id to
// the Unmatched state so a later pass may re-correlate it.
func releaseRadarOf(f *radar.Frame, id int32) {
	for j := range f.Reports {
		if f.Reports[j].MatchWith == id {
			f.Reports[j].MatchWith = radar.Unmatched
			return
		}
	}
}

// inBox reports whether the radar lies strictly inside the boxHalf-sized
// bounding box around the aircraft's expected position.
//
//atm:inline
func inBox(rep *radar.Report, a *airspace.Aircraft, boxHalf float64) bool {
	return rep.RX > a.ExpX-boxHalf && rep.RX < a.ExpX+boxHalf &&
		rep.RY > a.ExpY-boxHalf && rep.RY < a.ExpY+boxHalf
}

// PairConflict evaluates Equations 1-6 for one (track, trial) pair. The
// track aircraft flies from (tx, ty) with velocity (tvx, tvy) — passed
// explicitly because collision resolution probes rotated trial
// velocities — while the trial aircraft flies its recorded course. It
// returns the conflict window (timeMin, timeMax) in periods clipped to
// [0, HorizonPeriods], and whether the pair is on a collision course
// within the horizon (timeMin < timeMax).
func PairConflict(tx, ty, tvx, tvy float64, trial *airspace.Aircraft) (timeMin, timeMax float64, conflict bool) {
	return PairConflictAt(tx, ty, tvx, tvy, trial.X, trial.Y, trial.DX, trial.DY)
}

// PairConflictAt is PairConflict with the trial aircraft's state passed
// as scalars, for callers that hold the world in column (SoA) form and
// have no Aircraft record to take the address of. The arithmetic is the
// same expression on the same values, so the result is bit-identical to
// PairConflict on the corresponding record.
func PairConflictAt(tx, ty, tvx, tvy, px, py, pvx, pvy float64) (timeMin, timeMax float64, conflict bool) {
	wx, openX := geom.AxisConflictWindow(tx, tvx, px, pvx, airspace.SepTotal)
	if !openX && wx.Empty() {
		return 0, 0, false
	}
	wy, openY := geom.AxisConflictWindow(ty, tvy, py, pvy, airspace.SepTotal)
	if !openY && wy.Empty() {
		return 0, 0, false
	}
	win := wx.Intersect(wy)
	// Clip to the 20-minute look-ahead: the kernel "projects the
	// aircraft location 20 minutes ahead".
	win = win.Intersect(geom.Interval{Lo: 0, Hi: airspace.HorizonPeriods})
	if win.Empty() {
		return 0, 0, false
	}
	return win.Lo, win.Hi, true
}

// AltOverlap reports whether two aircraft are within the vertical
// separation band that makes a horizontal conflict meaningful.
//
//atm:inline
func AltOverlap(a, b *airspace.Aircraft) bool {
	return AltOverlapAt(a.Alt, b.Alt)
}

// AltOverlapAt is AltOverlap on scalar altitudes, for column-form
// callers. Same expression, bit-identical result.
//
//atm:inline
func AltOverlapAt(a, b float64) bool {
	return math.Abs(a-b) < airspace.AltBandFeet
}

// DetectStats reports what Tasks 2-3 did.
type DetectStats struct {
	// Conflicts is the number of aircraft that detected a critical
	// conflict (time_min < CriticalTime) on their committed course.
	Conflicts int
	// Rotations is the total number of trial headings evaluated by
	// collision resolution across all aircraft.
	Rotations int
	// Resolved is the number of aircraft that found a conflict-free
	// trial heading and committed it.
	Resolved int
	// Unresolved is the number of aircraft still in critical conflict
	// after exhausting ±30 degrees.
	Unresolved int
	// PairChecks counts track-vs-trial conflict evaluations (the
	// dominant cost of Tasks 2-3).
	PairChecks int
}

// DetectResolve runs Tasks 2 and 3 for every aircraft, mirroring the
// paper's combined CheckCollisionPath kernel: detect the earliest
// critical conflict on the committed course; if one exists, probe
// headings rotated by ±5°, ±10°, ... ±30° until a heading with no
// critical conflict is found, then commit it and clear the collision
// flags. Aircraft that exhaust every heading keep their course with the
// collision flags set (the paper resolves such leftovers by altitude
// changes, outside these tasks).
func DetectResolve(w *airspace.World) DetectStats {
	return DetectResolveExec(w, nil, nil)
}

// DetectResolveWith is DetectResolve with an optional broadphase pair
// source pruning the pair enumeration (nil means the all-pairs scan).
// Because every source's candidate sets are exact supersets, the result
// is identical for any source.
func DetectResolveWith(w *airspace.World, src broadphase.PairSource) DetectStats {
	return DetectResolveExec(w, src, nil)
}

// Detect runs Task 2 only (no resolution), used by the split-kernel
// ablation. It marks Col/TimeTill/ColWith on each aircraft with a
// critical conflict.
func Detect(w *airspace.World) DetectStats {
	return DetectExec(w, nil, nil)
}

// DetectWith is Detect with an optional broadphase pair source (nil
// means the all-pairs scan).
func DetectWith(w *airspace.World, src broadphase.PairSource) DetectStats {
	return DetectExec(w, src, nil)
}

// MarkConflict records a critical conflict on the track aircraft and
// mirrors it onto the trial aircraft, as Algorithm 2 line 9 sets col and
// colWith "for both trial and track aircrafts". It is shared by the
// platform implementations whose control flow is sequential (the
// associative and multicore machines).
func MarkConflict(w *airspace.World, track *airspace.Aircraft, with int32, tmin float64) {
	track.Col = true
	track.ColWith = with
	if tmin < track.TimeTill {
		track.TimeTill = tmin
	}
	if with != airspace.NoConflict {
		other := &w.Aircraft[with]
		other.Col = true
		other.ColWith = track.ID
		if tmin < other.TimeTill {
			other.TimeTill = tmin
		}
	}
}

// RotationSchedule returns the trial heading offsets of Task 3 in the
// order the paper probes them: alternating sign, growing magnitude
// (+5, -5, +10, -10, ... +30, -30 degrees).
func RotationSchedule() []float64 {
	var degs []float64
	for mag := ResolutionStepDeg; mag <= MaxResolutionDeg; mag += ResolutionStepDeg {
		degs = append(degs, mag, -mag)
	}
	return degs
}

// AltitudeResolve is the paper's fallback for conflicts that survive
// the ±30° rotation search: "any left unresolved ... that were urgent
// would be avoided by changing the altitude of the aircrafts". For each
// still-conflicting pair, the lower-ID aircraft climbs and its partner
// descends by just over the vertical separation band, clamped to the
// airspace altitude limits (with the direction flipped at a limit so
// separation is still achieved). It returns the number of aircraft
// whose altitude changed.
func AltitudeResolve(w *airspace.World) int {
	const step = airspace.AltBandFeet + 100
	changed := 0
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		if !a.Col || a.ColWith == airspace.NoConflict {
			continue
		}
		// Handle each pair once, from its lower-ID member.
		if a.ColWith >= 0 && a.ColWith < int32(len(w.Aircraft)) && a.ID > a.ColWith {
			continue
		}
		up, down := step, -step
		if a.Alt+up > airspace.AltMax {
			up = -step
			down = step
		}
		a.Alt = clampAlt(a.Alt + up)
		a.Col = false
		a.TimeTill = airspace.SafeTime
		changed++
		if a.ColWith >= 0 && a.ColWith < int32(len(w.Aircraft)) {
			b := &w.Aircraft[a.ColWith]
			b.Alt = clampAlt(b.Alt + down)
			b.Col = false
			b.TimeTill = airspace.SafeTime
			changed++
			b.ColWith = airspace.NoConflict
		}
		a.ColWith = airspace.NoConflict
	}
	return changed
}

func clampAlt(alt float64) float64 {
	if alt < airspace.AltMin {
		return airspace.AltMin
	}
	if alt > airspace.AltMax {
		return airspace.AltMax
	}
	return alt
}

// AlphaBetaSmooth updates velocity estimates from the period's radar
// residuals — the velocity half of the alpha-beta tracker the STARAN
// ATM software used [13]. The paper's simplified Task 1 takes the radar
// position as exact (the alpha = 1 case) but never corrects velocity,
// so an aircraft whose true course changed (wind, a real-world turn)
// drifts until correlation fails. Called after Correlate, this folds
// beta times the position residual (actual fix minus expected position,
// i.e. the dead-reckoning error) into the velocity estimate of every
// radar-matched aircraft. It returns the number of aircraft updated.
//
// beta must lie in [0, 1]: 0 disables smoothing, small values (0.1-0.3)
// give the classic critically-damped tracker.
func AlphaBetaSmooth(w *airspace.World, beta float64) int {
	if beta < 0 || beta > 1 {
		panic(fmt.Sprintf("tasks: AlphaBetaSmooth beta %v outside [0,1]", beta))
	}
	updated := 0
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		if a.RMatch != airspace.MatchOne {
			continue
		}
		// After commit, X/Y is the radar fix and ExpX/ExpY the
		// dead-reckoned prediction; their difference is the residual per
		// period. A wrapped aircraft's residual is meaningless, skip it.
		rx := a.X - a.ExpX
		ry := a.Y - a.ExpY
		if rx > airspace.FieldHalf || rx < -airspace.FieldHalf ||
			ry > airspace.FieldHalf || ry < -airspace.FieldHalf {
			continue
		}
		a.DX += beta * rx
		a.DY += beta * ry
		updated++
	}
	return updated
}

// PriorityList is the sequential reference for the controller-display
// task: the IDs of all conflicting aircraft ordered by TimeTill
// ascending (most urgent first), ties broken by aircraft ID. The
// platform implementations (cuda.ConflictPriority via Batcher's bitonic
// network, ap.PriorityProgram via min-reduce/step) must agree with it
// exactly.
func PriorityList(w *airspace.World) []int32 {
	var ids []int32
	for i := range w.Aircraft {
		if w.Aircraft[i].Col {
			ids = append(ids, w.Aircraft[i].ID)
		}
	}
	sort.Slice(ids, func(a, b int) bool {
		ta := w.Aircraft[ids[a]].TimeTill
		tb := w.Aircraft[ids[b]].TimeTill
		if ta != tb {
			return ta < tb
		}
		return ids[a] < ids[b]
	})
	return ids
}

// BruteForceConflict is a trajectory-sampling oracle used by tests: it
// steps both aircraft along straight-line courses and reports whether
// their x and y separations are simultaneously below the safe bound at
// any sampled instant within the horizon, and the first such instant.
// dt is the sampling step in periods.
func BruteForceConflict(tx, ty, tvx, tvy float64, trial *airspace.Aircraft, dt float64) (first float64, conflict bool) {
	for t := 0.0; t <= airspace.HorizonPeriods; t += dt {
		ax := tx + tvx*t
		ay := ty + tvy*t
		bx := trial.X + trial.DX*t
		by := trial.Y + trial.DY*t
		if math.Abs(bx-ax) < airspace.SepTotal && math.Abs(by-ay) < airspace.SepTotal {
			return t, true
		}
	}
	return 0, false
}
