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
// Task 1 has one box search, BoxHits (boxhits.go): per pass, each
// pending radar's row of aircraft whose box contains it, fanned out per
// radar. The host body here (parallel.go) replays Algorithm 1's
// matching over those rows in radar order, identical at any worker
// count; the ap and mimd executors walk the same rows with their own
// matching; and the cuda and vector executors share one census
// arbitration over them, Census (census.go). The tests hold the host
// body to a scalar fold of Algorithm 1 and Census to the all-N census
// loops. Tasks 2-3 have one pair scan, Scan (batch.go): a column
// snapshot of the world scanned by a batched pair kernel over the
// candidates a broadphase.View serves — every aircraft with no source.
// Around it, Algorithm 2 has one step per resolution discipline: the
// in-place step ResolveInPlace, which the runner here and the ap
// executor share, and the snapshot step Snapshot (snapshot.go), which
// the cuda, mimd and vector executors share. The runner runs the serial
// in-place Algorithm 2 at one worker and a parallel snapshot scan plus
// serial replay above that, identical at any worker count. The tests
// hold the runner to a scalar fold of Algorithm 2 over the aircraft
// records, and Snapshot to the snapshot discipline written plainly.
package tasks

import (
	"math"
	"sort"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/radar"
	"repro/internal/telemetry"
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

// Record adds Task 1's matched count to rec as the track.matched
// counter, the one Task 1 counter every platform records.
func (st CorrelateStats) Record(rec *telemetry.Recorder) {
	rec.Counter(rec.Intern(telemetry.NameTrackMatched), int64(st.Matched))
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
// within the horizon (timeMin < timeMax). It is the scalar statement of
// the pair math; Scan evaluates the same windows branch-free.
func PairConflict(tx, ty, tvx, tvy float64, trial *airspace.Aircraft) (timeMin, timeMax float64, conflict bool) {
	wx, openX := geom.AxisConflictWindow(tx, tvx, trial.X, trial.DX, airspace.SepTotal)
	if !openX && wx.Empty() {
		return 0, 0, false
	}
	wy, openY := geom.AxisConflictWindow(ty, tvy, trial.Y, trial.DY, airspace.SepTotal)
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
// separation band that makes a horizontal conflict meaningful
// (airspace.AltOverlap on their altitudes).
//
//atm:inline
func AltOverlap(a, b *airspace.Aircraft) bool {
	return airspace.AltOverlap(a.Alt, b.Alt)
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

// Record adds the stats to rec as the detect.* counters, interned in
// one fixed order, so that every platform's event stream names them
// alike.
func (st DetectStats) Record(rec *telemetry.Recorder) {
	rec.Counter(rec.Intern(telemetry.NameDetectConflicts), int64(st.Conflicts))
	rec.Counter(rec.Intern(telemetry.NameDetectRotations), int64(st.Rotations))
	rec.Counter(rec.Intern(telemetry.NameDetectResolved), int64(st.Resolved))
	rec.Counter(rec.Intern(telemetry.NameDetectUnresolved), int64(st.Unresolved))
	rec.Counter(rec.Intern(telemetry.NameDetectPairChecks), int64(st.PairChecks))
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

// markConflict records a critical conflict on the track aircraft and
// mirrors it onto the trial aircraft, as Algorithm 2 line 9 sets col and
// colWith "for both trial and track aircrafts". Detect's serial pass
// and ResolveInPlace apply it in index order.
func markConflict(w *airspace.World, track *airspace.Aircraft, with int32, tmin float64) {
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

// rotationCount is the number of trial headings of Task 3: each
// ResolutionStepDeg up to MaxResolutionDeg, on either side.
const rotationCount = 2 * int(MaxResolutionDeg/ResolutionStepDeg)

// rotationSchedule holds the trial heading offsets of Task 3 in the
// order the paper probes them: alternating sign, growing magnitude
// (+5, -5, +10, -10, ... +30, -30 degrees). It is computed once, so
// every step of Algorithm 2 probes it per conflicted aircraft without
// allocating.
var rotationSchedule = func() (degs [rotationCount]float64) {
	k := 0
	for mag := ResolutionStepDeg; mag <= MaxResolutionDeg; mag += ResolutionStepDeg {
		degs[k], degs[k+1] = mag, -mag
		k += 2
	}
	return degs
}()

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
