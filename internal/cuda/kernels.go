package cuda

import (
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/tasks"
)

// Abstract op counts charged per unit of kernel work. The values
// approximate the instruction mix of the corresponding CUDA code paths
// (loads, compares, the four divisions of Equations 1-4, ...); the
// figures only depend on their relative magnitudes.
const (
	opsExpected  = 6  // expected-position update per aircraft
	opsBoxCheck  = 10 // one bounding-box test (4 compares + indexing)
	opsClaim     = 8  // one atomic claim + bookkeeping
	opsResolveAC = 6  // per-aircraft claim arbitration
	opsFinalize  = 10 // per-radar match finalization
	opsCommit    = 8  // committing a radar position
	opsWrap      = 6  // field re-entry check
	opsPairCheck = 40 // Equations 1-6 for one pair (4 div, 8 mul/add, compares)
	opsRotate    = 14 // velocity rotation (sin/cos amortized, 4 mul/add)
	opsSnapshot  = 6  // building the velocity snapshot entry
	// opsIndexBuild is the per-aircraft charge of the opt-in broadphase
	// index build (envelope computation plus cell/interval insertion).
	opsIndexBuild = 12
)

// Record sizes used for the transfer model, matching the paper's
// global-memory structs: the drone record has 10 fields plus ids, the
// radar record a coordinate pair and a match word.
const (
	aircraftRecordBytes = 88
	radarRecordBytes    = 20
)

// deviceState mirrors the paper's global-memory arrays for one launch
// sequence. Mutable cross-thread state is held in atomics so kernels
// are race-free under the engine's real concurrency.
type deviceState struct {
	w *airspace.World
	f *radar.Frame

	// Correlation claims: acClaims[p] counts the radars whose unique
	// box candidate is aircraft p this pass; radarHits/radarCand hold
	// each radar's in-box census for the current pass.
	acClaims  []int32
	radarHits []int32
	radarCand []int32

	// Snapshot of committed courses for CheckCollisionPath, in column
	// (SoA) form: threads read these dense arrays while writing
	// proposed courses to newDX/newDY.
	snap         airspace.Columns
	newDX, newDY []float64
	resolved     []int32

	// view, when pruned is set, serves the pair scan its candidate
	// sets; the all-pairs kernel of the paper is the unpruned path. It
	// is prepared once per launch sequence and every probe reads it
	// bit-identically (candidate sets depend only on positions and
	// speeds, and resolution only rotates courses).
	pruned bool
	view   broadphase.View

	// candBufs are per-host-worker candidate buffers for the pruned
	// scan, indexed by Thread.Worker.
	candBufs []candBuf

	// Aggregate task counters (atomic).
	conflicts, rotations, resolvedCount, unresolvedCount, pairChecks int64
}

// candBuf is one worker's candidate buffer, padded so neighbouring
// workers' slice headers don't share a cache line.
type candBuf struct {
	cand []int32
	_    [40]byte
}

// grow returns s resized for len(int32 slices) n, reusing capacity.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// TrackResult reports one TrackDrone invocation.
type TrackResult struct {
	Kernels []KernelStats
	// Matched is the number of aircraft updated from a radar position.
	Matched int
	// Time is the total modeled device time including transfers.
	Time, TransferTime time.Duration
}

// Engine binds a Device to the ATM kernels and owns the persistent
// device-resident aircraft array, as the paper's program keeps the
// drone struct in global memory across the whole run. The device-state
// arrays are engine-owned scratch reused across invocations (an Engine
// is, like the paper's program, a sequential launch pipeline), so a
// steady-state period performs no per-launch allocations.
type Engine struct {
	dev   *Device
	src   broadphase.PairSource
	state deviceState
}

// resetState prepares the engine's reusable device state for a new
// launch sequence against w (and f, for Task 1).
func (e *Engine) resetState(w *airspace.World, f *radar.Frame) *deviceState {
	s := &e.state
	s.w, s.f = w, f
	s.acClaims = growInt32(s.acClaims, w.N())
	if f != nil {
		s.radarHits = growInt32(s.radarHits, f.N())
		s.radarCand = growInt32(s.radarCand, f.N())
	}
	s.pruned = false
	s.view = broadphase.View{}
	s.conflicts, s.rotations, s.resolvedCount, s.unresolvedCount, s.pairChecks = 0, 0, 0, 0, 0
	return s
}

// NewEngine returns an ATM kernel engine on the given device profile.
func NewEngine(p Profile) *Engine { return &Engine{dev: NewDevice(p)} }

// Device exposes the underlying execution engine.
func (e *Engine) Device() *Device { return e.dev }

// Name returns the device name.
func (e *Engine) Name() string { return e.dev.Profile.Name }

// SetPairSource installs an opt-in broadphase pair source for the
// collision kernels (nil restores the paper's all-pairs scan). The
// modeled op counts then reflect the pruned pair enumeration plus an
// index-build kernel per invocation.
func (e *Engine) SetPairSource(src broadphase.PairSource) { e.src = src }

// SetWorkers pins the host worker count that executes kernel blocks
// (n <= 0 restores the process-default pool). Modeled device time is a
// commutative fold over per-thread charges and is identical at any
// worker count.
func (e *Engine) SetWorkers(n int) { e.dev.SetWorkers(n) }

// TrackDrone performs Task 1: it uploads the period's radar frame,
// computes expected positions, runs the multi-pass bounding-box
// correlation with commutative atomic claims, commits matched radar
// positions and applies field re-entry. It mutates w and f and returns
// the kernel accounts and modeled time.
//
// The claim scheme differs from the sequential reference only in how
// ambiguous geometry is arbitrated: instead of order-dependent
// claim/release chains (which are unavoidably racy on real hardware —
// the paper leans on "variables to check if an aircraft has already
// been found"), each pass takes a census (radarHits, acClaims) and then
// applies the paper's discard rules to the census. The census is
// commutative, so the outcome is independent of thread interleaving:
// a radar with two in-box aircraft is discarded, an aircraft claimed by
// two radars is withdrawn — the same rules, arbitrated per pass instead
// of per scan step.
//
//atm:modeled-time
//atm:allow atomic -- claim counters and the matched tally are commutative sums read only after the launch barrier; the per-pass census arbitration makes the outcome interleaving-independent
func (e *Engine) TrackDrone(w *airspace.World, f *radar.Frame) TrackResult {
	s := e.resetState(w, f)
	res := TrackResult{}
	n := w.N()
	r := f.N()

	// Host -> device: the shuffled radar frame (the drone array is
	// device-resident; the paper copies radar every period).
	res.TransferTime += e.dev.TransferTime(r * radarRecordBytes)

	ac := w.Aircraft
	reps := f.Reports

	// Phase 0: expected positions and state reset, one thread per
	// aircraft.
	res.add(e.dev.Launch("expected", n, func(t *Thread) {
		a := &ac[t.ID]
		a.ExpX = a.X + a.DX
		a.ExpY = a.Y + a.DY
		a.RMatch = airspace.MatchNone
		s.acClaims[t.ID] = 0
		t.Ops(opsExpected)
		t.Mem(aircraftRecordBytes)
	}))

	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		if pass > 0 {
			// Clear the previous pass's claim counters. Done as its own
			// aircraft-indexed kernel so that no two radar threads ever
			// write the same counter.
			res.add(e.dev.Launch("resetClaims", n, func(t *Thread) {
				s.acClaims[t.ID] = 0
				t.Ops(1)
			}))
		}
		// Census: each radar thread scans every still-eligible aircraft
		// (the O(N^2) heart of Task 1).
		res.add(e.dev.Launch("census", r, func(t *Thread) {
			rep := &reps[t.ID]
			s.radarHits[t.ID] = 0
			s.radarCand[t.ID] = -1
			if rep.MatchWith != radar.Unmatched {
				return
			}
			hits := int32(0)
			cand := int32(-1)
			for p := range ac {
				a := &ac[p]
				if a.RMatch == airspace.MatchDiscarded || a.RMatch == airspace.MatchOne {
					continue
				}
				t.Ops(opsBoxCheck)
				if rep.RX > a.ExpX-boxHalf && rep.RX < a.ExpX+boxHalf &&
					rep.RY > a.ExpY-boxHalf && rep.RY < a.ExpY+boxHalf {
					hits++
					cand = a.ID
					if hits > 1 {
						break
					}
				}
			}
			s.radarHits[t.ID] = hits
			s.radarCand[t.ID] = cand
			t.Mem(radarRecordBytes)
		}))

		// Claim: radars with exactly one candidate claim it atomically;
		// radars that saw two or more aircraft are discarded (-2).
		res.add(e.dev.Launch("claim", r, func(t *Thread) {
			rep := &reps[t.ID]
			if rep.MatchWith != radar.Unmatched {
				return
			}
			t.Ops(opsClaim)
			switch {
			case s.radarHits[t.ID] >= 2:
				rep.MatchWith = radar.Discarded
			case s.radarHits[t.ID] == 1:
				atomic.AddInt32(&s.acClaims[s.radarCand[t.ID]], 1)
			}
		}))

		// Arbitrate: aircraft claimed by two or more radars are
		// withdrawn from correlation (-1), per Algorithm 1 line 8.
		res.add(e.dev.Launch("arbitrate", n, func(t *Thread) {
			t.Ops(opsResolveAC)
			if s.acClaims[t.ID] >= 2 && ac[t.ID].RMatch == airspace.MatchNone {
				ac[t.ID].RMatch = airspace.MatchDiscarded
			}
		}))

		// Finalize: a radar whose unique candidate survived arbitration
		// becomes a match; contested radars return to the pool for the
		// next, doubled box.
		res.add(e.dev.Launch("finalize", r, func(t *Thread) {
			rep := &reps[t.ID]
			if rep.MatchWith != radar.Unmatched || s.radarHits[t.ID] != 1 {
				return
			}
			t.Ops(opsFinalize)
			cand := s.radarCand[t.ID]
			if s.acClaims[cand] == 1 && ac[cand].RMatch == airspace.MatchNone {
				// claims == 1 guarantees this thread is the only radar
				// whose unique candidate is cand, so the write is
				// race-free.
				ac[cand].RMatch = airspace.MatchOne
				rep.MatchWith = cand
			}
		}))

		boxHalf *= 2
	}

	// Commit: every aircraft takes its expected position; matched
	// radars overwrite it with the measured position; then re-entry.
	res.add(e.dev.Launch("commitExpected", n, func(t *Thread) {
		a := &ac[t.ID]
		a.X, a.Y = a.ExpX, a.ExpY
		t.Ops(opsCommit)
	}))
	var matched int64
	res.add(e.dev.Launch("commitRadar", r, func(t *Thread) {
		rep := &reps[t.ID]
		t.Ops(opsCommit)
		if rep.MatchWith >= 0 && ac[rep.MatchWith].RMatch == airspace.MatchOne {
			a := &ac[rep.MatchWith]
			a.X, a.Y = rep.RX, rep.RY
			atomic.AddInt64(&matched, 1)
		}
	}))
	res.add(e.dev.Launch("wrap", n, func(t *Thread) {
		t.Ops(opsWrap)
		airspace.Wrap(&ac[t.ID])
	}))

	// Device -> host: refreshed positions for the display/host side.
	res.TransferTime += e.dev.TransferTime(n * 16)
	res.Matched = int(matched)
	res.Time += res.TransferTime
	return res
}

func (r *TrackResult) add(st KernelStats) {
	r.Kernels = append(r.Kernels, st)
	r.Time += st.Time
}

// DetectResult reports one CheckCollisionPath invocation.
type DetectResult struct {
	Kernels []KernelStats
	Stats   tasks.DetectStats
	// Time is the modeled device time including transfers; for the
	// combined kernel the transfer happens once (the paper's stated
	// reason for fusing Tasks 2 and 3).
	Time, TransferTime time.Duration
}

func (r *DetectResult) add(st KernelStats) {
	r.Kernels = append(r.Kernels, st)
	r.Time += st.Time
}

// CheckCollisionPath performs Tasks 2 and 3 in one fused kernel, as the
// paper does: each thread owns one track aircraft, scans every other
// aircraft with Equations 1-6 against a snapshot of committed courses,
// and, when a critical conflict is found, probes rotated headings
// (±5°..±30°) until one is conflict-free. Proposed courses are written
// to a private array and committed by a final kernel, so threads never
// write another thread's aircraft — the race the paper guards against
// is excluded by construction.
//
// Because every thread reads the same pre-kernel snapshot, two mutually
// conflicting aircraft both maneuver relative to each other's old
// course. The sequential reference instead lets the second aircraft see
// the first one's fix. Both behaviours are valid instances of the
// paper's algorithm; residual conflicts are caught on the next major
// cycle (the paper: "sometimes the path could fix itself based on the
// movement of the plane to collide with").
//
//atm:modeled-time
func (e *Engine) CheckCollisionPath(w *airspace.World) DetectResult {
	res := DetectResult{}
	s := e.prepareDetect(w, &res)
	e.detectResolveKernel(w, s, &res, true)
	e.commitCourses(w, s, &res)
	res.TransferTime += e.dev.TransferTime(w.N() * 8) // conflict flags back to host
	res.Time += res.TransferTime
	res.Stats = s.stats()
	return res
}

// DetectOnly runs Task 2 as its own kernel (no resolution), returning
// conflicts marked on the aircraft. Used by the split-kernel ablation.
//
//atm:modeled-time
func (e *Engine) DetectOnly(w *airspace.World) DetectResult {
	res := DetectResult{}
	s := e.prepareDetect(w, &res)
	e.detectResolveKernel(w, s, &res, false)
	// Split pipeline: detection results must round-trip to the host
	// before the resolution kernel can be launched.
	res.TransferTime += e.dev.TransferTime(w.N() * aircraftRecordBytes)
	res.Time += res.TransferTime
	res.Stats = s.stats()
	return res
}

// ResolveOnly runs Task 3 as its own kernel over aircraft already
// flagged by DetectOnly. Used by the split-kernel ablation.
//
//atm:modeled-time
func (e *Engine) ResolveOnly(w *airspace.World) DetectResult {
	res := DetectResult{}
	// Host -> device: the flagged aircraft state comes back down.
	res.TransferTime += e.dev.TransferTime(w.N() * aircraftRecordBytes)
	s := e.prepareDetect(w, &res)
	e.resolveKernel(w, s, &res)
	e.commitCourses(w, s, &res)
	res.TransferTime += e.dev.TransferTime(w.N() * 8)
	res.Time += res.TransferTime
	res.Stats = s.stats()
	return res
}

// prepareDetect snapshots committed courses into device arrays.
func (e *Engine) prepareDetect(w *airspace.World, res *DetectResult) *deviceState {
	n := w.N()
	s := e.resetState(w, nil)
	s.snap.Resize(n)
	s.newDX = growFloat64(s.newDX, n)
	s.newDY = growFloat64(s.newDY, n)
	s.resolved = growInt32(s.resolved, n)
	if nw := e.dev.Workers(); len(s.candBufs) < nw {
		s.candBufs = slices.Grow(s.candBufs, nw-len(s.candBufs))[:nw]
	}
	ac := w.Aircraft
	res.add(e.dev.Launch("snapshot", n, func(t *Thread) {
		a := &ac[t.ID]
		s.snap.X[t.ID] = a.X
		s.snap.Y[t.ID] = a.Y
		s.snap.DX[t.ID] = a.DX
		s.snap.DY[t.ID] = a.DY
		s.snap.Alt[t.ID] = a.Alt
		s.newDX[t.ID] = a.DX
		s.newDY[t.ID] = a.DY
		s.resolved[t.ID] = 0
		t.Ops(opsSnapshot)
		t.Mem(aircraftRecordBytes)
	}))
	if e.src != nil {
		// Host-side index build over the committed snapshot, modeled as
		// one launch of per-aircraft insertion work; a maintained source
		// (the production sweep) also builds its candidate table on the
		// host workers. Only the span name reports which — the modeled
		// charge is the launch below either way, as the bit-identity
		// contract requires.
		s.view = broadphase.PrepareView(e.src, w, &s.snap, parexec.Resolve(e.dev.pool))
		s.pruned = true
		name := "broadphase"
		if s.view.Maintained() {
			name = "broadphase.rebuild"
		}
		res.add(e.dev.Launch(name, n, func(t *Thread) {
			t.Ops(opsIndexBuild)
			t.Mem(16)
		}))
	}
	return s
}

// scanAcc accumulates one thread's candidate scan: the earliest
// critical conflict seen so far plus the op-charging tallies. It lives
// on the scanning thread's stack so the inner fold stays allocation-
// free at any candidate count.
type scanAcc struct {
	earliest float64
	with     int32
	checks   int
	visited  int
}

// scanOne folds candidate aircraft p into acc for track aircraft i
// flying course (vx, vy).
//
//atm:noalloc
func (s *deviceState) scanOne(acc *scanAcc, i, p int, vx, vy float64) {
	acc.visited++
	if p == i || math.Abs(s.snap.Alt[p]-s.snap.Alt[i]) >= airspace.AltBandFeet {
		return
	}
	acc.checks++
	tmin, tmax, ok := tasks.PairConflictAt(s.snap.X[i], s.snap.Y[i], vx, vy,
		s.snap.X[p], s.snap.Y[p], s.snap.DX[p], s.snap.DY[p])
	if ok && tmin < tmax && tmin < acc.earliest {
		acc.earliest = tmin
		acc.with = int32(p)
	}
}

// scanSnapshot evaluates one candidate course for track aircraft i
// against the snapshot and returns the earliest critical conflict.
//
//atm:noalloc
//atm:allow atomic -- pairChecks is an order-independent sum read only after the launch barrier
func (s *deviceState) scanSnapshot(t *Thread, i int, vx, vy float64) (earliest float64, with int32, critical bool) {
	acc := scanAcc{earliest: airspace.SafeTime, with: airspace.NoConflict}
	if !s.pruned {
		for p := 0; p < s.snap.N(); p++ {
			s.scanOne(&acc, i, p, vx, vy)
		}
	} else {
		for _, p := range s.view.Candidates(&s.candBufs[t.Worker].cand, s.w, i) {
			s.scanOne(&acc, i, int(p), vx, vy)
		}
	}
	t.Ops(acc.checks*opsPairCheck + (acc.visited - acc.checks)) // skipped pairs still cost the filter compare
	atomic.AddInt64(&s.pairChecks, int64(acc.checks))
	return acc.earliest, acc.with, acc.earliest < airspace.CriticalTime
}

// detectResolveKernel runs the fused (or detection-only) kernel body.
//
//atm:allow atomic -- the conflicts counter is an order-independent sum read only after the launch barrier
func (e *Engine) detectResolveKernel(w *airspace.World, s *deviceState, res *DetectResult, resolve bool) {
	n := w.N()
	ac := w.Aircraft
	name := "checkCollisionPath"
	if !resolve {
		name = "collisionDetect"
	}
	res.add(e.dev.Launch(name, n, func(t *Thread) {
		i := t.ID
		a := &ac[i]
		a.ResetConflict()
		tmin, with, critical := s.scanSnapshot(t, i, s.snap.DX[i], s.snap.DY[i])
		if !critical {
			return
		}
		atomic.AddInt64(&s.conflicts, 1)
		a.Col = true
		a.ColWith = with
		a.TimeTill = tmin
		if !resolve {
			return
		}
		s.resolveTrack(t, e, i, a)
	}))
}

// resolveKernel runs Task 3 alone over previously flagged aircraft.
func (e *Engine) resolveKernel(w *airspace.World, s *deviceState, res *DetectResult) {
	ac := w.Aircraft
	res.add(e.dev.Launch("collisionResolve", w.N(), func(t *Thread) {
		a := &ac[t.ID]
		if !a.Col {
			return
		}
		s.resolveTrack(t, e, t.ID, a)
	}))
}

// resolveTrack probes the rotation schedule for one aircraft.
//
//atm:noalloc
//atm:allow atomic -- rotation/resolution counters are order-independent sums read only after the launch barrier
func (s *deviceState) resolveTrack(t *Thread, e *Engine, i int, a *airspace.Aircraft) {
	base := geom.Vec2{X: s.snap.DX[i], Y: s.snap.DY[i]}
	for _, deg := range rotationSchedule {
		atomic.AddInt64(&s.rotations, 1)
		t.Ops(opsRotate)
		v := base.Rotate(deg)
		a.BatX, a.BatY = v.X, v.Y
		tmin, with, critical := s.scanSnapshot(t, i, v.X, v.Y)
		if !critical {
			s.newDX[i], s.newDY[i] = v.X, v.Y
			s.resolved[i] = 1
			atomic.AddInt64(&s.resolvedCount, 1)
			return
		}
		a.ColWith = with
		if tmin < a.TimeTill {
			a.TimeTill = tmin
		}
	}
	atomic.AddInt64(&s.unresolvedCount, 1)
}

var rotationSchedule = tasks.RotationSchedule()

// commitCourses applies the proposed courses and clears conflict flags
// for resolved aircraft.
func (e *Engine) commitCourses(w *airspace.World, s *deviceState, res *DetectResult) {
	ac := w.Aircraft
	res.add(e.dev.Launch("commitCourses", w.N(), func(t *Thread) {
		t.Ops(opsCommit)
		if s.resolved[t.ID] == 1 {
			a := &ac[t.ID]
			a.DX, a.DY = s.newDX[t.ID], s.newDY[t.ID]
			a.ResetConflict()
		}
	}))
}

func (s *deviceState) stats() tasks.DetectStats {
	return tasks.DetectStats{
		Conflicts:  int(s.conflicts),
		Rotations:  int(s.rotations),
		Resolved:   int(s.resolvedCount),
		Unresolved: int(s.unresolvedCount),
		PairChecks: int(s.pairChecks),
	}
}
