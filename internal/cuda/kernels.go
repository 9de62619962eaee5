package cuda

import (
	"sync/atomic"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
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

// deviceState is Task 1's device-resident state for one launch
// sequence: the world, the census each pass's launches step through,
// and eligible, the pass's exclusive prefix count of census-eligible
// aircraft (eligible[p] of them have index below p), from which a
// census thread's box-check charge is read in O(1).
type deviceState struct {
	w        *airspace.World
	census   tasks.Census
	eligible []int32
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
// drone struct in global memory across the whole run. The device state
// and the Tasks 2-3 snapshot are engine-owned scratch reused across
// invocations (an Engine is, like the paper's program, a sequential
// launch pipeline), so a steady-state period performs no per-launch
// allocations.
type Engine struct {
	dev   *Device
	src   broadphase.PairSource
	state deviceState
	// snap is CheckCollisionPath's snapshot of committed courses; its
	// slots are the host workers (Thread.Worker).
	snap tasks.Snapshot
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
// been found"), each pass's census, claim, arbitrate and finalize
// launches step through the shared tasks.Census, which applies the
// paper's discard rules to a commutative census, so the outcome is
// independent of thread interleaving: a radar with two in-box aircraft
// is discarded, an aircraft claimed by two radars is withdrawn — the
// same rules, arbitrated per pass instead of per scan step.
//
//atm:modeled-time
//atm:allow atomic -- the matched tally is a commutative sum read only after the launch barrier
func (e *Engine) TrackDrone(w *airspace.World, f *radar.Frame) TrackResult {
	f.Reset()
	res := TrackResult{}
	n := w.N()
	r := f.N()
	s := &e.state
	s.w = w
	if cap(s.eligible) < n+1 {
		s.eligible = make([]int32, n+1)
	}
	s.eligible = s.eligible[:n+1]
	pool := parexec.Resolve(e.dev.pool)
	census := &s.census

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
		t.Ops(opsExpected)
		t.Mem(aircraftRecordBytes)
	}))

	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		// The host prepares the pass: the box-hit rows, the cleared
		// claim counters and the eligible prefix count.
		census.Prepare(w, f, boxHalf, pool, pool.Workers())
		s.countEligible()
		if pass > 0 {
			// The device clears the previous pass's claim counters in
			// its own aircraft-indexed kernel, so that no two radar
			// threads ever write the same counter. The host has cleared
			// them above; the launch carries the kernel's charge.
			res.add(e.dev.Launch("resetClaims", n, func(t *Thread) {
				t.Ops(1)
			}))
		}
		// Census: each pending radar thread tests every still-eligible
		// aircraft (the O(N^2) heart of Task 1) up to its second
		// eligible hit. The outcome comes from the radar's box-hit row,
		// and the thread is charged one box check per eligible aircraft
		// it would have visited, read off the prefix count.
		res.add(e.dev.Launch("census", r, func(t *Thread) {
			if pending, stop := census.Count(w, f, t.Worker, t.ID); pending {
				t.Ops(opsBoxCheck * int(s.eligible[stop+1]))
				t.Mem(radarRecordBytes)
			}
		}))
		// Claim: radars with exactly one candidate claim it atomically;
		// radars that saw two or more aircraft are discarded (-2).
		res.add(e.dev.Launch("claim", r, func(t *Thread) {
			if pending, _ := census.Claim(f, t.ID); pending {
				t.Ops(opsClaim)
			}
		}))
		// Arbitrate: aircraft claimed by two or more radars are
		// withdrawn from correlation (-1), per Algorithm 1 line 8.
		res.add(e.dev.Launch("arbitrate", n, func(t *Thread) {
			t.Ops(opsResolveAC)
			census.Arbitrate(w, t.ID)
		}))
		// Finalize: a radar whose unique candidate survived arbitration
		// becomes a match; contested radars return to the pool for the
		// next, doubled box.
		res.add(e.dev.Launch("finalize", r, func(t *Thread) {
			if census.Finalize(w, f, t.ID) {
				t.Ops(opsFinalize)
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

// countEligible fills the exclusive prefix count of census-eligible
// aircraft, those not yet matched or withdrawn. The census never writes
// RMatch, so the count holds for the whole launch.
func (s *deviceState) countEligible() {
	c := int32(0)
	for p := range s.w.Aircraft {
		s.eligible[p] = c
		if s.w.Aircraft[p].RMatch == airspace.MatchNone {
			c++
		}
	}
	s.eligible[len(s.w.Aircraft)] = c
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
// is excluded by construction. The threads run the shared snapshot
// step (tasks.Snapshot) and are charged from the scans it returns.
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
	e.prepareDetect(w, &res)
	e.detectResolveKernel(w, &res, true)
	e.commitCourses(w, &res)
	res.TransferTime += e.dev.TransferTime(w.N() * 8) // conflict flags back to host
	res.Time += res.TransferTime
	res.Stats = e.snap.Stats()
	return res
}

// DetectOnly runs Task 2 as its own kernel (no resolution), returning
// conflicts marked on the aircraft. Used by the split-kernel ablation.
//
//atm:modeled-time
func (e *Engine) DetectOnly(w *airspace.World) DetectResult {
	res := DetectResult{}
	e.prepareDetect(w, &res)
	e.detectResolveKernel(w, &res, false)
	// Split pipeline: detection results must round-trip to the host
	// before the resolution kernel can be launched.
	res.TransferTime += e.dev.TransferTime(w.N() * aircraftRecordBytes)
	res.Time += res.TransferTime
	res.Stats = e.snap.Stats()
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
	e.prepareDetect(w, &res)
	e.resolveKernel(w, &res)
	e.commitCourses(w, &res)
	res.TransferTime += e.dev.TransferTime(w.N() * 8)
	res.Time += res.TransferTime
	res.Stats = e.snap.Stats()
	return res
}

// prepareDetect snapshots committed courses and prepares the candidate
// view on the host, and charges the snapshot and index-build launches.
func (e *Engine) prepareDetect(w *airspace.World, res *DetectResult) {
	n := w.N()
	pool := parexec.Resolve(e.dev.pool)
	e.snap.Prepare(w, e.src, pool, pool.Workers())
	res.add(e.dev.Launch("snapshot", n, func(t *Thread) {
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
		name := "broadphase"
		if e.snap.Maintained() {
			name = "broadphase.rebuild"
		}
		res.add(e.dev.Launch(name, n, func(t *Thread) {
			t.Ops(opsIndexBuild)
			t.Mem(16)
		}))
	}
}

// scanOps is a thread's charge for one scan: opsPairCheck per pair
// check and one filter compare per other candidate it visits, itself
// included.
func scanOps(r tasks.ScanResult) int {
	return int(r.Checks)*opsPairCheck + int(r.Cands-r.Checks)
}

// detectResolveKernel runs the fused (or detection-only) kernel body.
// Every probe of a track has its detection scan's candidates and
// checks, so a resolving thread is charged its probes from that scan.
func (e *Engine) detectResolveKernel(w *airspace.World, res *DetectResult, resolve bool) {
	name := "checkCollisionPath"
	if !resolve {
		name = "collisionDetect"
	}
	res.add(e.dev.Launch(name, w.N(), func(t *Thread) {
		r := e.snap.Detect(w, t.Worker, t.ID)
		ops := scanOps(r)
		t.Ops(ops)
		if resolve && r.Critical() {
			probes, _ := e.snap.Resolve(w, t.Worker, t.ID)
			t.Ops(probes * (opsRotate + ops))
		}
	}))
}

// resolveKernel runs Task 3 alone over previously flagged aircraft.
func (e *Engine) resolveKernel(w *airspace.World, res *DetectResult) {
	ac := w.Aircraft
	res.add(e.dev.Launch("collisionResolve", w.N(), func(t *Thread) {
		if !ac[t.ID].Col {
			return
		}
		probes, r := e.snap.Resolve(w, t.Worker, t.ID)
		t.Ops(probes * (opsRotate + scanOps(r)))
	}))
}

// commitCourses applies the proposed courses and clears conflict flags
// for resolved aircraft.
func (e *Engine) commitCourses(w *airspace.World, res *DetectResult) {
	res.add(e.dev.Launch("commitCourses", w.N(), func(t *Thread) {
		t.Ops(opsCommit)
		e.snap.Commit(w, t.ID)
	}))
}
