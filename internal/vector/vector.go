// Package vector models the commodity wide-vector processor of the
// paper's Section 7.2 future work: "implement the basic ATM tasks ...
// in these commodity processors (such as Intel's Xeon Phi) that provide
// efficient, vector-based parallel computation" [8, 9].
//
// The machine is a many-core CPU whose cores each execute W-lane SIMD
// instructions. Task 1 is charged in lane-blocked form — a vectorizing
// port of the CUDA kernels scans the aircraft database eight records at
// a time through mask registers — and computed by the CUDA kernels'
// census arbitration (tasks.Census) over the shared box-hit rows: each
// radar's census is charged the lane blocks its blocked scan would
// visit. Tasks 2-3 run the snapshot step the CUDA kernels share
// (tasks.Snapshot, over the 8-wide blocked pair scan tasks.Scan) and
// are charged the lane blocks that cover each scan's candidate list.
// Every vector instruction is counted.
// The cost model charges the per-core critical path of vector
// instructions at the profile's issue rate, plus a barrier per
// parallel phase. No
// OS-jitter term is modeled: the package answers the paper's question
// "could wide SIMD units give the deterministic, SIMD-like behaviour
// the GPUs showed?" for the idealized case where the vector units are
// driven without scheduling noise. In reality a Xeon Phi would sit
// between the GPU and the Xeon models.
package vector

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/cores"
	"repro/internal/radar"
	"repro/internal/tasks"
)

// Lanes is the vector width in float64 lanes (AVX-512: 8 doubles).
const Lanes = 8

// Profile describes one wide-vector machine.
type Profile struct {
	// Name of the machine.
	Name string
	// Cores is the number of physical cores driving vector units.
	Cores int
	// ClockHz is the core clock.
	ClockHz float64
	// IssueRate is sustained vector instructions per cycle per core.
	IssueRate float64
	// BarrierCost is charged once per parallel phase.
	BarrierCost time.Duration
}

// XeonPhi7210 is a Knights Landing part: 64 cores at 1.3 GHz with dual
// AVX-512 units (modeled as one sustained vector instruction per cycle
// after memory stalls).
var XeonPhi7210 = Profile{
	Name:        "Xeon Phi 7210 (AVX-512)",
	Cores:       64,
	ClockHz:     1.3e9,
	IssueRate:   1.0,
	BarrierCost: 20 * time.Microsecond,
}

// AVX2Workstation is a conventional 8-core desktop with 4-lane doubles,
// for the "increasingly wide vector units on commodity processors"
// comparison at the small end.
var AVX2Workstation = Profile{
	Name:        "8-core AVX2 workstation",
	Cores:       8,
	ClockHz:     3.6e9,
	IssueRate:   1.0,
	BarrierCost: 5 * time.Microsecond,
}

// Machine executes the ATM tasks in lane-blocked SIMD form. A Machine
// is not safe for concurrent use: it owns reusable scratch arrays so
// steady-state task invocations allocate nothing.
type Machine struct {
	prof Profile
	src  broadphase.PairSource
	// cores runs the tasks' phases and holds the per-core
	// vector-instruction tallies.
	cores cores.Cores

	// census is Track's per-pass census and snap DetectResolve's
	// snapshot of committed courses; the slots of both are the
	// modeled cores.
	census tasks.Census
	snap   tasks.Snapshot
}

// New returns a machine for the profile.
func New(p Profile) *Machine {
	if p.Cores <= 0 || p.ClockHz <= 0 || p.IssueRate <= 0 {
		panic(fmt.Sprintf("vector: bad profile %+v", p))
	}
	return &Machine{prof: p}
}

// Name returns the machine name.
func (m *Machine) Name() string { return m.prof.Name }

// SetPairSource installs a broadphase pair source for the Tasks 2-3
// scan (nil restores the all-pairs lane sweep). Pruned scans are
// charged gather loads over the candidate list instead of contiguous
// blocks.
func (m *Machine) SetPairSource(src broadphase.PairSource) { m.src = src }

// SetWorkers pins the host worker count that executes the modeled
// cores (n <= 0 restores the process-default pool). The per-core
// vector-instruction tallies come from the static core partition, so
// modeled time is identical at any worker count.
func (m *Machine) SetWorkers(n int) { m.cores.SetWorkers(n) }

// Deterministic reports true for the idealized vector model (see the
// package comment for the caveat).
func (m *Machine) Deterministic() bool { return true }

// taskTime converts the critical core's tally into modeled time.
func (m *Machine) taskTime() time.Duration {
	_, crit := m.cores.Critical()
	secs := float64(crit) / (m.prof.IssueRate * m.prof.ClockHz)
	return time.Duration(secs*float64(time.Second)) +
		time.Duration(m.cores.Phases())*m.prof.BarrierCost
}

// Vector-instruction charges per lane-block of work. A bounding-box
// test on 8 records is ~6 vector instructions (2 subs, 4 compares +
// mask ands); the Batcher window evaluation ~20 (4 divisions dominate).
const (
	viExpected = 3
	viBoxCheck = 6
	viClaim    = 2
	viPair     = 20
	viCommit   = 3
	// viGather is the extra charge when a pair block is assembled with
	// gather loads from a candidate index list instead of contiguous
	// vector loads.
	viGather = 4
	// viIndex is the per-block charge of the broadphase index build.
	viIndex = 4
)

// Track runs Task 1 with radars partitioned across cores and the
// aircraft database scanned in 8-lane blocks. Matching runs the same
// barrier-separated census/claim/arbitrate/finalize steps as the CUDA
// kernel (tasks.Census), one phase each: each phase reads only state
// frozen at the previous barrier, which makes both the outcome and the
// per-core instruction tally — and therefore the modeled time — a pure
// function of the workload. The census phase charges the lane blocks
// the blocked scan visits: every block up to the one holding the
// radar's second eligible hit.
//
//atm:allow atomic -- the comparison, discard, withdrawal and match tallies are commutative sums read only after the phase barrier
func (m *Machine) Track(w *airspace.World, f *radar.Frame) (tasks.CorrelateStats, time.Duration) {
	var st tasks.CorrelateStats
	cs := &m.cores
	cs.Reset(m.prof.Cores)
	ac := w.Aircraft
	reps := f.Reports
	n := len(ac)

	// Expected positions: pure vector adds over the whole database.
	cs.Phase("expected", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
		}
		cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes)*viExpected)
	})
	f.Reset()

	census := &m.census
	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		pending := census.Prepare(w, f, boxHalf, cs.Pool(), m.prof.Cores)
		st.PassRadars[pass] = pending
		if pending == 0 {
			break
		}
		var comparisons, discarded, withdrawn uint64

		// Census: every still-unmatched radar scans the database in
		// lane blocks until a block holds its second eligible hit.
		// Match state is frozen for the whole phase.
		cs.Phase("census", int32(pass), len(reps), func(core, lo, hi int) {
			var blocks, comps uint64
			for j := lo; j < hi; j++ {
				if pending, stop := census.Count(w, f, core, j); pending {
					b := (int(stop) + Lanes) / Lanes
					blocks += uint64(b)
					comps += uint64(min(b*Lanes, n))
				}
			}
			cs.Add(core, blocks*viBoxCheck)
			atomic.AddUint64(&comparisons, comps)
		})

		// Claim: ambiguous radars are discarded; unique candidates are
		// claimed with a commutative counter.
		cs.Phase("claim", int32(pass), len(reps), func(core, lo, hi int) {
			var vi, disc uint64
			for j := lo; j < hi; j++ {
				pending, d := census.Claim(f, j)
				if pending {
					vi += viClaim
				}
				if d {
					disc++
				}
			}
			cs.Add(core, vi)
			atomic.AddUint64(&discarded, disc)
		})

		// Arbitrate: contested aircraft are withdrawn.
		cs.Phase("arbitrate", int32(pass), n, func(core, lo, hi int) {
			var vi, wd uint64
			for i := lo; i < hi; i++ {
				if i%Lanes == 0 {
					vi += viClaim
				}
				if census.Arbitrate(w, i) {
					wd++
				}
			}
			cs.Add(core, vi)
			atomic.AddUint64(&withdrawn, wd)
		})

		// Finalize: surviving unique claims become matches; then the
		// claim counters are cleared for the next pass (the host clears
		// them at the next Prepare; the phase carries the charge).
		cs.Phase("finalize", int32(pass), len(reps), func(core, lo, hi int) {
			var vi uint64
			for j := lo; j < hi; j++ {
				if census.Finalize(w, f, j) {
					vi += viClaim
				}
			}
			cs.Add(core, vi)
		})
		cs.Phase("clearClaims", int32(pass), n, func(core, lo, hi int) {
			cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes))
		})

		st.Comparisons += int(comparisons)
		st.DiscardedRadars += int(discarded)
		st.WithdrawnAircraft += int(withdrawn)
		boxHalf *= 2
	}

	// Commit.
	cs.Phase("commit", 0, n, func(core, lo, hi int) {
		var vi uint64
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.X, a.Y = a.ExpX, a.ExpY
			if i%Lanes == 0 {
				vi += viCommit
			}
		}
		cs.Add(core, vi)
	})
	var matched uint64
	cs.Phase("commitRadar", 0, len(reps), func(core, lo, hi int) {
		for j := lo; j < hi; j++ {
			rep := &reps[j]
			if rep.MatchWith >= 0 && ac[rep.MatchWith].RMatch == airspace.MatchOne {
				a := &ac[rep.MatchWith]
				a.X, a.Y = rep.RX, rep.RY
				atomic.AddUint64(&matched, 1)
			}
		}
		cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes*viCommit))
	})
	st.Matched = int(matched)
	for j := range reps {
		if reps[j].MatchWith == radar.Unmatched {
			st.UnmatchedRadars++
		}
	}
	cs.Phase("wrap", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			airspace.Wrap(&ac[i])
		}
		cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes*viCommit))
	})

	return st, m.taskTime()
}

// DetectResolve runs Tasks 2-3: each core owns a slice of track
// aircraft and runs the shared snapshot step (tasks.Snapshot) on each
// against a pre-kernel snapshot of committed courses (the same snapshot
// discipline as the CUDA kernel). Every scan is charged the lane
// blocks that cover its candidate list, eight trial aircraft per
// Batcher window evaluation: contiguous loads over the whole database
// with no source, gather loads over the broadphase candidate list with
// one.
func (m *Machine) DetectResolve(w *airspace.World) (tasks.DetectStats, time.Duration) {
	cs := &m.cores
	cs.Reset(m.prof.Cores)
	n := w.N()
	snap := &m.snap
	snap.Prepare(w, m.src, cs.Pool(), m.prof.Cores)

	// Broadphase index build, charged as one lane-blocked phase. A
	// maintained source (the production sweep) also builds its
	// candidate table on the host pool, and the phase name reports it.
	// The charge is identical either way, as bit-identity requires.
	// With no source the view serves every aircraft and no phase is
	// charged.
	if m.src != nil {
		name := "index"
		if snap.Maintained() {
			name = "index.rebuild"
		}
		cs.Phase(name, 0, n, func(core, lo, hi int) {
			cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes)*viIndex)
		})
	}

	// A track's probes have its detection scan's candidate list, so it
	// is charged 1+probes scans of that list's lane blocks.
	viBlock := uint64(viPair)
	if m.src != nil {
		viBlock += viGather
	}
	cs.Phase("scanresolve", 0, n, func(core, lo, hi int) {
		var vi uint64
		for i := lo; i < hi; i++ {
			r := snap.Detect(w, core, i)
			probes := 0
			if r.Critical() {
				probes, _ = snap.Resolve(w, core, i)
			}
			vi += uint64(1+probes) * uint64((r.Cands+Lanes-1)/Lanes) * viBlock
		}
		cs.Add(core, vi)
	})

	cs.Phase("commit", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			snap.Commit(w, i)
		}
		cs.Add(core, uint64((hi-lo+Lanes-1)/Lanes*viCommit))
	})

	return snap.Stats(), m.taskTime()
}
