// Package vector models the commodity wide-vector processor of the
// paper's Section 7.2 future work: "implement the basic ATM tasks ...
// in these commodity processors (such as Intel's Xeon Phi) that provide
// efficient, vector-based parallel computation" [8, 9].
//
// The machine is a many-core CPU whose cores each execute W-lane SIMD
// instructions. The ATM tasks are written here in explicitly
// lane-blocked form — the aircraft database is scanned eight records at
// a time through mask registers, exactly as a vectorizing port of the
// CUDA kernels would be — and every vector instruction is counted. The
// cost model charges the per-core critical path of vector instructions
// at the profile's issue rate, plus a barrier per parallel phase. No
// OS-jitter term is modeled: the package answers the paper's question
// "could wide SIMD units give the deterministic, SIMD-like behaviour
// the GPUs showed?" for the idealized case where the vector units are
// driven without scheduling noise. In reality a Xeon Phi would sit
// between the GPU and the Xeon models.
package vector

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
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
	pool *parexec.Pool

	soa   soa
	tally tally
	// Per-pass claim scratch for Track.
	acClaims  []int32
	radarHits []int32
	radarCand []int32
	// Resolution scratch for DetectResolve.
	newDX, newDY []float64
	resolved     []bool
	// Candidate view of the pruned gather scan, the SoA mirror viewed as
	// airspace.Columns for its index build (same backing arrays, no
	// copy), and per-core buffers for its per-track queries.
	view broadphase.View
	cols airspace.Columns
	bufs []candBuf

	// Telemetry phase marks: per-core cumulative instruction
	// snapshots taken after each parallel phase when a recorder is
	// attached. Machine-owned scratch, reused across tasks.
	marks   []phaseMark
	markOps []uint64 // len(marks)*Cores snapshots
	marksOn bool
}

// candBuf is one modeled core's candidate buffer, padded against false
// sharing of the slice headers.
type candBuf struct {
	cand []int32
	_    [40]byte
}

// phaseMark names one parallel phase; its per-core cumulative
// instruction snapshot lives at the matching offset of markOps.
type phaseMark struct {
	name string
	arg  int32
}

// beginMarks clears the mark log and enables collection for the next
// task (telemetry; see the platform adapter).
func (m *Machine) beginMarks() {
	m.marks = m.marks[:0]
	m.markOps = m.markOps[:0]
	m.marksOn = true
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
// scan (nil restores the all-pairs lane sweep). Pruned scans walk the
// candidate list through gather loads instead of contiguous blocks.
func (m *Machine) SetPairSource(src broadphase.PairSource) { m.src = src }

// SetWorkers pins the host worker count that executes the modeled
// cores (n <= 0 restores the process-default pool). The per-core
// vector-instruction tallies come from the static core partition, so
// modeled time is identical at any worker count.
func (m *Machine) SetWorkers(n int) {
	if n <= 0 {
		m.pool = nil
	} else {
		m.pool = parexec.NewPool(n)
	}
}

// Deterministic reports true for the idealized vector model (see the
// package comment for the caveat).
func (m *Machine) Deterministic() bool { return true }

// block is one W-lane vector register of doubles.
type block [Lanes]float64

// mask is one W-lane predicate register.
type mask [Lanes]bool

// none reports whether no lane is set.
func (k *mask) none() bool {
	for _, b := range k {
		if b {
			return false
		}
	}
	return true
}

// count returns the number of set lanes.
func (k *mask) count() int {
	c := 0
	for _, b := range k {
		if b {
			c++
		}
	}
	return c
}

// lanes is a helper that loads a strided field into a vector register;
// tail lanes beyond n are disabled in the returned mask.
func loadField(dst *block, valid *mask, src []float64, base, n int) {
	for l := 0; l < Lanes; l++ {
		if base+l < n {
			dst[l] = src[base+l]
			valid[l] = true
		} else {
			dst[l] = 0
			valid[l] = false
		}
	}
}

// soa is the structure-of-arrays mirror of the aircraft database that
// vector code operates on (vector units need contiguous fields).
type soa struct {
	n                 int
	x, y, dx, dy, alt []float64
	expX, expY        []float64
	rmatch            []int32
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// loadSOA refreshes the machine's reusable structure-of-arrays mirror
// from the world.
func (m *Machine) loadSOA(w *airspace.World) *soa {
	n := w.N()
	s := &m.soa
	s.n = n
	s.x, s.y = growF(s.x, n), growF(s.y, n)
	s.dx, s.dy = growF(s.dx, n), growF(s.dy, n)
	s.alt = growF(s.alt, n)
	s.expX, s.expY = growF(s.expX, n), growF(s.expY, n)
	if cap(s.rmatch) < n {
		s.rmatch = make([]int32, n)
	}
	s.rmatch = s.rmatch[:n]
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		s.x[i], s.y[i] = a.X, a.Y
		s.dx[i], s.dy[i] = a.DX, a.DY
		s.alt[i] = a.Alt
	}
	return s
}

// tally accumulates per-core vector-instruction counts.
type tally struct {
	vecInstr []uint64
	phases   int
}

// max folds the per-core instruction tallies to the critical-path
// maximum.
//
//atm:ordered-merge
func (t *tally) max() uint64 {
	var m uint64
	for _, v := range t.vecInstr {
		if v > m {
			m = v
		}
	}
	return m
}

// parallel splits [0, n) across the modeled cores using the static
// contiguous partition, multiplexing the logical cores onto the host
// worker pool. Partitions — and so per-core instruction tallies and
// the modeled critical path — depend only on the core count; the host
// worker count affects wall-clock speed alone.
func (m *Machine) parallel(t *tally, name string, arg int32, n int, body func(core, lo, hi int)) {
	t.phases++
	cores := m.prof.Cores
	parexec.Resolve(m.pool).Run(cores, 1, func(_, clo, chi int) {
		for c := clo; c < chi; c++ {
			lo := c * n / cores
			hi := (c + 1) * n / cores
			if lo < hi {
				body(c, lo, hi)
			}
		}
	})
	if m.marksOn {
		m.marks = append(m.marks, phaseMark{name: name, arg: arg})
		m.markOps = append(m.markOps, t.vecInstr...)
	}
}

// newTally resets and returns the machine's reusable tally.
func (m *Machine) newTally() *tally {
	t := &m.tally
	if cap(t.vecInstr) < m.prof.Cores {
		t.vecInstr = make([]uint64, m.prof.Cores)
	}
	t.vecInstr = t.vecInstr[:m.prof.Cores]
	for i := range t.vecInstr {
		t.vecInstr[i] = 0
	}
	t.phases = 0
	return t
}

// taskTime converts the tally into modeled time.
func (m *Machine) taskTime(t *tally) time.Duration {
	secs := float64(t.max()) / (m.prof.IssueRate * m.prof.ClockHz)
	return time.Duration(secs*float64(time.Second)) +
		time.Duration(t.phases)*m.prof.BarrierCost
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
// aircraft database scanned in 8-lane blocks. Matching uses the same
// barrier-separated census/claim/arbitrate/finalize scheme as the CUDA
// kernel: each phase reads only state frozen at the previous barrier,
// which makes both the outcome and the per-core instruction tally —
// and therefore the modeled time — a pure function of the workload.
//
//atm:allow atomic -- claim counters and match tallies are commutative sums read only after the phase barrier
func (m *Machine) Track(w *airspace.World, f *radar.Frame) (tasks.CorrelateStats, time.Duration) {
	var st tasks.CorrelateStats
	s := m.loadSOA(w)
	t := m.newTally()
	reps := f.Reports
	n := s.n

	// Expected positions: pure vector adds over the whole database.
	m.parallel(t, "expected", 0, n, func(core, lo, hi int) {
		var vi uint64
		for base := lo; base < hi; base += Lanes {
			end := base + Lanes
			if end > hi {
				end = hi
			}
			for i := base; i < end; i++ {
				s.expX[i] = s.x[i] + s.dx[i]
				s.expY[i] = s.y[i] + s.dy[i]
				s.rmatch[i] = 0
			}
			vi += viExpected
		}
		t.vecInstr[core] += vi
	})
	f.Reset()

	if cap(m.acClaims) < n {
		m.acClaims = make([]int32, n)
	}
	if cap(m.radarHits) < len(reps) {
		m.radarHits = make([]int32, len(reps))
		m.radarCand = make([]int32, len(reps))
	}
	acClaims := m.acClaims[:n]
	radarHits := m.radarHits[:len(reps)]
	radarCand := m.radarCand[:len(reps)]
	for i := range acClaims {
		acClaims[i] = 0
	}

	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		pending := 0
		for j := range reps {
			if reps[j].MatchWith == radar.Unmatched {
				pending++
			}
		}
		if pass < tasks.BoxPasses {
			st.PassRadars[pass] = pending
		}
		if pending == 0 {
			break
		}
		var comparisons, discarded, withdrawn uint64

		// Census: every still-unmatched radar scans the database in
		// lane blocks. Match state is frozen for the whole phase.
		m.parallel(t, "census", int32(pass), len(reps), func(core, lo, hi int) {
			var vi, comps uint64
			for j := lo; j < hi; j++ {
				rep := &reps[j]
				radarHits[j] = 0
				radarCand[j] = -1
				if rep.MatchWith != radar.Unmatched {
					continue
				}
				hits := int32(0)
				cand := int32(-1)
				for base := 0; base < n; base += Lanes {
					var ex, ey block
					var valid mask
					loadField(&ex, &valid, s.expX, base, n)
					loadField(&ey, &valid, s.expY, base, n)
					vi += viBoxCheck
					comps += uint64(valid.count())
					for l := 0; l < Lanes; l++ {
						if !valid[l] {
							continue
						}
						i := base + l
						if s.rmatch[i] != 0 {
							continue // matched or withdrawn
						}
						if rep.RX > ex[l]-boxHalf && rep.RX < ex[l]+boxHalf &&
							rep.RY > ey[l]-boxHalf && rep.RY < ey[l]+boxHalf {
							hits++
							cand = int32(i)
						}
					}
					if hits > 1 {
						break
					}
				}
				radarHits[j] = hits
				radarCand[j] = cand
			}
			t.vecInstr[core] += vi
			atomic.AddUint64(&comparisons, comps)
		})

		// Claim: ambiguous radars are discarded; unique candidates are
		// claimed with a commutative counter.
		m.parallel(t, "claim", int32(pass), len(reps), func(core, lo, hi int) {
			var vi uint64
			for j := lo; j < hi; j++ {
				rep := &reps[j]
				if rep.MatchWith != radar.Unmatched {
					continue
				}
				vi += viClaim
				switch {
				case radarHits[j] >= 2:
					rep.MatchWith = radar.Discarded
					atomic.AddUint64(&discarded, 1)
				case radarHits[j] == 1:
					atomic.AddInt32(&acClaims[radarCand[j]], 1)
				}
			}
			t.vecInstr[core] += vi
		})

		// Arbitrate: contested aircraft are withdrawn.
		m.parallel(t, "arbitrate", int32(pass), n, func(core, lo, hi int) {
			var vi uint64
			for i := lo; i < hi; i++ {
				if i%Lanes == 0 {
					vi += viClaim
				}
				if acClaims[i] >= 2 && s.rmatch[i] == 0 {
					s.rmatch[i] = -1
					atomic.AddUint64(&withdrawn, 1)
				}
			}
			t.vecInstr[core] += vi
		})

		// Finalize: surviving unique claims become matches; clear the
		// claim counters for the next pass.
		m.parallel(t, "finalize", int32(pass), len(reps), func(core, lo, hi int) {
			var vi uint64
			for j := lo; j < hi; j++ {
				rep := &reps[j]
				if rep.MatchWith != radar.Unmatched || radarHits[j] != 1 {
					continue
				}
				vi += viClaim
				cand := radarCand[j]
				if acClaims[cand] == 1 && s.rmatch[cand] == 0 {
					s.rmatch[cand] = 1
					rep.MatchWith = cand
				}
			}
			t.vecInstr[core] += vi
		})
		m.parallel(t, "clearClaims", int32(pass), n, func(core, lo, hi int) {
			for i := lo; i < hi; i++ {
				acClaims[i] = 0
			}
			t.vecInstr[core] += uint64((hi - lo + Lanes - 1) / Lanes)
		})

		st.Comparisons += int(comparisons)
		st.DiscardedRadars += int(discarded)
		st.WithdrawnAircraft += int(withdrawn)
		boxHalf *= 2
	}

	// Commit.
	m.parallel(t, "commit", 0, n, func(core, lo, hi int) {
		var vi uint64
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.X, a.Y = s.expX[i], s.expY[i]
			a.RMatch = int8(s.rmatch[i])
			if i%Lanes == 0 {
				vi += viCommit
			}
		}
		t.vecInstr[core] += vi
	})
	var matched uint64
	m.parallel(t, "commitRadar", 0, len(reps), func(core, lo, hi int) {
		for j := lo; j < hi; j++ {
			rep := &reps[j]
			if rep.MatchWith >= 0 && s.rmatch[rep.MatchWith] == 1 {
				a := &w.Aircraft[rep.MatchWith]
				a.X, a.Y = rep.RX, rep.RY
				atomic.AddUint64(&matched, 1)
			}
		}
		t.vecInstr[core] += uint64((hi - lo + Lanes - 1) / Lanes * viCommit)
	})
	st.Matched = int(matched)
	for j := range reps {
		if reps[j].MatchWith == radar.Unmatched {
			st.UnmatchedRadars++
		}
	}
	m.parallel(t, "wrap", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			airspace.Wrap(&w.Aircraft[i])
		}
		t.vecInstr[core] += uint64((hi - lo + Lanes - 1) / Lanes * viCommit)
	})

	return st, m.taskTime(t)
}

// DetectResolve runs Tasks 2-3: each core owns a slice of track
// aircraft; the inner trial scan evaluates the Batcher window for eight
// trial aircraft at a time against a pre-kernel snapshot (the same
// snapshot discipline as the CUDA kernel).
//
//atm:allow atomic -- conflict and rotation tallies are order-independent sums read only after the join
func (m *Machine) DetectResolve(w *airspace.World) (tasks.DetectStats, time.Duration) {
	s := m.loadSOA(w)
	t := m.newTally()
	n := s.n
	m.newDX = growF(m.newDX, n)
	m.newDY = growF(m.newDY, n)
	if cap(m.resolved) < n {
		m.resolved = make([]bool, n)
	}
	if len(m.bufs) < m.prof.Cores {
		m.bufs = make([]candBuf, m.prof.Cores)
	}
	newDX, newDY := m.newDX, m.newDY
	resolved := m.resolved[:n]
	copy(newDX, s.dx)
	copy(newDY, s.dy)
	for i := range resolved {
		resolved[i] = false
	}

	// Broadphase index build, charged as one lane-blocked phase. A
	// maintained source (the production sweep) also builds its
	// candidate table on the host pool, and the phase name reports it.
	// The charge is identical either way, as bit-identity requires.
	if m.src != nil {
		m.cols = airspace.Columns{X: s.x, Y: s.y, DX: s.dx, DY: s.dy, Alt: s.alt}
		m.view = broadphase.PrepareView(m.src, w, &m.cols, parexec.Resolve(m.pool))
		name := "index"
		if m.view.Maintained() {
			name = "index.rebuild"
		}
		m.parallel(t, name, 0, n, func(core, lo, hi int) {
			t.vecInstr[core] += uint64((hi-lo+Lanes-1)/Lanes) * viIndex
		})
	}

	var conflicts, rotations, resolvedCount, unresolvedCount, pairChecks int64

	// scanLane folds one trial record into the running minimum.
	scanLane := func(i, p int, tx, ty, tdx, tdy, talt float64, vx, vy float64,
		checks *uint64, earliest *float64, with *int32) {
		if p == i || math.Abs(talt-s.alt[i]) >= airspace.AltBandFeet {
			return
		}
		*checks++
		tmin, tmax, ok := tasks.PairConflictAt(s.x[i], s.y[i], vx, vy, tx, ty, tdx, tdy)
		if ok && tmin < tmax && tmin < *earliest {
			*earliest = tmin
			*with = int32(p)
		}
	}

	// scan evaluates one candidate course for track i in lane blocks:
	// contiguous loads over the whole database, or gather loads over the
	// broadphase candidate list.
	scan := func(core int, i int, vx, vy float64) (earliest float64, with int32, critical bool) {
		earliest = airspace.SafeTime
		with = airspace.NoConflict
		var vi, checks uint64
		if m.src == nil {
			for base := 0; base < n; base += Lanes {
				var tx, ty, tdx, tdy, talt block
				var valid mask
				loadField(&tx, &valid, s.x, base, n)
				loadField(&ty, &valid, s.y, base, n)
				loadField(&tdx, &valid, s.dx, base, n)
				loadField(&tdy, &valid, s.dy, base, n)
				loadField(&talt, &valid, s.alt, base, n)
				vi += viPair
				for l := 0; l < Lanes; l++ {
					if !valid[l] {
						continue
					}
					scanLane(i, base+l, tx[l], ty[l], tdx[l], tdy[l], talt[l], vx, vy,
						&checks, &earliest, &with)
				}
			}
		} else {
			cand := m.view.Candidates(&m.bufs[core].cand, w, i)
			for base := 0; base < len(cand); base += Lanes {
				end := base + Lanes
				if end > len(cand) {
					end = len(cand)
				}
				vi += viPair + viGather
				for _, p32 := range cand[base:end] {
					p := int(p32)
					scanLane(i, p, s.x[p], s.y[p], s.dx[p], s.dy[p], s.alt[p], vx, vy,
						&checks, &earliest, &with)
				}
			}
		}
		t.vecInstr[core] += vi
		atomic.AddInt64(&pairChecks, int64(checks))
		return earliest, with, earliest < airspace.CriticalTime
	}

	m.parallel(t, "scanresolve", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			a := &w.Aircraft[i]
			a.ResetConflict()
			tmin, with, critical := scan(core, i, s.dx[i], s.dy[i])
			if !critical {
				continue
			}
			atomic.AddInt64(&conflicts, 1)
			a.Col = true
			a.ColWith = with
			a.TimeTill = tmin
			base := geom.Vec2{X: s.dx[i], Y: s.dy[i]}
			done := false
			for _, deg := range tasks.RotationSchedule() {
				atomic.AddInt64(&rotations, 1)
				v := base.Rotate(deg)
				a.BatX, a.BatY = v.X, v.Y
				tmin, with, critical = scan(core, i, v.X, v.Y)
				if !critical {
					newDX[i], newDY[i] = v.X, v.Y
					resolved[i] = true
					atomic.AddInt64(&resolvedCount, 1)
					done = true
					break
				}
				a.ColWith = with
				if tmin < a.TimeTill {
					a.TimeTill = tmin
				}
			}
			if !done {
				atomic.AddInt64(&unresolvedCount, 1)
			}
		}
	})

	m.parallel(t, "commit", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			if resolved[i] {
				a := &w.Aircraft[i]
				a.DX, a.DY = newDX[i], newDY[i]
				a.ResetConflict()
			}
		}
		t.vecInstr[core] += uint64((hi - lo + Lanes - 1) / Lanes * viCommit)
	})

	st := tasks.DetectStats{
		Conflicts:  int(conflicts),
		Rotations:  int(rotations),
		Resolved:   int(resolvedCount),
		Unresolved: int(unresolvedCount),
		PairChecks: int(pairChecks),
	}
	return st, m.taskTime(t)
}
