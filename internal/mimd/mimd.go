// Package mimd simulates the shared-memory multicore baseline of the
// paper: a 16-core Intel Xeon running the ATM tasks with the aircraft
// database in shared memory. The tasks really execute on a pool of
// goroutines (one per modeled core) with lock-arbitrated radar
// claiming, and a cost model converts the measured per-core work into
// modeled time.
//
// The model encodes the paper's central criticism of MIMD for
// real-time work: asynchronous cores make the time for a fixed
// computation non-constant. Three ingredients produce that behaviour:
//
//   - critical path: the slowest core's operation count bounds the
//     task (static partitioning plus skew leaves cores imbalanced);
//   - contention: a superlinear factor models coherence traffic, lock
//     arbitration and memory-bus pressure that grow with database size
//     ("the multi-core curve increases rapidly" [12, 13]);
//   - jitter: an exponential OS-scheduling noise term redrawn on every
//     task invocation, so the same task on the same data takes a
//     different time each period — the non-determinism that makes
//     deadline guarantees impossible.
//
// The contention and jitter coefficients are documented model knobs
// (see DESIGN.md): they are chosen to reproduce the qualitative shape
// reported by [12, 13] — linear-looking at small N, steeply superlinear
// past ~10k aircraft, with regular deadline misses — not measured Xeon
// values.
package mimd

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// Profile describes one shared-memory multicore machine.
type Profile struct {
	// Name of the machine.
	Name string
	// Cores is the worker count.
	Cores int
	// ClockHz and IPC give per-core abstract-op throughput.
	ClockHz float64
	IPC     float64

	// Contention: modeled slowdown factor
	// 1 + ContentionCoef * (N/ContentionScale)^ContentionExp.
	ContentionCoef  float64
	ContentionExp   float64
	ContentionScale float64

	// JitterMeanPerK is the mean of the exponential scheduling-jitter
	// term per 1000 aircraft, redrawn each task invocation.
	JitterMeanPerK time.Duration

	// BarrierCost is charged once per parallel phase (thread join plus
	// cache-line ping-pong at the barrier).
	BarrierCost time.Duration

	// LockCycles is charged per lock acquisition.
	LockCycles int
}

// Xeon16 is the paper's multicore baseline: a 16-core Intel Xeon.
var Xeon16 = Profile{
	Name:            "Intel Xeon (16 cores)",
	Cores:           16,
	ClockHz:         2.4e9,
	IPC:             1.2,
	ContentionCoef:  0.08,
	ContentionExp:   1.2,
	ContentionScale: 2000,
	JitterMeanPerK:  3 * time.Millisecond,
	BarrierCost:     50 * time.Microsecond,
	LockCycles:      120,
}

// Machine executes the ATM tasks on a modeled multicore. Each Machine
// owns a private jitter stream that advances across calls, so repeated
// executions of the same task take different modeled times — by design.
// A Machine is not safe for concurrent use: it owns reusable scratch
// arrays so steady-state task invocations allocate nothing.
type Machine struct {
	prof   Profile
	jitter *rng.Rand
	src    broadphase.PairSource
	pool   *parexec.Pool
	scr    scratch

	// Telemetry phase marks: per-core cumulative op snapshots taken
	// after each parallel phase when a recorder is attached, converted
	// to critical-path spans by the platform adapter. Machine-owned
	// scratch, reused across tasks.
	marks   []phaseMark
	markOps []uint64 // len(marks)*Cores cumulative per-core ops
	marksOn bool
}

// phaseMark names one parallel phase; its work snapshot lives at the
// matching offset of markOps.
type phaseMark struct {
	name string
	arg  int32
}

// beginMarks clears the mark log and enables collection for the next
// task.
func (m *Machine) beginMarks() {
	m.marks = m.marks[:0]
	m.markOps = m.markOps[:0]
	m.marksOn = true
}

// markPhase snapshots the cumulative per-core tally at the end of a
// parallel phase; a no-op unless beginMarks was called. name must be
// a static string so steady-state marking stays allocation-free.
//
//atm:noalloc
func (m *Machine) markPhase(t *workTally, name string, arg int32) {
	if !m.marksOn {
		return
	}
	m.marks = append(m.marks, phaseMark{name: name, arg: arg})
	m.markOps = append(m.markOps, t.ops...)
}

// scratch holds the machine-owned arrays reused across invocations.
type scratch struct {
	tally     workTally
	locks     []sync.Mutex //atm:allow sync -- machine-owned stripe locks; arbitration order is the modeled FCFS behaviour
	state     []int32
	matchedBy []int32

	// snap is the committed-course snapshot in column (SoA) form.
	snap         airspace.Columns
	newDX, newDY []float64
	resolved     []bool

	// view serves the pruned scan's candidate sets; bufs holds the
	// per-track queries it may append.
	view broadphase.View
	bufs []candBuf
}

// candBuf is one modeled core's candidate buffer for the pruned scan,
// padded against false sharing of the slice headers.
type candBuf struct {
	cand []int32
	_    [40]byte
}

func growF(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// New returns a machine with the given profile; seed fixes the jitter
// stream so whole-program runs stay reproducible.
func New(p Profile, seed uint64) *Machine {
	if p.Cores <= 0 {
		panic("mimd: profile needs at least one core")
	}
	return &Machine{prof: p, jitter: rng.New(seed)}
}

// Name returns the machine name.
func (m *Machine) Name() string { return m.prof.Name }

// SetPairSource installs a broadphase pair source for the Tasks 2-3
// scan (nil restores the all-pairs scan). A shared-memory multicore is
// the natural home for pruning: the index lives in the same shared
// memory the workers already scan.
func (m *Machine) SetPairSource(src broadphase.PairSource) { m.src = src }

// SetWorkers pins the host worker count that executes the modeled
// cores (n <= 0 restores the process-default pool). Host workers only
// change wall-clock speed: modeled time derives from per-core op
// tallies over the static core partition, which is identical at any
// worker count.
func (m *Machine) SetWorkers(n int) {
	if n <= 0 {
		m.pool = nil
	} else {
		m.pool = parexec.NewPool(n)
	}
}

// Deterministic reports false: MIMD timing varies run to run, which is
// the paper's core argument against it for hard real-time systems.
func (m *Machine) Deterministic() bool { return false }

// Aircraft match states for the lock-arbitrated correlation, kept in
// int32 so they can be read atomically by scanning workers.
const (
	acFree int32 = iota
	acMatched
	acWithdrawn
)

// workTally accumulates per-core op counts and lock statistics.
type workTally struct {
	ops   []uint64 // per worker
	locks uint64   // total lock acquisitions (atomic)
}

// tally resets and returns the machine's reusable work tally.
func (m *Machine) tally() *workTally {
	t := &m.scr.tally
	if cap(t.ops) < m.prof.Cores {
		t.ops = make([]uint64, m.prof.Cores)
	}
	t.ops = t.ops[:m.prof.Cores]
	for i := range t.ops {
		t.ops[i] = 0
	}
	t.locks = 0
	return t
}

// maxOps folds the per-core op tallies to the critical-path maximum.
//
//atm:ordered-merge
func (t *workTally) maxOps() uint64 {
	var m uint64
	for _, v := range t.ops {
		if v > m {
			m = v
		}
	}
	return m
}

// parallel runs body(core, lo, hi) over the static contiguous
// partition of [0, n) across the modeled cores. The logical cores are
// multiplexed onto the host worker pool: partitions — and therefore
// per-core op tallies and the modeled critical path — are fixed by the
// core count alone, while the host worker count only decides how many
// cores make real progress at once.
func (m *Machine) parallel(n int, body func(core, lo, hi int)) {
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
}

// contention returns the modeled slowdown factor at database size n.
func (m *Machine) contention(n int) float64 {
	p := &m.prof
	if n == 0 {
		return 1
	}
	return 1 + p.ContentionCoef*math.Pow(float64(n)/p.ContentionScale, p.ContentionExp)
}

// taskTime converts a tally into modeled time for one task invocation.
func (m *Machine) taskTime(n, phases int, t *workTally) time.Duration {
	p := &m.prof
	ops := t.maxOps() + t.locks*uint64(p.LockCycles)/uint64(p.Cores)
	base := float64(ops) / (p.IPC * p.ClockHz) * m.contention(n)
	jitter := m.jitter.Exp(float64(p.JitterMeanPerK) * float64(n) / 1000)
	return time.Duration(base*float64(time.Second)) +
		time.Duration(phases)*p.BarrierCost +
		time.Duration(jitter)
}

// Abstract op charges, aligned with the CUDA kernel charges so the
// platforms are compared on the same work units.
const (
	opsExpected  = 6
	opsBoxCheck  = 10
	opsClaim     = 12 // claim bookkeeping under a lock
	opsCommit    = 8
	opsWrap      = 6
	opsPairCheck = 40
	opsRotate    = 14
	// opsIndexBuild is charged per aircraft when a broadphase pair
	// source builds its index (envelope computation plus insertion).
	opsIndexBuild = 12
)

// lockStripes spreads per-aircraft locks to keep the real contention
// in the simulator itself bounded.
const lockStripes = 256

// Track runs Task 1 with radars partitioned across cores and
// first-come-first-served, lock-arbitrated claiming: the natural
// shared-memory port of Algorithm 1. Ambiguous geometry is therefore
// resolved in arrival order — nondeterministically under real
// concurrency, exactly as on real hardware.
//
//atm:allow sync,atomic -- FCFS lock-striped claim arbitration IS the modeled behaviour: this platform reports Deterministic()==false and its results are asserted only against the task invariants, never bit-for-bit
func (m *Machine) Track(w *airspace.World, f *radar.Frame) (tasks.CorrelateStats, time.Duration) {
	var st tasks.CorrelateStats
	n := w.N()
	r := f.N()
	ac := w.Aircraft
	reps := f.Reports
	tally := m.tally()
	phases := 0

	if cap(m.scr.state) < n {
		m.scr.state = make([]int32, n)
		m.scr.matchedBy = make([]int32, n)
	}
	if m.scr.locks == nil {
		m.scr.locks = make([]sync.Mutex, lockStripes)
	}
	state := m.scr.state[:n]         // acFree/acMatched/acWithdrawn
	matchedBy := m.scr.matchedBy[:n] // radar currently paired with aircraft
	locks := m.scr.locks

	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.ExpX = a.X + a.DX
			a.ExpY = a.Y + a.DY
			a.RMatch = airspace.MatchNone
			state[i] = acFree
			matchedBy[i] = -1
			ops += opsExpected
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "expected", 0)
	f.Reset()

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
		phases++
		var comparisons, discarded, withdrawn uint64
		m.parallel(r, func(core, lo, hi int) {
			var ops, comps uint64
			for j := lo; j < hi; j++ {
				rep := &reps[j]
				// A concurrent withdrawal may release this radar while
				// we read it, so the load must be atomic.
				if atomic.LoadInt32(&rep.MatchWith) != radar.Unmatched {
					continue
				}
				hits := 0
				cand := int32(-1)
				for p := 0; p < n; p++ {
					if atomic.LoadInt32(&state[p]) == acWithdrawn {
						continue
					}
					ops += opsBoxCheck
					comps++
					a := &ac[p]
					if rep.RX > a.ExpX-boxHalf && rep.RX < a.ExpX+boxHalf &&
						rep.RY > a.ExpY-boxHalf && rep.RY < a.ExpY+boxHalf {
						hits++
						cand = a.ID
						if hits > 1 {
							break
						}
					}
				}
				switch {
				case hits >= 2:
					atomic.StoreInt32(&rep.MatchWith, radar.Discarded)
					atomic.AddUint64(&discarded, 1)
				case hits == 1:
					ops += opsClaim
					atomic.AddUint64(&tally.locks, 1)
					mu := &locks[int(cand)%lockStripes]
					mu.Lock()
					switch atomic.LoadInt32(&state[cand]) {
					case acFree:
						atomic.StoreInt32(&state[cand], acMatched)
						matchedBy[cand] = int32(j)
						atomic.StoreInt32(&rep.MatchWith, cand)
					case acMatched:
						// Second radar reached an already-paired
						// aircraft: withdraw it and release its radar
						// (Algorithm 1 line 8). This radar retries with
						// the next, doubled box.
						atomic.StoreInt32(&state[cand], acWithdrawn)
						atomic.AddUint64(&withdrawn, 1)
						if prev := matchedBy[cand]; prev >= 0 {
							atomic.StoreInt32(&reps[prev].MatchWith, radar.Unmatched)
							matchedBy[cand] = -1
						}
					}
					mu.Unlock()
				}
			}
			tally.ops[core] += ops
			atomic.AddUint64(&comparisons, comps)
		})
		m.markPhase(tally, "boxpass", int32(pass))
		st.Comparisons += int(comparisons)
		st.DiscardedRadars += int(discarded)
		st.WithdrawnAircraft += int(withdrawn)
		boxHalf *= 2
	}

	// Commit phase.
	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.X, a.Y = a.ExpX, a.ExpY
			if state[i] == acMatched {
				a.RMatch = airspace.MatchOne
			} else if state[i] == acWithdrawn {
				a.RMatch = airspace.MatchDiscarded
			}
			ops += opsCommit
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "commit", 0)
	phases++
	var matched uint64
	m.parallel(r, func(core, lo, hi int) {
		var ops uint64
		for j := lo; j < hi; j++ {
			rep := &reps[j]
			ops += opsCommit
			if rep.MatchWith >= 0 && state[rep.MatchWith] == acMatched {
				a := &ac[rep.MatchWith]
				a.X, a.Y = rep.RX, rep.RY
				atomic.AddUint64(&matched, 1)
			}
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "commitRadar", 0)
	st.Matched = int(matched)
	for j := range reps {
		if reps[j].MatchWith == radar.Unmatched {
			st.UnmatchedRadars++
		}
	}
	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			airspace.Wrap(&ac[i])
			ops += opsWrap
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "wrap", 0)

	return st, m.taskTime(n, phases, tally)
}

// DetectResolve runs Tasks 2-3 with aircraft partitioned across cores.
// Workers scan a shared snapshot of committed courses and write only
// their own aircraft, then a commit phase applies resolved courses —
// the same snapshot discipline as the CUDA kernel, since a lock-free
// shared-memory implementation needs it just as much.
//
//atm:allow atomic -- per-core conflict and rotation tallies are order-independent sums read only after the join
func (m *Machine) DetectResolve(w *airspace.World) (tasks.DetectStats, time.Duration) {
	n := w.N()
	ac := w.Aircraft
	tally := m.tally()
	phases := 0

	scr := &m.scr
	scr.snap.Resize(n)
	scr.newDX = growF(scr.newDX, n)
	scr.newDY = growF(scr.newDY, n)
	if cap(scr.resolved) < n {
		scr.resolved = make([]bool, n)
	}
	if len(scr.bufs) < m.prof.Cores {
		scr.bufs = make([]candBuf, m.prof.Cores)
	}
	snapX, snapY := scr.snap.X, scr.snap.Y
	snapDX, snapDY := scr.snap.DX, scr.snap.DY
	snapAlt := scr.snap.Alt
	newDX, newDY := scr.newDX, scr.newDY
	resolved := scr.resolved[:n]

	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			a := &ac[i]
			snapX[i], snapY[i] = a.X, a.Y
			snapDX[i], snapDY[i] = a.DX, a.DY
			snapAlt[i] = a.Alt
			newDX[i], newDY[i] = a.DX, a.DY
			resolved[i] = false
			ops += opsExpected
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "snapshot", 0)

	// Broadphase index build: single-threaded host-side preparation,
	// charged as one extra phase of per-aircraft work. The snapshot is
	// already committed, and courses only rotate (same speed) during
	// resolution, so the index stays valid for the whole task. A
	// maintained source (the production sweep) also builds its
	// candidate table on the host pool. Only the phase mark's name
	// reports which — the charge is identical, as bit-identity
	// requires.
	if m.src != nil {
		scr.view = broadphase.PrepareView(m.src, w, &scr.snap, parexec.Resolve(m.pool))
		name := "index"
		if scr.view.Maintained() {
			name = "index.rebuild"
		}
		phases++
		m.parallel(n, func(core, lo, hi int) {
			tally.ops[core] += uint64(hi-lo) * opsIndexBuild
		})
		m.markPhase(tally, name, 0)
	}

	var conflicts, rotations, resolvedCount, unresolvedCount, pairChecks uint64
	scanOne := func(i, p int, vx, vy float64, checks *uint64, ops *uint64,
		earliest *float64, with *int32) {
		if p == i || math.Abs(snapAlt[p]-snapAlt[i]) >= airspace.AltBandFeet {
			*ops++
			return
		}
		*checks++
		tmin, tmax, ok := tasks.PairConflictAt(snapX[i], snapY[i], vx, vy,
			snapX[p], snapY[p], snapDX[p], snapDY[p])
		if ok && tmin < tmax && tmin < *earliest {
			*earliest = tmin
			*with = int32(p)
		}
	}
	scan := func(core, i int, vx, vy float64, ops *uint64) (earliest float64, with int32, critical bool) {
		earliest = airspace.SafeTime
		with = airspace.NoConflict
		checks := uint64(0)
		if m.src == nil {
			for p := 0; p < n; p++ {
				scanOne(i, p, vx, vy, &checks, ops, &earliest, &with)
			}
		} else {
			for _, p := range scr.view.Candidates(&scr.bufs[core].cand, w, i) {
				scanOne(i, int(p), vx, vy, &checks, ops, &earliest, &with)
			}
		}
		*ops += checks * opsPairCheck
		atomic.AddUint64(&pairChecks, checks)
		return earliest, with, earliest < airspace.CriticalTime
	}

	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			a := &ac[i]
			a.ResetConflict()
			tmin, with, critical := scan(core, i, snapDX[i], snapDY[i], &ops)
			if !critical {
				continue
			}
			atomic.AddUint64(&conflicts, 1)
			a.Col = true
			a.ColWith = with
			a.TimeTill = tmin
			base := geom.Vec2{X: snapDX[i], Y: snapDY[i]}
			done := false
			for _, deg := range tasks.RotationSchedule() {
				atomic.AddUint64(&rotations, 1)
				ops += opsRotate
				v := base.Rotate(deg)
				a.BatX, a.BatY = v.X, v.Y
				tmin, with, critical = scan(core, i, v.X, v.Y, &ops)
				if !critical {
					newDX[i], newDY[i] = v.X, v.Y
					resolved[i] = true
					atomic.AddUint64(&resolvedCount, 1)
					done = true
					break
				}
				a.ColWith = with
				if tmin < a.TimeTill {
					a.TimeTill = tmin
				}
			}
			if !done {
				atomic.AddUint64(&unresolvedCount, 1)
			}
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "scanresolve", 0)

	phases++
	m.parallel(n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			ops += opsCommit
			if resolved[i] {
				a := &ac[i]
				a.DX, a.DY = newDX[i], newDY[i]
				a.ResetConflict()
			}
		}
		tally.ops[core] += ops
	})
	m.markPhase(tally, "commit", 0)

	st := tasks.DetectStats{
		Conflicts:  int(conflicts),
		Rotations:  int(rotations),
		Resolved:   int(resolvedCount),
		Unresolved: int(unresolvedCount),
		PairChecks: int(pairChecks),
	}
	return st, m.taskTime(n, phases, tally)
}
