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
	"repro/internal/cores"
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
	// cores runs the tasks' phases and holds the per-core op tallies.
	cores cores.Cores
	scr   scratch
}

// scratch holds the machine-owned arrays reused across invocations.
type scratch struct {
	// acquired counts a Track call's lock acquisitions (atomic).
	acquired  uint64
	locks     []sync.Mutex //atm:allow sync -- machine-owned stripe locks; arbitration order is the modeled FCFS behaviour
	state     []int32
	matchedBy []int32
	// hits serves the census its box-hit rows, bufs holds each modeled
	// core's buffer for a row served on demand. withdrawals[:logged]
	// logs this Track call's withdrawals in claim order, each as its
	// aircraft index plus one, so that a slot claimed but not yet
	// written reads 0.
	hits        tasks.BoxHits
	bufs        []tasks.ScanBuf
	withdrawals []int32
	logged      atomic.Int32 //atm:allow atomic -- the withdrawal log's slot counter; slots are claimed in arbitration order, the modeled FCFS behaviour, and read only as a count

	// snap is DetectResolve's snapshot of committed courses; its slots
	// are the modeled cores.
	snap tasks.Snapshot
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
func (m *Machine) SetWorkers(n int) { m.cores.SetWorkers(n) }

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

// contention returns the modeled slowdown factor at database size n.
func (m *Machine) contention(n int) float64 {
	p := &m.prof
	if n == 0 {
		return 1
	}
	return 1 + p.ContentionCoef*math.Pow(float64(n)/p.ContentionScale, p.ContentionExp)
}

// taskTime converts the critical core's tally and the task's locks
// acquired into modeled time for one task invocation.
func (m *Machine) taskTime(n int, locks uint64) time.Duration {
	p := &m.prof
	_, crit := m.cores.Critical()
	ops := crit + locks*uint64(p.LockCycles)/uint64(p.Cores)
	base := float64(ops) / (p.IPC * p.ClockHz) * m.contention(n)
	jitter := m.jitter.Exp(float64(p.JitterMeanPerK) * float64(n) / 1000)
	return time.Duration(base*float64(time.Second)) +
		time.Duration(m.cores.Phases())*p.BarrierCost +
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
	cs := &m.cores
	cs.Reset(m.prof.Cores)

	scr := &m.scr
	scr.acquired = 0
	clear(scr.withdrawals[:scr.logged.Load()])
	scr.logged.Store(0)
	if cap(scr.state) < n {
		scr.state = make([]int32, n)
		scr.matchedBy = make([]int32, n)
		scr.withdrawals = make([]int32, n)
	}
	if scr.locks == nil {
		scr.locks = make([]sync.Mutex, lockStripes)
	}
	if len(scr.bufs) < m.prof.Cores {
		scr.bufs = make([]tasks.ScanBuf, m.prof.Cores)
	}
	state := scr.state[:n]         // acFree/acMatched/acWithdrawn
	matchedBy := scr.matchedBy[:n] // radar currently paired with aircraft
	locks := scr.locks
	withdrawals := scr.withdrawals[:n]

	cs.Phase("expected", 0, n, func(core, lo, hi int) {
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
		cs.Add(core, ops)
	})
	f.Reset()

	boxHalf := tasks.InitialBoxHalf
	for pass := 0; pass < tasks.BoxPasses; pass++ {
		pending := scr.hits.Prepare(w, f, boxHalf, cs.Pool())
		st.PassRadars[pass] = pending
		if pending == 0 {
			break
		}
		var comparisons, discarded, withdrawn uint64
		cs.Phase("boxpass", int32(pass), r, func(core, lo, hi int) {
			var ops, comps uint64
			for j := lo; j < hi; j++ {
				rep := &reps[j]
				// A concurrent withdrawal may release this radar while
				// we read it, so the load must be atomic.
				if atomic.LoadInt32(&rep.MatchWith) != radar.Unmatched {
					continue
				}
				// Walk the radar's box-hit row, skipping aircraft
				// withdrawn at read time, up to the second hit. A radar
				// released mid-pass is served its row on demand.
				hits := 0
				cand := int32(-1)
				stop := int32(n - 1)
				for _, q := range scr.hits.Row(w, f, &scr.bufs[core], j) {
					if atomic.LoadInt32(&state[q]) == acWithdrawn {
						continue
					}
					hits++
					cand = q
					if hits > 1 {
						stop = q
						break
					}
				}
				// The scan tests every aircraft not withdrawn, up to
				// stop.
				checked := uint64(stop+1) - scr.withdrawnThrough(stop)
				ops += opsBoxCheck * checked
				comps += checked
				switch {
				case hits >= 2:
					atomic.StoreInt32(&rep.MatchWith, radar.Discarded)
					atomic.AddUint64(&discarded, 1)
				case hits == 1:
					ops += opsClaim
					atomic.AddUint64(&scr.acquired, 1)
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
						slot := scr.logged.Add(1) - 1
						atomic.StoreInt32(&withdrawals[slot], cand+1)
						if prev := matchedBy[cand]; prev >= 0 {
							atomic.StoreInt32(&reps[prev].MatchWith, radar.Unmatched)
							matchedBy[cand] = -1
						}
					}
					mu.Unlock()
				}
			}
			cs.Add(core, ops)
			atomic.AddUint64(&comparisons, comps)
		})
		st.Comparisons += int(comparisons)
		st.DiscardedRadars += int(discarded)
		st.WithdrawnAircraft += int(withdrawn)
		boxHalf *= 2
	}

	// Commit phase.
	cs.Phase("commit", 0, n, func(core, lo, hi int) {
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
		cs.Add(core, ops)
	})
	var matched uint64
	cs.Phase("commitRadar", 0, r, func(core, lo, hi int) {
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
		cs.Add(core, ops)
	})
	st.Matched = int(matched)
	for j := range reps {
		if reps[j].MatchWith == radar.Unmatched {
			st.UnmatchedRadars++
		}
	}
	cs.Phase("wrap", 0, n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			airspace.Wrap(&ac[i])
			ops += opsWrap
		}
		cs.Add(core, ops)
	})

	return st, m.taskTime(n, scr.acquired)
}

// withdrawnThrough counts the logged withdrawals of aircraft with index
// at most stop. At one worker the log is complete whenever a census
// reads it; above one, as with the census's own reads, what it holds
// depends on the interleaving.
//
//atm:allow atomic -- the withdrawal log is read while other cores may append to it; a slot not yet written reads 0 and counts as no withdrawal
func (s *scratch) withdrawnThrough(stop int32) uint64 {
	c := uint64(0)
	for k := range s.logged.Load() {
		if e := atomic.LoadInt32(&s.withdrawals[k]); e > 0 && e <= stop+1 {
			c++
		}
	}
	return c
}

// DetectResolve runs Tasks 2-3 with aircraft partitioned across cores.
// Workers run the shared snapshot step (tasks.Snapshot) on their
// tracks, scanning a shared snapshot of committed courses and writing
// only their own aircraft, then a commit phase applies resolved
// courses — the same snapshot discipline as the CUDA kernel, since a
// lock-free shared-memory implementation needs it just as much.
func (m *Machine) DetectResolve(w *airspace.World) (tasks.DetectStats, time.Duration) {
	n := w.N()
	cs := &m.cores
	cs.Reset(m.prof.Cores)
	snap := &m.scr.snap
	snap.Prepare(w, m.src, cs.Pool(), m.prof.Cores)

	// The snapshot copy, charged per aircraft; the host made it above.
	cs.Phase("snapshot", 0, n, func(core, lo, hi int) {
		cs.Add(core, uint64(hi-lo)*opsExpected)
	})

	// Broadphase index build: single-threaded host-side preparation,
	// charged as one extra phase of per-aircraft work. The snapshot is
	// already committed, and courses only rotate (same speed) during
	// resolution, so the index stays valid for the whole task. A
	// maintained source (the production sweep) also builds its
	// candidate table on the host pool. Only the phase mark's name
	// reports which — the charge is identical, as bit-identity
	// requires. With no source the view serves every aircraft and no
	// phase is charged.
	if m.src != nil {
		name := "index"
		if snap.Maintained() {
			name = "index.rebuild"
		}
		cs.Phase(name, 0, n, func(core, lo, hi int) {
			cs.Add(core, uint64(hi-lo)*opsIndexBuild)
		})
	}

	// Every scan is charged opsPairCheck per pair check and one filter
	// compare per other candidate, itself included, and every probe
	// opsRotate besides. A track's probes have its detection scan's
	// candidates and checks.
	cs.Phase("scanresolve", 0, n, func(core, lo, hi int) {
		var ops uint64
		for i := lo; i < hi; i++ {
			r := snap.Detect(w, core, i)
			probes := uint64(0)
			if r.Critical() {
				p, _ := snap.Resolve(w, core, i)
				probes = uint64(p)
			}
			scan := uint64(r.Checks)*opsPairCheck + uint64(r.Cands-r.Checks)
			ops += (1+probes)*scan + probes*opsRotate
		}
		cs.Add(core, ops)
	})

	cs.Phase("commit", 0, n, func(core, lo, hi int) {
		for i := lo; i < hi; i++ {
			snap.Commit(w, i)
		}
		cs.Add(core, uint64(hi-lo)*opsCommit)
	})

	return snap.Stats(), m.taskTime(n, 0)
}
