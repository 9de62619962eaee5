// Package ap simulates an associative processor (AP) — the enhanced
// SIMD architecture of the STARAN computer that the paper (and its
// predecessors [12, 13]) uses as the gold standard for deterministic,
// linear-time ATM. It also models the ClearSpeed CSX600 accelerator
// that [12, 13] used to emulate an AP.
//
// The machine executes real AP programs: a sequential control unit
// (ordinary Go code) issues wide operations over the aircraft database
// — masked element-wise arithmetic, associative searches, constant-time
// count/min reductions, responder selection — and every issued
// operation charges its cycle cost. The modeled task time is
// cycles/clock, a pure function of the instruction trace, which makes
// the AP timing exactly as deterministic as the paper requires.
//
// Two profiles are provided:
//
//   - STARAN: the idealized associative processor of [12, 13], with one
//     PE per aircraft record (the AP scales its PE array with the
//     problem) and the constant-time broadcast/search/reduce hardware
//     of the STARAN flip network. Following [13]'s argument that a
//     present-day AP would run at memory speeds, the profile uses a
//     modernized 40 MHz word-serial clock rather than the 1972 part's.
//   - ClearSpeed CSX600: 2 chips x 96 PEs = 192 PEs at 210 MHz. With
//     more records than PEs, every wide operation is tiled over
//     ceil(N/192) virtual-PE planes, which is what bends the emulation's
//     curve away from the ideal AP's perfectly linear one.
package ap

import (
	"fmt"
	"time"

	"repro/internal/broadphase"
	"repro/internal/parexec"
)

// peGrain is the chunk size the host worker pool hands out when a wide
// operation's element loop is fanned across workers. Reductions store
// one partial per chunk and merge them in ascending chunk order, so
// results are bit-for-bit identical at any worker count.
const peGrain = 1024

// Profile describes one associative machine for the cost model.
type Profile struct {
	// Name of the machine.
	Name string
	// PEs is the physical processing-element count; 0 means one PE per
	// record (the idealized AP whose array grows with the database).
	PEs int
	// ClockHz is the instruction clock.
	ClockHz float64

	// Per-instruction cycle costs.
	// BroadcastCycles: control unit broadcasts one scalar word to all PEs.
	BroadcastCycles int
	// ArithCycles: one masked element-wise arithmetic/compare step, per
	// tile of PEs.
	ArithCycles int
	// ReduceCycles: one constant-time associative reduction (count,
	// min/max, any-responder) over a tile.
	ReduceCycles int
	// SelectCycles: selecting (stepping to) one responder.
	SelectCycles int
	// ScalarCycles: one control-unit scalar operation.
	ScalarCycles int
}

// STARAN is the idealized associative processor profile (see package
// comment for the modernization caveat). The 160 MHz word-serial clock
// follows [13]'s argument that a present-day AP would run at memory
// speeds; it is calibrated so the AP stays inside its feasible envelope
// (no deadline misses) through the 16000-aircraft sweep, as the paper
// reports.
var STARAN = Profile{
	Name:            "STARAN AP",
	PEs:             0, // one PE per aircraft
	ClockHz:         160e6,
	BroadcastCycles: 4,
	ArithCycles:     16, // bit-serial word arithmetic
	ReduceCycles:    24, // flip-network reduction
	SelectCycles:    8,
	ScalarCycles:    2,
}

// ClearSpeedCSX600 is the SIMD accelerator used in [12, 13] to emulate
// an AP: 2 chips x 96 PEs with 32-bit ALUs at 210 MHz. Per-PE word
// operations are single-cycle (the CSX600 ALU datapath); the dominant
// cost is the virtual-PE tiling over ceil(N/192) planes. Under this
// calibration the emulation stays deadline-feasible through 8000
// aircraft and exits its envelope at 16000 — see DESIGN.md.
var ClearSpeedCSX600 = Profile{
	Name:            "ClearSpeed CSX600",
	PEs:             192,
	ClockHz:         210e6,
	BroadcastCycles: 2,
	ArithCycles:     1, // single-cycle 32-bit ALU per PE
	ReduceCycles:    4,
	SelectCycles:    4,
	ScalarCycles:    1,
}

// Profiles lists the built-in associative machine profiles.
func Profiles() []Profile { return []Profile{STARAN, ClearSpeedCSX600} }

// Machine is one associative processor executing over a database of n
// records. It is not safe for concurrent use: an AP has exactly one
// control unit. The control unit stays strictly sequential; only the
// element loops of the wide operations (which on the modeled hardware
// execute on every PE at once) are fanned across the host worker pool,
// with per-chunk partials merged in fixed chunk order so the outcome —
// and the cycle tally, which is charged before the loop runs — is
// identical at any worker count.
type Machine struct {
	prof   Profile
	n      int
	cycles uint64
	pool   *parexec.Pool

	// mask is the current responder mask over the PE array.
	mask []bool
	// scratch is a reusable per-PE temporary register (one wide word).
	scratch []float64
	// candMask is a per-PE candidate flag used by the opt-in broadphase
	// variant of the detection program.
	candMask []bool
	// view is the detection program's broadphase candidate view, and
	// candBuf the reusable buffer of its per-track queries for the
	// control-unit scatter.
	view    broadphase.View
	candBuf []int32
	// matchedRadar is TrackProgram's per-aircraft paired-radar table.
	matchedRadar []int32

	// Per-chunk reduction partials.
	partBest []float64
	partArg  []int32
	partCnt  []int32

	// args holds the operands of the programs' wide ops, which the
	// control unit sets before issuing them as the hardware broadcasts
	// them to every PE. Element bodies are plain functions of the
	// machine and a PE index, and every wide op dispatches the one
	// persistent job, so issuing a wide op allocates nothing.
	args operands
	job  wideJob

	// Telemetry phase marks: cycle-counter checkpoints noted by the
	// programs when a recorder is attached (marksOn), converted to
	// spans by the platform adapter after the task. Machine-owned
	// scratch, reused across tasks.
	marks   []phaseMark
	marksOn bool
}

// phaseMark notes the cycle count at which a named program phase
// began; the phase ends where the next mark (or the task) ends.
type phaseMark struct {
	name   string
	arg    int32
	cycles uint64
}

// beginMarks clears the mark log and enables mark collection for the
// next program run.
func (m *Machine) beginMarks() {
	m.marks = m.marks[:0]
	m.marksOn = true
}

// mark notes a phase boundary; a no-op unless beginMarks was called.
// name must be a static string so steady-state marking stays
// allocation-free.
//
//atm:noalloc
func (m *Machine) mark(name string, arg int32) {
	if m.marksOn {
		m.marks = append(m.marks, phaseMark{name: name, arg: arg, cycles: m.cycles})
	}
}

// wideKind selects the element loop a wideJob runs.
type wideKind uint8

const (
	wideParallel wideKind = iota
	wideSearch
	wideMaskAnd
	wideCount
	wideMin
	wideMax
)

// wideJob is the host body of every wide op. The reductions store one
// partial per chunk for the control unit's ordered merge.
type wideJob struct {
	m     *Machine
	kind  wideKind
	op    func(m *Machine, i int)
	pred  func(m *Machine, i int) bool
	value func(m *Machine, i int) float64
	def   float64
}

// Chunk runs the job's element loop over PEs [lo, hi).
//
//atm:noalloc
func (j *wideJob) Chunk(_, lo, hi int) {
	m, mask := j.m, j.m.mask
	switch j.kind {
	case wideParallel:
		for i := lo; i < hi; i++ {
			j.op(m, i)
		}
	case wideSearch:
		for i := lo; i < hi; i++ {
			mask[i] = j.pred(m, i)
		}
	case wideMaskAnd:
		for i := lo; i < hi; i++ {
			if mask[i] {
				mask[i] = j.pred(m, i)
			}
		}
	case wideCount:
		c := int32(0)
		for i := lo; i < hi; i++ {
			if mask[i] {
				c++
			}
		}
		m.partCnt[lo/peGrain] = c
	case wideMin, wideMax:
		best, arg := j.def, int32(-1)
		for i := lo; i < hi; i++ {
			if !mask[i] {
				continue
			}
			if v := j.value(m, i); j.kind == wideMin && v < best || j.kind == wideMax && v > best {
				best, arg = v, int32(i)
			}
		}
		m.partBest[lo/peGrain], m.partArg[lo/peGrain] = best, arg
	}
}

// dispatch runs the job, set up by the caller, over every PE.
func (m *Machine) dispatch(kind wideKind) {
	m.job.m = m
	m.job.kind = kind
	parexec.Resolve(m.pool).RunBody(m.n, peGrain, &m.job)
}

// timeAt converts a cycle checkpoint to modeled time, with the same
// rounding as Time.
func (m *Machine) timeAt(cycles uint64) time.Duration {
	return time.Duration(float64(cycles) / m.prof.ClockHz * float64(time.Second))
}

// NewMachine returns a machine sized for n records.
func NewMachine(p Profile, n int) *Machine {
	if n < 0 {
		panic(fmt.Sprintf("ap: NewMachine with negative n %d", n))
	}
	return &Machine{prof: p, n: n, mask: make([]bool, n)}
}

// Profile returns the machine's profile.
func (m *Machine) Profile() Profile { return m.prof }

// SetWorkers pins the host worker count used to execute the wide
// element loops (n <= 0 restores the process-default pool). Cycle
// charges are issued by the sequential control unit before each loop,
// so modeled time is unaffected.
func (m *Machine) SetWorkers(n int) {
	if n <= 0 {
		m.pool = nil
	} else {
		m.pool = parexec.NewPool(n)
	}
}

// chunks returns the number of grain-sized chunks covering the PE
// array, growing the per-chunk partial arrays to match.
func (m *Machine) chunks() int {
	c := (m.n + peGrain - 1) / peGrain
	if cap(m.partBest) < c {
		m.partBest = make([]float64, c)
		m.partArg = make([]int32, c)
		m.partCnt = make([]int32, c)
	}
	m.partBest = m.partBest[:c]
	m.partArg = m.partArg[:c]
	m.partCnt = m.partCnt[:c]
	return c
}

// N returns the database size the machine is configured for.
func (m *Machine) N() int { return m.n }

// Cycles returns the cycles charged so far.
func (m *Machine) Cycles() uint64 { return m.cycles }

// ResetCycles zeroes the cycle counter (between tasks).
func (m *Machine) ResetCycles() { m.cycles = 0 }

// Time converts the charged cycles to modeled wall time.
func (m *Machine) Time() time.Duration {
	return time.Duration(float64(m.cycles) / m.prof.ClockHz * float64(time.Second))
}

// Tiles returns how many PE planes one wide operation must be repeated
// over: 1 for the idealized AP, ceil(n/PEs) for a fixed-width machine.
func (m *Machine) Tiles() int {
	if m.prof.PEs <= 0 || m.n == 0 {
		return 1
	}
	return (m.n + m.prof.PEs - 1) / m.prof.PEs
}

// chargeWide charges units wide-arithmetic steps across all planes.
func (m *Machine) chargeWide(units int) {
	m.cycles += uint64(units*m.prof.ArithCycles) * uint64(m.Tiles())
}

// Broadcast charges the cost of broadcasting words scalar words from
// the control unit to every PE.
func (m *Machine) Broadcast(words int) {
	m.cycles += uint64(words * m.prof.BroadcastCycles)
}

// Scalar charges n control-unit scalar operations.
func (m *Machine) Scalar(n int) {
	m.cycles += uint64(n * m.prof.ScalarCycles)
}

// ParallelOp executes f on every record index (a masked wide operation
// touching every PE) and charges units arithmetic steps. The mask
// discipline is left to f so that programs read like their AP assembly:
// the hardware executes all PEs, masked ones simply don't store. Like
// the PE array it models, f must be element-wise independent: it may
// only read shared state and write state owned by record i.
func (m *Machine) ParallelOp(units int, f func(m *Machine, i int)) {
	m.chargeWide(units)
	m.job.op = f
	m.dispatch(wideParallel)
}

// Search performs an associative search: it sets the responder mask to
// pred over all records and charges units comparison steps. pred must
// be element-wise independent (see ParallelOp).
func (m *Machine) Search(units int, pred func(m *Machine, i int) bool) {
	m.chargeWide(units)
	m.job.pred = pred
	m.dispatch(wideSearch)
}

// MaskAnd narrows the responder mask with pred (one wide step). pred
// must be element-wise independent (see ParallelOp).
func (m *Machine) MaskAnd(pred func(m *Machine, i int) bool) {
	m.chargeWide(1)
	m.job.pred = pred
	m.dispatch(wideMaskAnd)
}

// Mask exposes the current responder mask (read-only use by programs).
func (m *Machine) Mask() []bool { return m.mask }

// AnyResponder reports whether any PE responds (constant-time in AP
// hardware).
func (m *Machine) AnyResponder() bool {
	m.cycles += uint64(m.prof.ReduceCycles) * uint64(m.Tiles())
	for i := 0; i < m.n; i++ {
		if m.mask[i] {
			return true
		}
	}
	return false
}

// CountResponders returns the number of responders (constant-time
// reduction in AP hardware).
//
//atm:ordered-merge
func (m *Machine) CountResponders() int {
	m.cycles += uint64(m.prof.ReduceCycles) * uint64(m.Tiles())
	nc := m.chunks()
	m.dispatch(wideCount)
	c := 0
	for k := 0; k < nc; k++ {
		c += int(m.partCnt[k])
	}
	return c
}

// FirstResponder returns the lowest responding index, or -1. This is
// the AP "step" (pick-one) operation.
func (m *Machine) FirstResponder() int {
	m.cycles += uint64(m.prof.SelectCycles) * uint64(m.Tiles())
	for i := 0; i < m.n; i++ {
		if m.mask[i] {
			return i
		}
	}
	return -1
}

// ClearResponder removes index i from the mask (used when stepping
// through responders one by one).
func (m *Machine) ClearResponder(i int) {
	m.Scalar(1)
	m.mask[i] = false
}

// MinReduce returns the minimum of value(i) over responders and the
// lowest index attaining it (constant-time min-reduction plus select).
// It returns (def, -1) when there are no responders. Per-chunk partial
// minima are merged in ascending chunk order with a strict compare, so
// the lowest-index tie-break of the serial loop is reproduced exactly.
//
//atm:ordered-merge
func (m *Machine) MinReduce(def float64, value func(m *Machine, i int) float64) (float64, int) {
	m.cycles += uint64(m.prof.ReduceCycles+m.prof.SelectCycles) * uint64(m.Tiles())
	nc := m.chunks()
	m.job.value, m.job.def = value, def
	m.dispatch(wideMin)
	pb, pa := m.partBest, m.partArg
	best, arg := def, -1
	for k := 0; k < nc; k++ {
		if pa[k] >= 0 && pb[k] < best {
			best, arg = pb[k], int(pa[k])
		}
	}
	return best, arg
}

// MaxReduce returns the maximum of value(i) over responders and the
// lowest index attaining it. It returns (def, -1) with no responders.
//
//atm:ordered-merge
func (m *Machine) MaxReduce(def float64, value func(m *Machine, i int) float64) (float64, int) {
	m.cycles += uint64(m.prof.ReduceCycles+m.prof.SelectCycles) * uint64(m.Tiles())
	nc := m.chunks()
	m.job.value, m.job.def = value, def
	m.dispatch(wideMax)
	pb, pa := m.partBest, m.partArg
	best, arg := def, -1
	for k := 0; k < nc; k++ {
		if pa[k] >= 0 && pb[k] > best {
			best, arg = pb[k], int(pa[k])
		}
	}
	return best, arg
}

// LoadDatabase charges the cost of loading the aircraft records into PE
// memories (fields wide words per record).
func (m *Machine) LoadDatabase(fields int) {
	m.chargeWide(fields)
}
