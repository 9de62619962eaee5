// Package cores is the multicore model the mimd and vector executors
// share: a machine's fixed set of cores runs a task as a sequence of
// phases, each phase splits its index range across the cores by a
// static contiguous partition, the busiest core bounds the task and
// every phase adds a barrier. The executors keep only what differs —
// their charges and the cost model that turns the critical core's
// tally into modeled time.
//
// The partition, and so every per-core tally and the critical path,
// depends on the core count alone. The cores run multiplexed on a host
// worker pool whose size changes wall-clock speed only, so modeled
// time is identical at any worker count. The static partition is the
// modeled machine's schedule; parexec's self-scheduling stays a host
// concern.
package cores

import (
	"time"

	"repro/internal/parexec"
	"repro/internal/telemetry"
)

// Cores is one machine's modeled cores: the host pool that runs them,
// each core's tally of charged work, the task's phase count and, while
// marks are on, a snapshot of the tallies after each phase. A Cores is
// not safe for concurrent use; the bodies of one phase may charge only
// the core they are handed.
type Cores struct {
	pool   *parexec.Pool
	ops    []uint64 // per-core tally since Reset
	phases int

	// Telemetry phase marks: the per-core tallies after each marked
	// phase, len(ops) of them per mark, reused across tasks.
	marks   []phaseMark
	markOps []uint64
	marksOn bool
}

// phaseMark names one phase; its tally snapshot lives at the matching
// offset of markOps.
type phaseMark struct {
	name string
	arg  int32
}

// SetWorkers pins the host worker count that runs the cores (n <= 0
// restores the process-default pool).
func (c *Cores) SetWorkers(n int) {
	if n <= 0 {
		c.pool = nil
	} else {
		c.pool = parexec.NewPool(n)
	}
}

// Pool returns the host pool the cores run on; nil stands for the
// process-default pool, as parexec.Resolve reads it.
func (c *Cores) Pool() *parexec.Pool { return c.pool }

// Reset starts a task on the given number of cores: every tally and
// the phase count return to zero. It allocates only while the core
// count grows.
func (c *Cores) Reset(cores int) {
	if cap(c.ops) < cores {
		c.ops = make([]uint64, cores)
	}
	c.ops = c.ops[:cores]
	clear(c.ops)
	c.phases = 0
}

// Add charges v units of work to core.
func (c *Cores) Add(core int, v uint64) { c.ops[core] += v }

// Phases returns the number of phases run since Reset.
func (c *Cores) Phases() int { return c.phases }

// Phase runs body(core, lo, hi) over the static contiguous partition
// of [0, n) across the cores, core k taking [k·n/cores, (k+1)·n/cores)
// and cores with an empty share skipped, on the host pool. It counts
// the phase and, while marks are on, snapshots the tallies under name
// and arg; name must be a static string so marking allocates nothing
// once warm.
func (c *Cores) Phase(name string, arg int32, n int, body func(core, lo, hi int)) {
	cores := len(c.ops)
	parexec.Resolve(c.pool).Run(cores, 1, func(_, clo, chi int) {
		for k := clo; k < chi; k++ {
			lo := k * n / cores
			hi := (k + 1) * n / cores
			if lo < hi {
				body(k, lo, hi)
			}
		}
	})
	c.phases++
	c.mark(name, arg)
}

// mark snapshots the tallies at the end of a phase; a no-op unless
// BeginMarks was called.
//
//atm:noalloc
func (c *Cores) mark(name string, arg int32) {
	if !c.marksOn {
		return
	}
	c.marks = append(c.marks, phaseMark{name: name, arg: arg})
	c.markOps = append(c.markOps, c.ops...)
}

// Critical returns the critical core — the lowest-indexed core with
// the largest tally, core 0 when every tally is zero — and its tally.
//
//atm:ordered-merge
func (c *Cores) Critical() (core int, ops uint64) {
	for k, v := range c.ops {
		if v > ops {
			core, ops = k, v
		}
	}
	return core, ops
}

// BeginMarks clears the mark log and snapshots every phase of the next
// task, until EmitSpans.
func (c *Cores) BeginMarks() {
	c.marks = c.marks[:0]
	c.markOps = c.markOps[:0]
	c.marksOn = true
}

// EmitSpans records one span per phase marked since BeginMarks, back
// to back from the recorder's modeled now: the critical core's tally
// delta over the phase at rate units per second, plus the barrier, so
// the spans of a task marked from its start tile Critical at rate plus
// Phases barriers to within a nanosecond per span. It turns marks off
// and returns the time the spans cover; with marks off it records
// nothing.
func (c *Cores) EmitSpans(rec *telemetry.Recorder, rate float64, barrier time.Duration) time.Duration {
	if !c.marksOn {
		return 0
	}
	crit, _ := c.Critical()
	cores := len(c.ops)
	start := rec.Now()
	var covered time.Duration
	var prev uint64
	for k, mk := range c.marks {
		cur := c.markOps[k*cores+crit]
		dur := time.Duration(float64(cur-prev)/rate*float64(time.Second)) + barrier
		rec.SpanArg(rec.Intern(mk.name), start+covered, dur, mk.arg)
		covered += dur
		prev = cur
	}
	c.marksOn = false
	return covered
}
