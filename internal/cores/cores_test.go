package cores

import (
	"testing"
	"time"

	"repro/internal/telemetry"
)

// TestPhasePartition: every phase covers [0, n) exactly once, core k
// taking [k·n/cores, (k+1)·n/cores), at one and three host workers,
// and each core's tally is the share it was handed.
func TestPhasePartition(t *testing.T) {
	const cores = 5
	for _, workers := range []int{1, 3} {
		for _, n := range []int{0, 1, cores - 1, cores, 3*cores + 5} {
			var c Cores
			c.SetWorkers(workers)
			c.Reset(cores)
			owner := make([]int, n)
			seen := make([]int, n)
			c.Phase("p", 0, n, func(core, lo, hi int) {
				for i := lo; i < hi; i++ {
					owner[i] = core
					seen[i]++
				}
				c.Add(core, uint64(hi-lo))
			})
			for i := range n {
				want := 0
				for (want+1)*n/cores <= i {
					want++
				}
				if seen[i] != 1 || owner[i] != want {
					t.Errorf("workers=%d n=%d: index %d seen %d times by core %d, want once by core %d",
						workers, n, i, seen[i], owner[i], want)
				}
			}
			for k := range cores {
				if share := uint64((k+1)*n/cores - k*n/cores); c.ops[k] != share {
					t.Errorf("workers=%d n=%d: core %d tally %d, want %d", workers, n, k, c.ops[k], share)
				}
			}
		}
	}
}

// TestPhasesCounted: every phase counts, an empty one included, and
// Reset clears the count and the tallies.
func TestPhasesCounted(t *testing.T) {
	var c Cores
	c.SetWorkers(1)
	c.Reset(4)
	for _, n := range []int{7, 0, 2, 1} {
		c.Phase("p", 0, n, func(core, lo, hi int) { c.Add(core, 1) })
	}
	if c.Phases() != 4 {
		t.Fatalf("%d phases counted, want 4", c.Phases())
	}
	c.Reset(4)
	if core, ops := c.Critical(); c.Phases() != 0 || core != 0 || ops != 0 {
		t.Fatalf("after Reset: %d phases, critical core %d with %d; want 0, 0, 0", c.Phases(), core, ops)
	}
}

// TestCritical: the critical core is the lowest-indexed busiest core,
// core 0 when every tally is zero.
func TestCritical(t *testing.T) {
	for _, tc := range []struct {
		name     string
		ops      []uint64
		core     int
		critical uint64
	}{
		{"all zero", []uint64{0, 0, 0}, 0, 0},
		{"tie", []uint64{3, 7, 7, 1}, 1, 7},
		{"tie at core 0", []uint64{9, 2, 9}, 0, 9},
		{"last", []uint64{1, 2, 3}, 2, 3},
	} {
		var c Cores
		c.Reset(len(tc.ops))
		for k, v := range tc.ops {
			c.Add(k, v)
		}
		if core, ops := c.Critical(); core != tc.core || ops != tc.critical {
			t.Errorf("%s %v: critical core %d with %d, want %d with %d", tc.name, tc.ops, core, ops, tc.core, tc.critical)
		}
	}
}

// runTask runs three phases with uneven charges on six cores, so the
// critical core changes from phase to phase.
func runTask(c *Cores) {
	c.Reset(6)
	for p, n := range []int{6, 13, 4} {
		c.Phase("phase", int32(p), n, func(core, lo, hi int) {
			c.Add(core, uint64((core+p)%4*1000+hi-lo))
		})
	}
}

// TestEmitSpans: the spans run back to back from the recorder's now,
// one per phase with its name and argument, and tile the task's time —
// the critical core's tally at rate plus one barrier per phase — to
// within 1 ns per span, which is what EmitSpans returns.
func TestEmitSpans(t *testing.T) {
	const (
		rate    = 3e6
		barrier = 7 * time.Microsecond
		start   = 5 * time.Second
	)
	var c Cores
	c.SetWorkers(3)
	c.BeginMarks()
	runTask(&c)
	rec := telemetry.NewRecorder(0)
	rec.SetNow(start)
	covered := c.EmitSpans(rec, rate, barrier)

	var spans []telemetry.Event
	rec.Visit(func(ev telemetry.Event) { spans = append(spans, ev) })
	if len(spans) != c.Phases() {
		t.Fatalf("%d spans for %d phases", len(spans), c.Phases())
	}
	off := start
	for k, ev := range spans {
		if rec.Name(ev.Name) != "phase" || ev.Arg != int32(k) || ev.Time != off {
			t.Errorf("span %d: %s arg %d at %v, want phase arg %d at %v", k, rec.Name(ev.Name), ev.Arg, ev.Time, k, off)
		}
		off += time.Duration(ev.Value)
	}
	if off-start != covered {
		t.Errorf("EmitSpans returned %v, spans cover %v", covered, off-start)
	}
	_, crit := c.Critical()
	want := time.Duration(float64(crit)/rate*float64(time.Second)) + time.Duration(c.Phases())*barrier
	if d := want - covered; d < 0 || d > time.Duration(len(spans)) {
		t.Errorf("spans cover %v, task time %v: off by more than 1 ns per span", covered, want)
	}
}

// TestNoMarksWithoutBegin: nothing is marked unless BeginMarks was
// called, and EmitSpans turns marking off for the next task.
func TestNoMarksWithoutBegin(t *testing.T) {
	var c Cores
	c.SetWorkers(1)
	for round, begin := range []bool{false, true, false} {
		if begin {
			c.BeginMarks()
		}
		before := len(c.marks)
		runTask(&c)
		marked := len(c.marks) - before
		rec := telemetry.NewRecorder(0)
		covered := c.EmitSpans(rec, 1e6, time.Microsecond)
		want := 0
		if begin {
			want = 3
		}
		if got := rec.Len(); marked != want || got != want || (want == 0) != (covered == 0) {
			t.Errorf("round %d: %d phases marked, %d spans covering %v; want %d", round, marked, got, covered, want)
		}
	}
}
