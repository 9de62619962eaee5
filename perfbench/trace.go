package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/platform"
	"repro/internal/radar"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started; Parent indexes the enclosing span (-1 for a root) and
// Op identifies the workload op the call served (0 for set-up).
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int64  `json:"op"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. One tracer belongs
// to one goroutine, so nested spans never overlap their siblings. All
// methods are no-ops on a nil tracer: that is tracing off.
type tracer struct {
	origin time.Time
	op     int64
	stack  []int32
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Start: time.Since(t.origin).Nanoseconds(), Parent: parent, Op: t.op})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.origin).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
}

// setOp tags the spans that follow with op id.
func (t *tracer) setOp(id int64) {
	if t != nil {
		t.op = id
	}
}

// selfTimes returns every span's duration minus the time its children
// cover. Children of one span never overlap (one goroutine records
// them), so the covered time is the sum of their durations.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// probe is the switch the decorators share: a nil tracer turns their
// spans off without unwiring them, so the untraced and traced phases of
// one run drive identical call paths.
type probe struct{ tr *tracer }

// timedPlatform decorates a platform with spans around Track and
// DetectResolve, the two calls core.System makes into it each period.
// When keep is set, DetectResolve first copies its input world there,
// so an oracle can replay the call after the timed cycle.
type timedPlatform struct {
	platform.Platform
	p    *probe
	keep *airspace.World
}

func (t *timedPlatform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	id := t.p.tr.begin("platform.Track")
	d := t.Platform.Track(w, f)
	t.p.tr.end(id)
	return d
}

func (t *timedPlatform) DetectResolve(w *airspace.World) time.Duration {
	if t.keep != nil {
		w.CloneInto(t.keep)
	}
	id := t.p.tr.begin("platform.DetectResolve")
	d := t.Platform.DetectResolve(w)
	t.p.tr.end(id)
	return d
}

// timedSource decorates a coherent, sharded sweep with spans around the
// index build (Prepare, PrepareColumns) and the table build
// (PrepareTable). It implements every interface the executors discover
// on a pair source, as broadphase.Counted does, so installing it leaves
// the sweep's call paths unchanged. lastCand is the candidate total of
// the most recent table.
type timedSource struct {
	src      broadphase.PairSource
	p        *probe
	lastCand int
}

func (t *timedSource) maint() broadphase.Maintainer { return broadphase.MaintainerOf(t.src) }
func (t *timedSource) table() broadphase.TableSource {
	return t.src.(broadphase.TableSource)
}

func (t *timedSource) Unwrap() broadphase.PairSource { return t.src }
func (t *timedSource) Name() string                  { return t.src.Name() }

func (t *timedSource) Prepare(w *airspace.World) {
	id := t.p.tr.begin("broadphase.Prepare")
	t.src.Prepare(w)
	t.p.tr.end(id)
}

func (t *timedSource) PrepareColumns(c *airspace.Columns) {
	id := t.p.tr.begin("broadphase.PrepareColumns")
	t.src.(broadphase.ColumnsPreparer).PrepareColumns(c)
	t.p.tr.end(id)
}

func (t *timedSource) Candidates(w *airspace.World, track *airspace.Aircraft) []int32 {
	return t.src.Candidates(w, track)
}

func (t *timedSource) AppendCandidates(dst []int32, w *airspace.World, track *airspace.Aircraft) []int32 {
	return t.src.AppendCandidates(dst, w, track)
}

func (t *timedSource) Incremental() bool            { return t.maint().Incremental() }
func (t *timedSource) LastPrepareIncremental() bool { return t.maint().LastPrepareIncremental() }
func (t *timedSource) TakeUpdateStats() broadphase.UpdateStats {
	return t.maint().TakeUpdateStats()
}

func (t *timedSource) Sharded() bool           { return t.table().Sharded() }
func (t *timedSource) SetPool(p *parexec.Pool) { t.table().SetPool(p) }
func (t *timedSource) AddKernelBatches(n int64) {
	t.table().AddKernelBatches(n)
}
func (t *timedSource) TakeShardStats() (segments, batches int64) {
	return t.table().TakeShardStats()
}

func (t *timedSource) PrepareTable() *broadphase.PairTable {
	id := t.p.tr.begin("broadphase.PrepareTable")
	tab := t.table().PrepareTable()
	t.p.tr.end(id)
	t.lastCand = len(tab.Cand)
	return tab
}

// Compile-time checks: the executors find the decorator, not the sweep
// behind it, so every index and table build passes through a span.
var (
	_ broadphase.Maintainer      = (*timedSource)(nil)
	_ broadphase.ColumnsPreparer = (*timedSource)(nil)
	_ broadphase.TableSource     = (*timedSource)(nil)
)

// spansByOp maps each op of ph to the indices of its spans.
func spansByOp(spans []span, ph *phase) map[int64][]int {
	want := map[int64]bool{}
	for _, op := range ph.ops {
		want[op.id] = true
	}
	out := map[int64][]int{}
	for i, s := range spans {
		if want[s.Op] {
			out[s.Op] = append(out[s.Op], i)
		}
	}
	return out
}

// countSpans counts the spans of the mapped ops whose name starts with
// prefix.
func countSpans(spans []span, byOp map[int64][]int, prefix string) int {
	n := 0
	for _, idx := range byOp {
		for _, i := range idx {
			if strings.HasPrefix(spans[i].Name, prefix) {
				n++
			}
		}
	}
	return n
}
