package broadphase

import (
	"sync/atomic"

	"repro/internal/parexec"

	"repro/internal/airspace"
)

// Counted wraps a PairSource and counts queries and returned
// candidates, so telemetry can report broad-phase pruning
// effectiveness per source. It is a pure pass-through: the wrapped
// source's candidate sets, their order, and its Name are returned
// unchanged, so installing a Counted never alters detection results.
//
// Candidates and AppendCandidates are called concurrently by the
// platform executors, so the tallies are atomic adds. The sums are
// order-independent (integer addition commutes), and Take is only
// called from sequential orchestration code after the scan barrier —
// the counts themselves are therefore deterministic even though the
// increment interleaving is not.
type Counted struct {
	src        PairSource
	queries    atomic.Int64 //atm:allow atomic -- order-independent sum, drained sequentially after the scan barrier
	candidates atomic.Int64 //atm:allow atomic -- order-independent sum, drained sequentially after the scan barrier
}

// NewCounted wraps src.
func NewCounted(src PairSource) *Counted { return &Counted{src: src} }

// Unwrap returns the wrapped source.
func (c *Counted) Unwrap() PairSource { return c.src }

// Name returns the wrapped source's registry name, so labels and
// registry round-trips are unaffected by counting.
func (c *Counted) Name() string { return c.src.Name() }

// Prepare forwards to the wrapped source.
func (c *Counted) Prepare(w *airspace.World) { c.src.Prepare(w) }

// Candidates forwards to the wrapped source, tallying the query and
// its candidate count.
//
//atm:noalloc
//atm:allow atomic -- order-independent sums, read only after the scan barrier
func (c *Counted) Candidates(w *airspace.World, track *airspace.Aircraft) []int32 {
	out := c.src.Candidates(w, track)
	c.queries.Add(1)
	c.candidates.Add(int64(len(out)))
	return out
}

// AppendCandidates forwards to the wrapped source, tallying the query
// and the number of candidates appended.
//
//atm:noalloc
//atm:allow atomic -- order-independent sums, read only after the scan barrier
func (c *Counted) AppendCandidates(dst []int32, w *airspace.World, track *airspace.Aircraft) []int32 {
	before := len(dst)
	dst = c.src.AppendCandidates(dst, w, track)
	c.queries.Add(1)
	c.candidates.Add(int64(len(dst) - before))
	return dst
}

// Take returns the tallies accumulated since the last Take and resets
// them. Call it only from sequential code (between tasks).
//
//atm:allow atomic -- drained sequentially between tasks
func (c *Counted) Take() (queries, candidates int64) {
	return c.queries.Swap(0), c.candidates.Swap(0)
}

// Sharded forwards to the wrapped source; false when it builds no
// candidate table. Counted thereby satisfies TableSource
// whenever the wrapped source does, so TableOf resolves through it and
// table builds are tallied like any other query traffic.
func (c *Counted) Sharded() bool {
	ts, ok := c.src.(TableSource)
	return ok && ts.Sharded()
}

// SetPool forwards to the wrapped source.
func (c *Counted) SetPool(p *parexec.Pool) { c.src.(TableSource).SetPool(p) }

// PrepareTable forwards to the wrapped source, tallying the build as
// one query per track and its candidate total — the same traffic the
// equivalent per-track AppendCandidates calls would have counted. A
// nil table (over the source's size limit) tallies nothing here; the
// per-track queries that replace it are counted as they run.
//
//atm:allow atomic -- order-independent sums, drained sequentially between tasks
func (c *Counted) PrepareTable() *PairTable {
	t := c.src.(TableSource).PrepareTable()
	if t == nil {
		return nil
	}
	c.queries.Add(int64(len(t.Start) - 1))
	c.candidates.Add(int64(len(t.Cand)))
	return t
}

// AddKernelBatches forwards to the wrapped source.
func (c *Counted) AddKernelBatches(n int64) { c.src.(TableSource).AddKernelBatches(n) }

// TakeShardStats forwards to the wrapped source.
func (c *Counted) TakeShardStats() (segments, batches int64) {
	return c.src.(TableSource).TakeShardStats()
}
