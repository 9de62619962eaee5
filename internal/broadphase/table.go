// Worker-parallel candidate tables, built by the production sweep.
//
// A PairTable materializes, for one detection invocation, every
// track's broad-phase candidates that Algorithm 2 will evaluate: its
// row holds the candidates inside the track's altitude band
// (airspace.AltOverlap, the track itself included), in CSR form, and
// beside it the size of the track's full candidate set, which the
// executors' modeled charges count. Building it walks the tracks in
// index order once, partitioned into grain-aligned contiguous segments
// that self-schedule across the shared parexec pool: each segment emits
// its tracks' rows into the segment's own padded buffer, and a second
// pass copies each buffer into its final CSR span, whose offsets depend
// only on the per-track row lengths — so the finished table is
// byte-identical at every worker count, whatever order the segments
// were claimed in. Buffers are per segment rather than per worker so
// their steady-state sizes are stable too: a segment's row total
// drifts slowly with traffic, while a worker's share of dynamically
// claimed segments varies run to run and would regrow its buffer
// toward the full table size.
//
// What the table buys is reuse. The candidate set of a track depends
// only on positions and speeds, and altitudes do not change within an
// invocation; collision resolution probes rotated headings, which
// preserve speed, and the sweep index is never re-prepared within an
// invocation. Every rotation probe and every dirty-replay rescan can
// therefore serve from the table instead of re-running the bitmap walk
// — bit-identically, because the walk is a pure function of the
// prepared index. The altitude band is why the rows are short: the
// scan drops every pair outside it before the pair math, so a row
// holding only the pairs inside it (about a nineteenth of the full set
// in uniform traffic) gives the scan the same survivors in the same
// order.
//
// What the table costs is memory: each stored candidate is held twice
// (segment buffer and CSR slot) plus headroom, about 9 bytes, and dense
// traffic in one altitude band has up to N² of them. The build
// therefore stops as soon as the running total of full candidate sets
// passes tableLimit(n) and PrepareTable returns nil; consumers then
// query the same index per track. The segment buffers the stopped build
// filled stay allocated for the next build, so a sweep past the limit
// holds at most about the limit's worth of candidates. Whether the
// limit is passed depends only on the total of the full sets, never on
// the altitudes, so the choice is deterministic and identical at every
// worker count, and both paths give the scan the same survivors.
package broadphase

import (
	"math"
	"slices"

	"repro/internal/parexec"
)

// tableGrain is the segment size of the table build: one self-scheduled
// chunk covers this many consecutive tracks. Small enough to
// load-balance skewed candidate counts, large enough that the per-chunk
// bookkeeping (owner, offset) is noise.
const tableGrain = 256

// Table size limits, in candidates of the full (altitude-blind) sets,
// of which a table stores at most as many. tableMaxCand caps one build
// at ~300 MB whatever the world size, so a request at a server's
// aircraft limit cannot exhaust host memory; it also keeps every CSR
// offset inside int32. tableMaxPerTrack additionally bounds the table
// to a constant multiple of the world size below that: uniform traffic
// has ~420 candidates per track at N=8000 (~22 inside the altitude
// band) and ~850 at N=16000, the default dense family ~1600 at N=8000,
// all inside one band (where the table runs Tasks 2-3 about 3.5x
// faster than per-track queries, for ~130 MB), while one tight cluster,
// with every aircraft a candidate of every other, passes it beyond
// ~2000 aircraft whatever its altitude spread.
// tablePublish is how many candidates a segment may count before adding
// them to the shared running total, which bounds a build's overshoot
// past the limit to about that many per worker plus one track's set.
const (
	tableMaxPerTrack = 2048
	tableMaxCand     = 1 << 25
	tablePublish     = 1 << 16
)

// tableLimit is the largest total of full candidate sets a table over
// n tracks may describe.
func tableLimit(n int) int64 {
	return min(int64(n)*tableMaxPerTrack, tableMaxCand, math.MaxInt32)
}

// PairTable holds every track's candidates inside its altitude band in
// CSR form: track i's row is Cand[Start[i]:Start[i+1]], ascending,
// exactly the slice AppendCandidates would have emitted with every
// candidate j dropped for which airspace.AltOverlap(alt_i, alt_j) is
// false; the track itself stays unless its altitude is NaN. Count[i] is
// the length of that unfiltered slice. A table is valid until the next
// Prepare of the source that built it.
type PairTable struct {
	Start []int32
	Cand  []int32
	Count []int32
}

// Candidates returns track i's row, ascending.
//
//atm:noalloc
//atm:inline
func (t *PairTable) Candidates(i int) []int32 {
	return t.Cand[t.Start[i]:t.Start[i+1]]
}

// TableSource is implemented by pair sources that can materialize a
// candidate table with a worker-parallel index walk. Sources without
// one — or instances that do not build it, such as NewSweep's rebuild
// sweep — are discovered via TableOf, which returns nil for them.
type TableSource interface {
	PairSource
	// Sharded reports whether this instance builds the candidate table.
	Sharded() bool
	// SetPool hands the source the engine pool its table build runs
	// on. nil keeps it serial. Sequential, like Prepare.
	SetPool(p *parexec.Pool)
	// PrepareTable builds the candidate table for every track against
	// the index established by the most recent Prepare. Sequential
	// orchestration, like Prepare; the returned table is read-only and
	// valid until the next Prepare. It returns nil when the table would
	// pass the source's size limit; callers then query per track with
	// AppendCandidates on the same index.
	PrepareTable() *PairTable
	// AddKernelBatches accumulates consumer-side batched-kernel
	// iteration counts so telemetry can drain them alongside the
	// source's own segment counts. Sequential, like Prepare.
	AddKernelBatches(n int64)
	// TakeShardStats drains the segment and batch counters. Sequential.
	TakeShardStats() (segments, batches int64)
}

// TableOf returns the TableSource behind src when it builds the
// candidate table, unwrapping decorators such as Counted, and nil
// otherwise.
func TableOf(src PairSource) TableSource {
	if ts, ok := find[TableSource](src); ok && ts.Sharded() {
		return ts
	}
	return nil
}

// tableBuf is one segment's candidate-run buffer and the query bitmap
// its walk uses, padded so slice headers written by different workers
// don't share a cache line.
type tableBuf struct {
	cand  []int32
	words []uint64
	_     [16]byte
}

// Sharded reports whether the sweep builds the candidate table: true
// for the production sweep, false for NewSweep's.
func (s *Sweep) Sharded() bool { return s.binned }

// SetPool hands the sweep the engine pool PrepareTable's segment walk
// runs on; nil keeps it serial.
func (s *Sweep) SetPool(p *parexec.Pool) { s.pool = p }

// AddKernelBatches accumulates a consumer's batched-kernel iteration
// count. Sequential, like Prepare.
func (s *Sweep) AddKernelBatches(n int64) { s.statBatches += n }

// TakeShardStats drains the segment and batch counters accumulated
// since the last call. Sequential, like Prepare.
func (s *Sweep) TakeShardStats() (segments, batches int64) {
	segments, batches = s.statSegments, s.statBatches
	s.statSegments, s.statBatches = 0, 0
	return segments, batches
}

// fillJob walks one grain-aligned segment of tracks, emitting each
// track's row into the segment's buffer and recording the row length
// in the table's Start[track+1] and the full set's size in Count[track].
// The buffer and the query bitmap belong to the segment, not the
// claiming worker, so steady-state buffer sizes are independent of the
// claim order, and the walk never borrows from the query pool, which a
// GC empties.
//
// Every segment adds the full-set sizes it counted to the shared
// running total at least every tablePublish candidates and stops once
// the total passes the limit; segments claimed after that skip their
// walk.
type fillJob struct{ s *Sweep }

//atm:noalloc
//atm:allow atomic -- the running total is an order-independent sum; whether it passes the limit depends only on the final sum, never on the claim order
func (j *fillJob) Chunk(_, lo, hi int) {
	s := j.s
	if s.tableTotal.Load() > s.tableLimit {
		return
	}
	tb := &s.chunkBufs[lo/tableGrain]
	buf := tb.cand[:0]
	counted, published := 0, 0
	for k := lo; k < hi; k++ {
		q := s.envelopeOf(k)
		count := s.bins.mark(tb.words, &q, q.lox-s.maxW, true)
		before := len(buf)
		buf = s.appendMarked(buf, tb.words)
		s.table.Start[k+1] = int32(len(buf) - before)
		s.table.Count[k] = int32(count)
		counted += count
		if counted-published >= tablePublish || k == hi-1 {
			if s.tableTotal.Add(int64(counted-published)) > s.tableLimit {
				break
			}
			published = counted
		}
	}
	tb.cand = withHeadroom(buf) //atm:allow noallocflow -- headroom regrow only, amortized to nothing in steady state
}

// withHeadroom returns buf, reallocated with an eighth of spare
// capacity when it has nearly run out. Segment candidate counts drift
// a little every period, and a buffer ending exactly at capacity would
// regrow on the very next build; the headroom absorbs the drift so the
// steady state stays allocation-free. Same policy as the CSR Cand
// array in PrepareTable.
func withHeadroom(buf []int32) []int32 {
	if cap(buf)-len(buf) >= len(buf)/16 {
		return buf
	}
	nb := make([]int32, len(buf), len(buf)+len(buf)/8+64)
	copy(nb, buf)
	return nb
}

// copyJob moves one segment's candidate runs from the segment buffer
// into their CSR span. The segment's tracks are consecutive, so their
// rows are one span whose offset is fully determined by the per-track
// counts: the result is independent of the fill pass's claim order.
type copyJob struct{ s *Sweep }

//atm:noalloc
//atm:noescape
func (j *copyJob) Chunk(_, lo, hi int) {
	t := &j.s.table
	copy(t.Cand[t.Start[lo]:t.Start[hi]], j.s.chunkBufs[lo/tableGrain].cand)
}

// PrepareTable builds the candidate table for every track by walking
// the tracks in parallel segments, or returns nil once the total of the
// full candidate sets passes tableLimit. Must follow Prepare (or
// PrepareColumns) of the same world state.
//
//atm:allow atomic -- resets the running total before the walks and reads it after they finish
func (s *Sweep) PrepareTable() *PairTable {
	n := s.n
	t := &s.table
	if cap(t.Start) < n+1 {
		t.Start = make([]int32, n+1)
		t.Count = make([]int32, n)
	}
	t.Start, t.Count = t.Start[:n+1], t.Count[:n]
	chunks := (n + tableGrain - 1) / tableGrain
	if len(s.chunkBufs) < chunks {
		s.chunkBufs = slices.Grow(s.chunkBufs, chunks-len(s.chunkBufs))[:chunks]
	}
	nw := (n + 63) / 64
	for k := range s.chunkBufs[:chunks] {
		if len(s.chunkBufs[k].words) < nw {
			s.chunkBufs[k].words = make([]uint64, nw)
		}
	}

	s.tableLimit = tableLimit(n)
	s.tableTotal.Store(0)
	s.fill.s = s
	if s.pool == nil {
		for lo := 0; lo < n; lo += tableGrain {
			s.fill.Chunk(0, lo, min(lo+tableGrain, n))
		}
	} else {
		s.pool.RunBody(n, tableGrain, &s.fill)
	}

	s.statSegments += int64(chunks)
	if s.tableTotal.Load() > s.tableLimit {
		return nil
	}

	// Start[i+1] holds track i's row length; the prefix sum turns the
	// lengths into offsets. Rows are subsets of the full sets, whose
	// total is at most tableLimit, so every offset fits in int32.
	t.Start[0] = 0
	for i := 1; i <= n; i++ {
		t.Start[i] += t.Start[i-1]
	}
	sum := int(t.Start[n])
	if cap(t.Cand) < sum {
		// An eighth of headroom: the candidate total drifts by a few
		// hundred entries per period as traffic moves, and exact sizing
		// would reallocate the whole table on every new high-water mark.
		t.Cand = make([]int32, sum, sum+sum/8)
	}
	t.Cand = t.Cand[:sum]

	s.copier.s = s
	if s.pool == nil {
		for lo := 0; lo < n; lo += tableGrain {
			s.copier.Chunk(0, lo, min(lo+tableGrain, n))
		}
	} else {
		s.pool.RunBody(n, tableGrain, &s.copier)
	}
	return t
}
