package broadphase

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// Sweep serves candidate sets by testing reach envelopes on both axes.
// Two indexes over the same envelopes yield the same sets:
//
//   - NewSweep returns the reference: sort-based sweep-and-prune on the
//     x intervals (Marzolla & D'Angelo's sort-based matching,
//     specialized to per-track queries). Prepare sorts the aircraft by
//     the low edge of their x envelope; a query binary-searches the run
//     of aircraft whose x interval can overlap the track's and filters
//     that run by the actual x and y interval tests. The window
//     [lo − maxW, hi] is sound because no stored interval is wider than
//     maxW: anything starting earlier has necessarily ended before the
//     query interval begins. It is queried per track and builds no
//     table.
//   - New(SweepName) returns the production sweep. Prepare bins the
//     envelopes by position cell and speed class (bins.go), and a query
//     reads only the cells that can hold a candidate instead of the
//     x-window's full-height strip of the field. It materializes every
//     track's candidates inside its altitude band per invocation in one
//     worker-parallel table build, up to a size limit past which
//     consumers query it per track (see table.go).
//
// Both walks apply the same five comparisons to the envelope values,
// which both compute identically, and both emit through a bitmap in
// ascending aircraft index, so a candidate set does not depend on which
// envelopes a walk happened to read or in what order.
type Sweep struct {
	n int
	// Envelope edges and altitudes indexed by aircraft index.
	lox, hix, loy, hiy []float64
	alt                []float64
	// maxW is the widest x envelope in the world. The envelope fill
	// loop recomputes it as a running max every Prepare, so it can never
	// go stale.
	maxW float64

	// binned marks the production sweep New(SweepName) returns: Prepare
	// bins the envelopes, queries walk the bins, and PrepareTable
	// builds the candidate table. NewSweep leaves it false.
	binned bool
	bins   binIndex

	// The reference's sorted x order. order holds aircraft indices
	// sorted by ascending envelope low-x; sortedLo mirrors the low-x
	// values in the same order for binary search, and sortedBox
	// interleaves the remaining edges permuted into sorted order —
	// hi-x, lo-y, hi-y at stride 3 — so the window walk reads one dense
	// sequential stream.
	order     []int32
	sortedLo  []float64
	sortedBox []float64
	// sorter is the reusable sort.Interface over order/lox: sort.Slice
	// allocates its closure pair on every call.
	sorter sweepOrder

	// pool runs PrepareTable's pair walk, scatter and row sort; nil
	// keeps them serial. Consumers install it through SetPool.
	pool *parexec.Pool
	// table is the source-owned candidate table PrepareTable fills.
	// segs holds each walk segment's stored in-band pairs as runs,
	// about 2 bytes per row entry, and workers each worker's
	// per-track tally (8 bytes a track) and row-sort bitmap; all
	// persist across builds.
	// tableTotal is the build's running candidate total, shared by the
	// segment walks (held by pointer like scratch, so a copy of the
	// struct shares it), and tableLimit the total past which the build
	// gives up (see tableLimit in table.go).
	table      PairTable
	segs       []tableSeg
	workers    []tableWorker
	tableTotal *atomic.Int64 //atm:allow atomic -- order-independent sum of the segment walks, read only after they finish
	tableLimit int64
	// Shard counters, drained by TakeShardStats. statSegments counts
	// table-build walk segments; statBatches accumulates
	// consumer-reported batched-kernel iterations. Prepare is
	// sequential by contract, so plain fields suffice.
	statSegments, statBatches int64
	// Persistent job bodies for the engine's RunBody dispatch, held as
	// fields so steady-state parallel phases allocate nothing.
	walk    walkJob
	scatter scatterJob
	rows    sortJob

	// scratch pools *sweepScratch for concurrent queries. Held by
	// pointer: sync.Pool contains a noCopy lock and per-P caches, so a
	// by-value field would make any copy of the Sweep struct (even an
	// accidental one) silently duplicate pool state. The constructor
	// initializes it; see the atmlint syncfield rule.
	scratch *sync.Pool
}

// sweepOrder sorts aircraft indices by ascending envelope low-x.
type sweepOrder struct {
	order []int32
	lox   []float64
}

func (o *sweepOrder) Len() int           { return len(o.order) }
func (o *sweepOrder) Less(a, b int) bool { return o.lox[o.order[a]] < o.lox[o.order[b]] }
func (o *sweepOrder) Swap(a, b int)      { o.order[a], o.order[b] = o.order[b], o.order[a] }

// sweepScratch accumulates one query's candidates as a bitmap, one bit
// per aircraft index: the window walk finds hits in x order and the
// binned walk in cell order, and the trailing-zeros walk re-emits them
// in the ascending index order the scan's tie-break requires without a
// per-query comparison sort.
type sweepScratch struct {
	words []uint64
}

// NewSweep returns the reference sweep: a full x sort on every Prepare,
// queried per track, no candidate table. The production sweep is
// checked against it.
func NewSweep() *Sweep {
	return &Sweep{scratch: &sync.Pool{}, tableTotal: new(atomic.Int64)} //atm:allow atomic -- the table build's running total, see tableTotal
}

// newBinnedSweep returns the production sweep: envelopes binned by
// position cell and speed class, and every track's candidates served
// from one table build per invocation. Candidate sets are identical to
// NewSweep's.
func newBinnedSweep() *Sweep {
	s := NewSweep()
	s.binned = true
	return s
}

// Name returns "sweep".
func (s *Sweep) Name() string { return SweepName }

// Incremental reports false: no sweep keeps its index across Prepares.
//
// Deprecated: the sweep has no incremental mode; kept for Maintainer.
func (s *Sweep) Incremental() bool { return false }

// LastPrepareIncremental reports false: every Prepare builds the index
// from the current envelopes.
//
// Deprecated: the sweep has no incremental mode; kept for Maintainer.
func (s *Sweep) LastPrepareIncremental() bool { return false }

// TakeUpdateStats returns zero counts: there is no index maintenance
// to count.
//
// Deprecated: the sweep has no incremental mode; kept for Maintainer.
func (s *Sweep) TakeUpdateStats() UpdateStats { return UpdateStats{} }

// Prepare computes every aircraft's reach envelope, keeps its altitude
// beside it, and builds the index: the bins on the production sweep,
// the sorted x order on NewSweep's.
func (s *Sweep) Prepare(w *airspace.World) {
	s.growFor(w.N())
	s.maxW = 0
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		r := Reach(a)
		s.lox[i], s.hix[i] = a.X-r, a.X+r
		s.loy[i], s.hiy[i] = a.Y-r, a.Y+r
		s.alt[i] = a.Alt
		if 2*r > s.maxW {
			s.maxW = 2 * r
		}
	}
	s.finishPrepare()
}

// PrepareColumns is Prepare reading positions, velocities and
// altitudes from a column snapshot of the same world state instead of
// the aircraft records. The envelope expressions evaluate on the same
// float64 values, so the index — and every candidate set — is
// bit-identical to Prepare's; what changes is that the build walks five
// dense arrays the caller has already made cache-hot for the scan that
// follows.
func (s *Sweep) PrepareColumns(c *airspace.Columns) {
	n := c.N()
	s.growFor(n)
	s.maxW = 0
	for i := 0; i < n; i++ {
		r := ReachAt(c.DX[i], c.DY[i])
		s.lox[i], s.hix[i] = c.X[i]-r, c.X[i]+r
		s.loy[i], s.hiy[i] = c.Y[i]-r, c.Y[i]+r
		s.alt[i] = c.Alt[i]
		if 2*r > s.maxW {
			s.maxW = 2 * r
		}
	}
	s.finishPrepare()
}

// growFor sizes the per-aircraft envelope arrays for n.
func (s *Sweep) growFor(n int) {
	s.n = n
	if cap(s.lox) < n {
		s.lox = make([]float64, n)
		s.hix = make([]float64, n)
		s.loy = make([]float64, n)
		s.hiy = make([]float64, n)
		s.alt = make([]float64, n)
	}
	s.lox, s.hix = s.lox[:n], s.hix[:n]
	s.loy, s.hiy = s.loy[:n], s.hiy[:n]
	s.alt = s.alt[:n]
}

// finishPrepare builds the index over the freshly written envelopes.
func (s *Sweep) finishPrepare() {
	if s.binned {
		s.bins.build(s.lox, s.hix, s.loy, s.hiy, s.alt, s.maxW)
		return
	}
	n := s.n
	if cap(s.order) < n {
		s.order = make([]int32, n)
		s.sortedLo = make([]float64, n)
		s.sortedBox = make([]float64, 3*n)
	}
	s.order, s.sortedLo, s.sortedBox = s.order[:n], s.sortedLo[:n], s.sortedBox[:3*n]
	for i := range s.order {
		s.order[i] = int32(i)
	}
	s.sorter.order, s.sorter.lox = s.order, s.lox
	sort.Sort(&s.sorter)
	for k, id := range s.order {
		s.sortedLo[k] = s.lox[id]
		s.sortedBox[3*k] = s.hix[id]
		s.sortedBox[3*k+1] = s.loy[id]
		s.sortedBox[3*k+2] = s.hiy[id]
	}
}

// Candidates returns the aircraft whose envelopes overlap the track's
// on both axes, ascending. Safe for concurrent use after Prepare.
func (s *Sweep) Candidates(w *airspace.World, track *airspace.Aircraft) []int32 {
	return s.AppendCandidates(nil, w, track)
}

// getScratch returns a pooled bitmap sized for nw words; growth is the
// cold path kept outside AppendCandidates' noalloc contract.
func (s *Sweep) getScratch(nw int) *sweepScratch {
	sc, _ := s.scratch.Get().(*sweepScratch)
	if sc == nil {
		sc = &sweepScratch{}
	}
	if len(sc.words) < nw {
		sc.words = make([]uint64, nw)
	}
	return sc
}

// AppendCandidates is Candidates emitting into the caller's buffer: the
// bitmap walk appends straight to dst, so a reused buffer makes the
// query allocation-free. Safe for concurrent use after Prepare.
//
//atm:noalloc
func (s *Sweep) AppendCandidates(dst []int32, w *airspace.World, track *airspace.Aircraft) []int32 {
	if s.n == 0 {
		return dst
	}
	nw := (s.n + 63) / 64
	sc := s.getScratch(nw) //atm:allow noallocflow -- scratch acquisition allocates only on pool miss or fleet growth; steady state reuses pooled words
	dst = s.appendCandidatesID(dst, int(track.ID), sc.words)
	s.scratch.Put(sc)
	return dst
}

// appendCandidatesID is AppendCandidates' query core: emit aircraft
// i's candidates into dst using the caller's bitmap words (len >=
// ceil(n/64), all zero; left zero on return). Pure with respect to the
// prepared index, so repeated calls return identical sets.
//
// An aircraft j is a candidate when its envelope passes the window
// walk's comparisons against the track's: lox[j] ≥ qloX − maxW (the
// window start; hix − lox can exceed maxW by an ulp, so this is not
// implied by the others), lox[j] ≤ qhiX, hix[j] ≥ qloX, loy[j] ≤ qhiY
// and hiy[j] ≥ qloY.
//
//atm:noalloc
func (s *Sweep) appendCandidatesID(dst []int32, i int, words []uint64) []int32 {
	q := s.envelopeOf(i)
	if s.binned {
		s.bins.mark(words, &q, q.lox-s.maxW)
	} else {
		s.markWindow(words, &q)
	}
	return appendMarked(dst, words[:(s.n+63)/64], 0)
}

// envelopeOf returns aircraft i's envelope and altitude.
//
//atm:inline
func (s *Sweep) envelopeOf(i int) envelope {
	return envelope{lox: s.lox[i], hix: s.hix[i], loy: s.loy[i], hiy: s.hiy[i], alt: s.alt[i]}
}

// appendMarked appends the index of every bit set in words to dst,
// ascending, and clears the bits; words[0] holds the bits of indices
// 64·w0 to 64·w0+63.
//
//atm:noalloc
func appendMarked(dst []int32, words []uint64, w0 int) []int32 {
	for wi, word := range words {
		if word == 0 {
			continue
		}
		words[wi] = 0
		base := int32(w0+wi) << 6
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}

// markWindow is the reference walk: it sets the bit of every candidate
// of the query envelope q by reading the sorted x window
// [q.lox − maxW, q.hix].
//
//atm:noalloc
func (s *Sweep) markWindow(words []uint64, q *envelope) {
	// The window's end is resolved by binary search up front (first
	// sorted low-x above q.hix) so the walk spends no comparison on it.
	start := sort.SearchFloat64s(s.sortedLo, q.lox-s.maxW)
	lo, hi := start, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sortedLo[mid] <= q.hix {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	box := s.sortedBox
	for k := start; k < end; k++ {
		b := 3 * k
		if box[b] < q.lox {
			continue
		}
		if box[b+1] > q.hiy || box[b+2] < q.loy {
			continue
		}
		j := s.order[k]
		words[j>>6] |= 1 << (uint(j) & 63)
	}
}
