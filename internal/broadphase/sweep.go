package broadphase

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// Sweep is sort-based sweep-and-prune on the per-axis reach intervals
// (Marzolla & D'Angelo's sort-based matching, specialized to per-track
// queries). Prepare sorts the aircraft by the low edge of their x-axis
// envelope; a query binary-searches the run of aircraft whose x
// interval can overlap the track's and filters that run by the actual
// x and y interval tests. The window [lo − maxWidth, hi] is sound
// because no stored interval is wider than maxWidth: anything starting
// earlier has necessarily ended before the query interval begins.
//
// The production sweep New(SweepName) returns keeps its sorted order
// across Prepare calls and repairs it with an insertion-sort pass
// instead of re-sorting from scratch. Aircraft move a tiny fraction of
// the airspace between consecutive detection invocations (0.5 s
// tracking period, ~600 kt speeds), so the previous order is nearly
// sorted and the repair is O(N) plus the few shifts the motion actually
// caused; a shift budget bounds the pathological case (mass teleports)
// by falling back to the full sort. It also materializes every track's
// candidate set per invocation in one worker-parallel table build, up
// to a size limit past which consumers query it per track (see
// table.go). NewSweep returns the rebuild sweep — full sort on every
// Prepare, queried per track, no table — which is the oracle the
// repair is checked against. Candidate sets are bit-identical between
// the two: the per-query bitmap emits ascending aircraft indices
// regardless of how the sorted order permutes aircraft with equal
// low-x keys, and window membership depends only on the envelope
// values, which are computed identically.
type Sweep struct {
	n int
	// order holds aircraft indices sorted by ascending envelope low-x;
	// sortedLo mirrors the low-x values in the same order for binary
	// search.
	order    []int32
	sortedLo []float64
	// Envelope edges indexed by aircraft index.
	lox, hix, loy, hiy []float64
	// maxW is the widest x envelope in the world. The envelope fill
	// loop recomputes it as a running max every Prepare: the fill is
	// already O(N) (every position changes every period), so the exact
	// recompute costs nothing extra and can never go stale the way a
	// shrink-tracking scheme could.
	maxW float64

	// coherent marks the production sweep New(SweepName) returns: the
	// sorted order persists across Prepares and is repaired in place,
	// and PrepareTable builds the candidate table. NewSweep leaves it
	// false. prepared records that order holds a valid permutation from
	// a previous Prepare of the same world size.
	coherent bool
	prepared bool
	// sortedBox interleaves the remaining envelope edges permuted into
	// sorted order — hi-x, lo-y, hi-y at stride 3 — so the window walk
	// reads one dense sequential stream instead of gathering through
	// order (a dependent indexed load per visited element) or striding
	// three parallel arrays.
	sortedBox []float64

	// lastIncremental records whether the most recent Prepare repaired
	// the order in place (true) or fell back to / started from a full
	// sort (false).
	lastIncremental bool
	// Update counters, drained by TakeUpdateStats. Prepare is
	// sequential by contract, so plain fields suffice.
	statUpdates, statRebuilds, statMoved, statResorted int64

	// pool runs PrepareTable's segment walk; nil keeps it serial.
	// Consumers install it through SetPool.
	pool *parexec.Pool
	// table is the source-owned candidate table PrepareTable fills;
	// chunkBufs / cnt are its build scratch. tableTotal is the build's
	// running candidate total, shared by the segment walks (held by
	// pointer like scratch, so a copy of the struct shares it), and
	// tableLimit the total past which the build gives up (see
	// tableLimit in table.go).
	table      PairTable
	chunkBufs  []tableBuf
	cnt        []int32
	tableTotal *atomic.Int64 //atm:allow atomic -- order-independent sum of the segment walks, read only after they finish
	tableLimit int64
	// Shard counters, drained by TakeShardStats. statSegments counts
	// table-build segments; statBatches accumulates consumer-reported
	// batched-kernel iterations. Sequential, like the update counters.
	statSegments, statBatches int64
	// Persistent job bodies for the engine's RunBody dispatch, held as
	// fields so steady-state parallel phases allocate nothing.
	fill   fillJob
	copier copyJob

	// sorter is the reusable sort.Interface over order/lox: sort.Slice
	// allocates its closure pair on every call, which made Prepare the
	// only allocation left in a steady-state detection period.
	sorter sweepOrder

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

// sweepScratch accumulates one query's candidates as a bitmap, exactly
// as gridScratch does: the sweep window yields hits in low-x order, and
// the trailing-zeros walk re-emits them in the ascending index order
// the scan's tie-break requires without a per-query comparison sort.
type sweepScratch struct {
	words []uint64
}

// NewSweep returns the rebuild sweep: a full sort on every Prepare,
// queried per track, no candidate table. It is the reference the
// production sweep's order repair is checked against.
func NewSweep() *Sweep {
	return &Sweep{scratch: &sync.Pool{}, tableTotal: new(atomic.Int64)} //atm:allow atomic -- the table build's running total, see tableTotal
}

// newCoherentSweep returns the production sweep: the sorted order is
// repaired across Prepares and every track's candidates are served
// from one table build per invocation. Candidate sets are
// bit-identical to NewSweep's.
func newCoherentSweep() *Sweep {
	s := NewSweep()
	s.coherent = true
	return s
}

// Name returns "sweep".
func (s *Sweep) Name() string { return SweepName }

// Incremental reports whether the sorted order is repaired across
// Prepares: true for the production sweep, false for NewSweep's.
func (s *Sweep) Incremental() bool { return s.coherent }

// LastPrepareIncremental reports whether the most recent Prepare
// repaired the previous order in place rather than running a full sort.
func (s *Sweep) LastPrepareIncremental() bool { return s.lastIncremental }

// TakeUpdateStats returns the update counters accumulated since the
// last call and resets them. Like Prepare, it is not safe for
// concurrent use.
func (s *Sweep) TakeUpdateStats() UpdateStats {
	st := UpdateStats{
		Updates:  s.statUpdates,
		Rebuilds: s.statRebuilds,
		Moved:    s.statMoved,
		Resorted: s.statResorted,
	}
	s.statUpdates, s.statRebuilds, s.statMoved, s.statResorted = 0, 0, 0, 0
	return st
}

// Prepare computes every aircraft's reach envelope and establishes the
// sorted x order — by insertion repair of the previous order on the
// production sweep, by full sort on NewSweep's.
func (s *Sweep) Prepare(w *airspace.World) {
	n := w.N()
	reuse := s.growFor(n)
	s.maxW = 0
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		r := Reach(a)
		s.lox[i], s.hix[i] = a.X-r, a.X+r
		s.loy[i], s.hiy[i] = a.Y-r, a.Y+r
		if 2*r > s.maxW {
			s.maxW = 2 * r
		}
	}
	s.finishPrepare(reuse)
}

// PrepareColumns is Prepare reading positions and velocities from a
// column snapshot of the same world state instead of the aircraft
// records. The envelope expressions evaluate on the same float64
// values, so the index — and every candidate set — is bit-identical to
// Prepare's; what changes is that the build walks five dense arrays
// the caller has already made cache-hot for the scan that follows.
func (s *Sweep) PrepareColumns(c *airspace.Columns) {
	n := c.N()
	reuse := s.growFor(n)
	s.maxW = 0
	for i := 0; i < n; i++ {
		r := ReachAt(c.DX[i], c.DY[i])
		s.lox[i], s.hix[i] = c.X[i]-r, c.X[i]+r
		s.loy[i], s.hiy[i] = c.Y[i]-r, c.Y[i]+r
		if 2*r > s.maxW {
			s.maxW = 2 * r
		}
	}
	s.finishPrepare(reuse)
}

// growFor sizes the per-aircraft arrays for n and reports whether the
// previous sorted order may be repaired in place rather than rebuilt.
func (s *Sweep) growFor(n int) (reuse bool) {
	reuse = s.coherent && s.prepared && s.n == n && n > 1
	s.n = n
	if cap(s.order) < n {
		s.order = make([]int32, n)
		s.sortedLo = make([]float64, n)
		s.lox = make([]float64, n)
		s.hix = make([]float64, n)
		s.loy = make([]float64, n)
		s.hiy = make([]float64, n)
	}
	s.order = s.order[:n]
	s.sortedLo = s.sortedLo[:n]
	s.lox, s.hix = s.lox[:n], s.hix[:n]
	s.loy, s.hiy = s.loy[:n], s.hiy[:n]
	return reuse
}

// finishPrepare establishes the sorted order over the freshly written
// envelopes — repairing the previous order when reuse allows, sorting
// otherwise — and rebuilds the sorted-axis views.
func (s *Sweep) finishPrepare(reuse bool) {
	n := s.n
	repaired := reuse && s.repairOrder()
	if repaired {
		s.statUpdates++
	} else {
		if !reuse {
			// Fresh build (first Prepare, or the world size changed):
			// start from the identity permutation like the rebuild
			// path always has.
			for i := range s.order {
				s.order[i] = int32(i)
			}
		}
		// On a budget-exceeded fallback the partially repaired order is
		// still a valid permutation; sorting it as-is is correct (the
		// candidate set does not depend on how equal keys permute).
		s.sorter.order, s.sorter.lox = s.order, s.lox
		sort.Sort(&s.sorter)
		if s.coherent {
			s.statRebuilds++
		}
	}
	s.lastIncremental = repaired

	if cap(s.sortedBox) < 3*n {
		s.sortedBox = make([]float64, 3*n)
	}
	s.sortedBox = s.sortedBox[:3*n]
	for k, id := range s.order {
		s.sortedLo[k] = s.lox[id]
		s.sortedBox[3*k] = s.hix[id]
		s.sortedBox[3*k+1] = s.loy[id]
		s.sortedBox[3*k+2] = s.hiy[id]
	}
	s.prepared = true
}

// repairBudget bounds the total insertion shifts Prepare may spend
// repairing the previous order before falling back to the full sort.
// ~4·N·log₂N shifts is the point where repair work rivals the
// comparison sort it replaces; normal per-period motion costs well
// under one shift per aircraft, so only mass disruption (a reseeded
// world, wholesale teleports) trips it.
func repairBudget(n int) int64 {
	return 4 * int64(n) * int64(bits.Len(uint(n)))
}

// repairOrder restores sortedness of order (keyed by lox) with a
// bounded insertion sort, counting how many elements were out of place
// (resorted) and how far they shifted (moved). It returns false if the
// shift budget was exceeded; order is then still a valid permutation
// and the caller falls back to the full sort.
//
//atm:noalloc
//atm:noescape
func (s *Sweep) repairOrder() bool {
	order, lox := s.order, s.lox
	budget := repairBudget(len(order))
	var shifts, resorted int64
	for k := 1; k < len(order); k++ {
		id := order[k]
		key := lox[id]
		j := k
		for j > 0 && lox[order[j-1]] > key {
			order[j] = order[j-1]
			j--
		}
		if j == k {
			continue
		}
		order[j] = id
		resorted++
		shifts += int64(k - j)
		// Checked only after the element is fully inserted so that an
		// abort always leaves order a valid permutation.
		if shifts > budget {
			s.statMoved += shifts
			s.statResorted += resorted
			return false
		}
	}
	s.statMoved += shifts
	s.statResorted += resorted
	return true
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

// appendCandidatesID is the query core shared by AppendCandidates and
// the table build: emit aircraft i's candidates into dst using the
// caller's bitmap words (len >= ceil(n/64), all zero; left zero on
// return). Pure with respect to the prepared index, so repeated calls
// — and the table built from one walk — return identical sets.
//
//atm:noalloc
func (s *Sweep) appendCandidatesID(dst []int32, i int, words []uint64) []int32 {
	qloX, qhiX := s.lox[i], s.hix[i]
	qloY, qhiY := s.loy[i], s.hiy[i]

	nw := (s.n + 63) / 64
	// The window is [qloX − maxW, qhiX] in sorted order; its end is
	// resolved by binary search up front (first sorted low-x above
	// qhiX) so the walk spends no comparison on it.
	start := sort.SearchFloat64s(s.sortedLo, qloX-s.maxW)
	lo, hi := start, s.n
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.sortedLo[mid] <= qhiX {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	end := lo
	box := s.sortedBox
	for k := start; k < end; k++ {
		b := 3 * k
		if box[b] < qloX {
			continue
		}
		if box[b+1] > qhiY || box[b+2] < qloY {
			continue
		}
		j := s.order[k]
		words[j>>6] |= 1 << (uint(j) & 63)
	}
	for wi := 0; wi < nw; wi++ {
		word := words[wi]
		if word == 0 {
			continue
		}
		words[wi] = 0
		base := int32(wi) << 6
		for word != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	return dst
}
