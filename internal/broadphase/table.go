// Worker-parallel candidate tables, built by the production sweep.
//
// A PairTable materializes, for one detection invocation, every
// track's broad-phase candidates that Algorithm 2 will evaluate: its
// row holds the candidates inside the track's altitude band
// (airspace.AltOverlap, the track itself included), in CSR form, and
// beside it the size of the track's full candidate set, which the
// executors' modeled charges count.
//
// Building it walks the binned envelopes once, in bin order, and
// visits each unordered pair of envelopes once. From the envelope at
// bin position p the walk reads the query blocks of the higher speed
// classes in full; in its own class it reads only the cell rows at or
// above its own, and in its own row only the positions after p. That
// reaches every candidate pair: four of the five comparisons that make
// j a candidate of i (the box overlap on both axes) are symmetric in i
// and j, and they put each envelope inside the other's query block
// (bins.go), so whichever of the two comes first in bin order — the
// lower class, or in one class the lower position — reads the other.
// A visit evaluates those four comparisons once and the fifth, the
// window start lox − maxW, in each direction with the reference's own
// expression: an envelope's hix − lox can exceed maxW by an ulp, so a
// pair may be a candidate one way only. Each direction that holds adds
// one to that track's full count. A pair inside the altitude band
// (AltOverlap is symmetric) is stored once: as a partner in the run of
// the envelope it was visited from when it is a candidate both ways,
// as a directed entry in the rare case it is not.
//
// The walk runs in grain-aligned segments of bin positions that
// self-schedule across the shared parexec pool: each segment stores
// its runs in its own buffer, and each worker adds counts and row
// lengths into its own per-track tally. One pass then sums the
// tallies into Count and the CSR offsets and turns each worker's row
// tally into its cursors, which start every row where the entries
// counted by lower-numbered workers end. A counting sort by row
// follows, one chunk per worker: it moves the runs of the segments
// that worker walked — a run's partners into its own row as one copy,
// the run's aircraft into each partner's row — into slots no other
// chunk writes. Last, each row is put in ascending order with a
// bitmap: its bits are set, then emitted in index order back into the
// row's span. A pair is visited once, so a row holds each candidate
// once and the bitmap gives back exactly the row; sums and ascending
// rows do not depend on which worker claimed which segment, so the
// finished table is byte-identical at every worker count. Run buffers
// are per segment rather than per worker so their steady-state sizes
// are stable too: a segment's total drifts slowly with traffic, while
// a worker's share of dynamically claimed segments varies run to run
// and would regrow its buffer toward the whole table.
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
// What the table costs is memory: a stored pair takes 4 bytes of its
// run and stands for two row entries, each of which takes a 4-byte CSR
// slot, so with the runs' 8-byte headers and the headroom a stored
// candidate costs about 6-7 bytes, and dense traffic in one altitude
// band has up to N² of them. The walk therefore stops as soon as the
// running total of full candidate sets — every direction of every pair
// it has counted — passes tableLimit(n), and PrepareTable returns nil;
// consumers then query the same index per track. The run buffers the
// stopped walk filled stay allocated for the next build, so a sweep
// past the limit holds at most about the limit's worth of candidates.
// Whether the limit is passed depends only on the total of the full
// sets (the sum of Count over every track), never on the altitudes, so
// the choice is deterministic and identical at every worker count, and
// both paths give the scan the same survivors.
package broadphase

import (
	"math"
	"slices"

	"repro/internal/airspace"
	"repro/internal/parexec"
)

// tableGrain is the segment size of the table build's phases: one
// self-scheduled chunk covers this many consecutive bin positions in
// the walk and this many consecutive rows in the row sort. Small enough
// to load-balance skewed candidate counts, large enough that the
// per-chunk bookkeeping is noise.
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
// past the limit to about that many per worker plus one envelope's
// visits.
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

// A walk segment stores what it finds as runs in one []int32, one run
// per envelope it visited from that stored anything: the aircraft
// index a, complemented (^a, negative) when a is not in its own row;
// the number m of partners that follow; and the m partners b, each an
// in-band pair that is a candidate both ways, so that b belongs in a's
// row and a in b's. The rare in-band pair that is a candidate one way
// only is stored apart, as a directed entry.

// tableEntry is one directed row entry: cand belongs in row's row.
type tableEntry struct{ row, cand int32 }

// tableSeg is one walk segment's stored runs and one-way entries and
// the worker that walked it, padded so slice headers written by
// different workers don't share a cache line.
type tableSeg struct {
	runs   []int32
	oneWay []tableEntry
	walker int32
	_      [12]byte
}

// tableWorker is one worker's build scratch: its tally of every
// track's full-set size and row length, and the bitmap its row sort
// uses, padded like tableSeg.
type tableWorker struct {
	tally []rowTally
	words []uint64
	_     [16]byte
}

// rowTally is one worker's share of a track's full-set size and row
// length. Once the tallies are summed, row becomes the worker's cursor
// into the track's row for the scatter.
type rowTally struct{ count, row int32 }

// Sharded reports whether the sweep builds the candidate table: true
// for the production sweep, false for NewSweep's.
func (s *Sweep) Sharded() bool { return s.binned }

// SetPool hands the sweep the engine pool PrepareTable's phases run
// on; nil keeps them serial.
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

// walkJob walks one grain-aligned segment of bin positions, visiting
// each position's pairs into the segment's buffers and the claiming
// worker's tally. The buffers belong to the segment, not the worker,
// so steady-state buffer sizes are independent of the claim order.
//
// Every segment adds the full-set sizes it counted to the shared
// running total at least every tablePublish candidates and stops once
// the total passes the limit; segments claimed after that skip their
// walk.
type walkJob struct{ s *Sweep }

//atm:noalloc
//atm:allow atomic -- the running total is an order-independent sum; whether it passes the limit depends only on the final sum, never on the claim order
func (j *walkJob) Chunk(worker, lo, hi int) {
	s := j.s
	if s.tableTotal.Load() > s.tableLimit {
		return
	}
	seg := &s.segs[lo/tableGrain]
	seg.walker = int32(worker)
	tally := s.workers[worker].tally
	runs, oneWay := seg.runs[:0], seg.oneWay[:0]
	counted, published := 0, 0
	for p := lo; p < hi; p++ {
		var c int
		runs, oneWay, c = s.bins.pairsFrom(runs, oneWay, tally, p, s.maxW)
		counted += c
		if counted-published >= tablePublish || p == hi-1 {
			if s.tableTotal.Add(int64(counted-published)) > s.tableLimit {
				break
			}
			published = counted
		}
	}
	seg.runs = withHeadroom(runs)     //atm:allow noallocflow -- headroom regrow only, amortized to nothing in steady state
	seg.oneWay = withHeadroom(oneWay) //atm:allow noallocflow -- headroom regrow only, amortized to nothing in steady state
}

// pairsFrom visits the envelope at bin position p paired with itself
// and with every envelope after it in the walk order (see the file
// comment). For each pair that passes the four box comparisons it adds
// the directions that pass the window start to the two tracks' counts
// in tally and, when the pair is inside the altitude band, to their
// row lengths, and stores the pair: in the envelope's run when it is a
// candidate both ways, in oneWay otherwise. It returns the extended
// runs and oneWay and the number of candidates it counted.
//
//atm:noalloc
func (b *binIndex) pairsFrom(runs []int32, oneWay []tableEntry, tally []rowTally, p int, maxW float64) ([]int32, []tableEntry, int) {
	start := b.start
	q := &b.env[p]
	a := q.id
	qlox, qhix, qloy, qhiy, qalt := q.lox, q.hix, q.loy, q.hiy, q.alt
	winLo := qlox - maxW
	// own is a's tally; theirs counts the other tracks' candidates.
	var own rowTally
	theirs := 0
	head := ^a
	if qhix >= qlox && qlox <= qhix && qhiy >= qloy && qloy <= qhiy && qlox >= winLo {
		own.count++
		if airspace.AltOverlap(qalt, qalt) {
			own.row++
			head = a
		}
	}
	at := len(runs)
	runs = append(runs, head, 0)
	cell := int(b.key[a])
	class, cy := cell/(binGrid*binGrid), cell/binGrid%binGrid
	for c := class; c < binClasses; c++ {
		first := c * binGrid * binGrid
		if start[first] == start[first+binGrid*binGrid] {
			continue
		}
		x0, x1, y0, y1 := b.block(q, c)
		if c == class {
			y0 = max(y0, cy)
		}
		for y := y0; y <= y1; y++ {
			row := first + y*binGrid
			lo, hi := int(start[row+x0]), int(start[row+x1+1])
			if c == class && y == cy {
				lo = p + 1 // p's own cell lies inside its block
			}
			env := b.env[lo:hi]
			for k := range env {
				e := &env[k]
				if e.hix >= qlox && e.lox <= qhix && e.hiy >= qloy && e.loy <= qhiy {
					in := e.lox >= winLo      // e is a candidate of q
					out := qlox >= e.lox-maxW // q is a candidate of e
					t := &tally[e.id]
					if in {
						own.count++
					}
					if out {
						t.count++
						theirs++
					}
					if !airspace.AltOverlap(qalt, e.alt) {
						continue
					}
					switch {
					case in && out:
						own.row++
						t.row++
						runs = append(runs, e.id)
					case in:
						own.row++
						oneWay = append(oneWay, tableEntry{a, e.id})
					case out:
						t.row++
						oneWay = append(oneWay, tableEntry{e.id, a})
					}
				}
			}
		}
	}
	if m := len(runs) - at - 2; m > 0 || head >= 0 {
		runs[at+1] = int32(m)
	} else {
		runs = runs[:at]
	}
	tally[a].count += own.count
	tally[a].row += own.row
	return runs, oneWay, int(own.count) + theirs
}

// withHeadroom returns buf, reallocated with an eighth of spare
// capacity when it has nearly run out. Segment totals drift a little
// every period, and a buffer ending exactly at capacity would regrow
// on the very next build; the headroom absorbs the drift so the steady
// state stays allocation-free. Same policy as the CSR Cand array in
// PrepareTable.
func withHeadroom[T any](buf []T) []T {
	if cap(buf)-len(buf) >= len(buf)/16 {
		return buf
	}
	nb := make([]T, len(buf), len(buf)+len(buf)/8+64)
	copy(nb, buf)
	return nb
}

// scatterJob is the counting sort by row: chunk k moves the runs and
// one-way entries of every segment worker k walked into their rows,
// writing from worker k's cursors. Those cursors start each row where
// the entries counted by lower-numbered workers end, so the chunks
// write disjoint slots, and which slots a worker's entries take does
// not matter: the row sort that follows orders every row. A run's own
// row receives its partners as one copy; each partner's row receives
// the run's aircraft.
type scatterJob struct{ s *Sweep }

//atm:noalloc
func (j *scatterJob) Chunk(_, lo, hi int) {
	s := j.s
	cand := s.table.Cand
	segs := s.segs[:(s.n+tableGrain-1)/tableGrain]
	for k := lo; k < hi; k++ {
		cur := s.workers[k].tally
		for g := range segs {
			seg := &segs[g]
			if int(seg.walker) != k {
				continue
			}
			runs := seg.runs
			for len(runs) >= 2 {
				a, m := runs[0], int(runs[1])
				partners := runs[2 : 2+m]
				runs = runs[2+m:]
				if a < 0 {
					a = ^a
				} else {
					cand[cur[a].row] = a
					cur[a].row++
				}
				c := cur[a].row
				copy(cand[c:], partners)
				cur[a].row = c + int32(m)
				for _, b := range partners {
					cand[cur[b].row] = a
					cur[b].row++
				}
			}
			for _, e := range seg.oneWay {
				cand[cur[e.row].row] = e.cand
				cur[e.row].row++
			}
		}
	}
}

// sortJob puts the rows of one grain-aligned range of tracks in
// ascending order through the claiming worker's bitmap, which it
// leaves clear. A row holds each candidate once, so the bitmap's set
// bits, emitted in index order, fill the row's span exactly.
type sortJob struct{ s *Sweep }

//atm:noalloc
func (j *sortJob) Chunk(worker, lo, hi int) {
	t := &j.s.table
	words := j.s.workers[worker].words
	for i := lo; i < hi; i++ {
		row := t.Cand[t.Start[i]:t.Start[i+1]]
		if len(row) < 2 {
			continue
		}
		w0, w1 := len(words), 0
		for _, c := range row {
			wi := int(c >> 6)
			words[wi] |= 1 << (uint(c) & 63)
			w0, w1 = min(w0, wi), max(w1, wi)
		}
		appendMarked(row[:0], words[w0:w1+1], w0)
	}
}

// runTable dispatches body over [0, n) in chunks of grain on the
// sweep's pool, or serially without one.
func (s *Sweep) runTable(n, grain int, body parexec.Body) {
	if s.pool == nil {
		for lo := 0; lo < n; lo += grain {
			body.Chunk(0, lo, min(lo+grain, n))
		}
		return
	}
	s.pool.RunBody(n, grain, body)
}

// PrepareTable builds the candidate table for every track by one
// worker-parallel walk over the envelope pairs, or returns nil once
// the total of the full candidate sets passes tableLimit. Must follow
// Prepare (or PrepareColumns) of the same world state.
//
//atm:allow atomic -- resets the running total before the walk and reads it after it finishes
func (s *Sweep) PrepareTable() *PairTable {
	n := s.n
	t := &s.table
	if cap(t.Start) < n+1 {
		t.Start = make([]int32, n+1)
		t.Count = make([]int32, n)
	}
	t.Start, t.Count = t.Start[:n+1], t.Count[:n]
	segs := (n + tableGrain - 1) / tableGrain
	if len(s.segs) < segs {
		s.segs = slices.Grow(s.segs, segs-len(s.segs))[:segs]
	}
	workers := 1
	if s.pool != nil {
		workers = s.pool.Workers()
	}
	if len(s.workers) < workers {
		s.workers = slices.Grow(s.workers, workers-len(s.workers))[:workers]
	}
	nw := (n + 63) / 64
	for k := range s.workers[:workers] {
		wk := &s.workers[k]
		if cap(wk.tally) < n {
			wk.tally = make([]rowTally, n)
		}
		wk.tally = wk.tally[:n]
		clear(wk.tally)
		if len(wk.words) < nw {
			wk.words = make([]uint64, nw)
		}
	}

	s.tableLimit = tableLimit(n)
	s.tableTotal.Store(0)
	s.walk.s = s
	s.runTable(n, tableGrain, &s.walk)
	s.statSegments += int64(segs)
	if s.tableTotal.Load() > s.tableLimit {
		return nil
	}

	// Sum the tallies into Count and the row lengths into the offsets,
	// turning each worker's row tally into its scatter cursor on the
	// way. Rows are subsets of the full sets, whose total is at most
	// tableLimit, so every offset fits in int32.
	for i := 0; i < n; i++ {
		var count int32
		slot := t.Start[i]
		for k := range s.workers[:workers] {
			v := &s.workers[k].tally[i]
			count += v.count
			v.row, slot = slot, slot+v.row
		}
		t.Count[i] = count
		t.Start[i+1] = slot
	}
	sum := int(t.Start[n])
	if cap(t.Cand) < sum {
		// An eighth of headroom: the candidate total drifts by a few
		// hundred entries per period as traffic moves, and exact sizing
		// would reallocate the whole table on every new high-water mark.
		t.Cand = make([]int32, sum, sum+sum/8)
	}
	t.Cand = t.Cand[:sum]

	s.scatter.s = s
	s.runTable(workers, 1, &s.scatter)
	s.rows.s = s
	s.runTable(n, tableGrain, &s.rows)
	return t
}
