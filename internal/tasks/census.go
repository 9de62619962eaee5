// Task 1's census arbitration, the matching protocol of the
// data-parallel executors.

package tasks

import (
	"slices"
	"sync/atomic"

	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// Census is one pass of Algorithm 1 in barrier-separated data-parallel
// form, the protocol cuda's launches and vector's phases share: Count
// takes each pending radar's census of eligible aircraft in its box,
// Claim discards the radars that saw two and has the others claim
// their unique candidate, Arbitrate withdraws every aircraft claimed
// twice, and Finalize matches each radar whose candidate survived.
// Each step reads only what the steps before it wrote, so with the
// executor's barrier between steps the outcome is independent of
// thread interleaving: the paper's discard rules, arbitrated per pass
// instead of per scan step. A contested radar stays pending for the
// next, doubled box.
//
// Count, Claim and Finalize act on one radar and Arbitrate on one
// aircraft; each may run concurrently for distinct indices, Count on
// the caller's own slot. A Census is owned by one engine and reused
// across passes and calls; once its buffers have grown, Prepare and
// the steps allocate nothing.
type Census struct {
	rows BoxHits
	// claims counts, per aircraft, the radars whose unique candidate
	// it is this pass. Per radar: the eligible hits its census saw,
	// capped at 2, and the last of them. bufs holds each slot's buffer
	// for a row BoxHits serves on demand.
	claims []int32
	hits   []uint8
	cand   []int32
	bufs   []ScanBuf
}

// Prepare starts a pass with box half-width boxHalf: it computes the
// box-hit rows of the radars of f pending now (fanned out over pool;
// nil means the process default), clears the claim counters, readies
// slots slots for Count and returns the number of pending radars. w's
// expected positions must be current.
func (c *Census) Prepare(w *airspace.World, f *radar.Frame, boxHalf float64, pool *parexec.Pool, slots int) (pending int) {
	n, nr := w.N(), f.N()
	if cap(c.claims) < n {
		c.claims = make([]int32, n)
	}
	c.claims = c.claims[:n]
	clear(c.claims)
	if cap(c.cand) < nr {
		c.hits = make([]uint8, nr)
		c.cand = make([]int32, nr)
	}
	c.hits, c.cand = c.hits[:nr], c.cand[:nr]
	if len(c.bufs) < slots {
		c.bufs = slices.Grow(c.bufs, slots-len(c.bufs))[:slots]
	}
	return c.rows.Prepare(w, f, boxHalf, pool)
}

// Count takes radar j's census: it walks the radar's box-hit row over
// the aircraft still eligible (neither matched nor withdrawn), up to
// the second. It reports whether the radar is pending, and stop, the
// index of its second eligible hit, else N-1: the last aircraft an
// all-N census loop would have tested.
//
//atm:noalloc
func (c *Census) Count(w *airspace.World, f *radar.Frame, slot, j int) (pending bool, stop int32) {
	c.hits[j], c.cand[j] = 0, -1
	if f.Reports[j].MatchWith != radar.Unmatched {
		return false, 0
	}
	stop = int32(w.N() - 1)
	for _, q := range c.rows.Row(w, f, &c.bufs[slot], j) {
		if w.Aircraft[q].RMatch != airspace.MatchNone {
			continue
		}
		c.hits[j]++
		c.cand[j] = q
		if c.hits[j] > 1 {
			stop = q
			break
		}
	}
	return true, stop
}

// Claim is radar j's claim: a pending radar that saw two or more
// eligible aircraft is discarded, one that saw exactly one claims it
// with a commutative add. It reports whether the radar was pending and
// whether it was discarded.
//
//atm:noalloc
//atm:allow atomic -- claim counters are commutative sums, read only after the claim barrier
func (c *Census) Claim(f *radar.Frame, j int) (pending, discarded bool) {
	rep := &f.Reports[j]
	if rep.MatchWith != radar.Unmatched {
		return false, false
	}
	switch {
	case c.hits[j] >= 2:
		rep.MatchWith = radar.Discarded
		return true, true
	case c.hits[j] == 1:
		atomic.AddInt32(&c.claims[c.cand[j]], 1)
	}
	return true, false
}

// Arbitrate withdraws aircraft i if two or more radars claimed it
// while it was eligible (Algorithm 1 line 8), and reports whether it
// did.
//
//atm:noalloc
func (c *Census) Arbitrate(w *airspace.World, i int) (withdrawn bool) {
	a := &w.Aircraft[i]
	if c.claims[i] >= 2 && a.RMatch == airspace.MatchNone {
		a.RMatch = airspace.MatchDiscarded
		return true
	}
	return false
}

// Finalize matches radar j to its unique candidate if no other radar
// claimed it and it survived arbitration. It reports whether the radar
// had a unique candidate to finalize. A claim count of one means radar
// j is the only one whose candidate this is, so the writes are the
// radar's own.
//
//atm:noalloc
func (c *Census) Finalize(w *airspace.World, f *radar.Frame, j int) (unique bool) {
	rep := &f.Reports[j]
	if rep.MatchWith != radar.Unmatched || c.hits[j] != 1 {
		return false
	}
	q := c.cand[j]
	if a := &w.Aircraft[q]; c.claims[q] == 1 && a.RMatch == airspace.MatchNone {
		a.RMatch = airspace.MatchOne
		rep.MatchWith = q
	}
	return true
}
