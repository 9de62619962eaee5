package tasks

import (
	"fmt"
	"testing"

	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// censusPass is one pass's census as the steps leave it: per radar the
// pending flag, eligible hits (capped at 2), candidate and stop, and
// per aircraft the claims.
type censusPass struct {
	pending []bool
	hits    []uint8
	cand    []int32
	stop    []int32
	claims  []int32
}

// plainCensus is one pass of the census protocol written plainly as
// all-N loops: each pending radar tests every aircraft in index order,
// skipping those matched or withdrawn, up to its second eligible hit;
// the radars that saw two are discarded and the others claim their
// candidate; aircraft claimed twice are withdrawn; unique claims that
// survived become matches. It returns the census after the claims.
func plainCensus(w *airspace.World, f *radar.Frame, boxHalf float64) censusPass {
	n, nr := w.N(), f.N()
	c := censusPass{
		pending: make([]bool, nr), hits: make([]uint8, nr), cand: make([]int32, nr),
		stop: make([]int32, nr), claims: make([]int32, n),
	}
	for j := range f.Reports {
		rep := &f.Reports[j]
		c.cand[j] = -1
		if rep.MatchWith != radar.Unmatched {
			continue
		}
		c.pending[j] = true
		c.stop[j] = int32(n - 1)
		for q := range w.Aircraft {
			a := &w.Aircraft[q]
			if a.RMatch != airspace.MatchNone || !inBox(rep, a, boxHalf) {
				continue
			}
			c.hits[j]++
			c.cand[j] = int32(q)
			if c.hits[j] > 1 {
				c.stop[j] = int32(q)
				break
			}
		}
	}
	for j := range f.Reports {
		rep := &f.Reports[j]
		if rep.MatchWith != radar.Unmatched {
			continue
		}
		switch {
		case c.hits[j] >= 2:
			rep.MatchWith = radar.Discarded
		case c.hits[j] == 1:
			c.claims[c.cand[j]]++
		}
	}
	for i := range w.Aircraft {
		if a := &w.Aircraft[i]; c.claims[i] >= 2 && a.RMatch == airspace.MatchNone {
			a.RMatch = airspace.MatchDiscarded
		}
	}
	for j := range f.Reports {
		rep := &f.Reports[j]
		if rep.MatchWith != radar.Unmatched || c.hits[j] != 1 {
			continue
		}
		if a := &w.Aircraft[c.cand[j]]; c.claims[c.cand[j]] == 1 && a.RMatch == airspace.MatchNone {
			a.RMatch = airspace.MatchOne
			rep.MatchWith = c.cand[j]
		}
	}
	return c
}

// runCensus is plainCensus on c: Prepare, then each step from its own
// parexec run over pool, Count on the worker's slot. Count's results
// are read back from c, the claims after the claim run.
func runCensus(c *Census, w *airspace.World, f *radar.Frame, boxHalf float64, pool *parexec.Pool) (censusPass, int) {
	nr := f.N()
	got := censusPass{pending: make([]bool, nr), stop: make([]int32, nr)}
	pending := c.Prepare(w, f, boxHalf, pool, pool.Workers())
	pool.Run(nr, 5, func(worker, lo, hi int) {
		for j := lo; j < hi; j++ {
			got.pending[j], got.stop[j] = c.Count(w, f, worker, j)
		}
	})
	got.hits = append([]uint8(nil), c.hits...)
	got.cand = append([]int32(nil), c.cand...)
	pool.Run(nr, 5, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			c.Claim(f, j)
		}
	})
	got.claims = append([]int32(nil), c.claims...)
	pool.Run(w.N(), 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			c.Arbitrate(w, i)
		}
	})
	pool.Run(nr, 5, func(_, lo, hi int) {
		for j := lo; j < hi; j++ {
			c.Finalize(w, f, j)
		}
	})
	return got, pending
}

// TestCensusMatchesPlainLoops holds the shared census steps to the
// all-N census loops pass by pass: each radar's pending flag, hits,
// candidate and stop, the claims, the world and the frame. The three
// passes of Algorithm 1 (box half-widths 0.5, 1 and 2 nm) run chained
// at N=1100 and N=4000 on one reused Census, from parexec runs at 1, 2,
// 3 and 8 slots, over noisy fixes with aircraft at the field edge.
// Before the first pass every seventh radar is matched to its aircraft
// and every eleventh discarded, and every thirteenth other aircraft is
// withdrawn.
func TestCensusMatchesPlainLoops(t *testing.T) {
	pools := []*parexec.Pool{parexec.NewPool(1), parexec.NewPool(2), parexec.NewPool(3), parexec.NewPool(8)}
	var c Census
	for _, n := range []int{1100, 4000} {
		base, baseF := boxWorld(n, uint64(n)+7)
		for i := range base.Aircraft {
			base.Aircraft[i].RMatch = airspace.MatchNone
		}
		for j := range baseF.Reports {
			switch {
			case j%7 == 0:
				baseF.Reports[j].MatchWith = int32(j)
				base.Aircraft[j].RMatch = airspace.MatchOne
			case j%11 == 0:
				baseF.Reports[j].MatchWith = radar.Discarded
			default:
				baseF.Reports[j].MatchWith = radar.Unmatched
			}
		}
		for i := range base.Aircraft {
			if i%13 == 0 && base.Aircraft[i].RMatch == airspace.MatchNone {
				base.Aircraft[i].RMatch = airspace.MatchDiscarded
			}
		}
		for _, p := range pools {
			refW, refF := base.Clone(), baseF.Clone()
			w, f := base.Clone(), baseF.Clone()
			var discarded, withdrawn, contested int
			for pass, h := range []float64{0.5, 1, 2} {
				label := fmt.Sprintf("n=%d slots=%d pass %d", n, p.Workers(), pass)
				want := plainCensus(refW, refF, h)
				got, pending := runCensus(&c, w, f, h, p)
				npending := 0
				for j := range want.pending {
					if want.pending[j] {
						npending++
					}
					if got.pending[j] != want.pending[j] || got.hits[j] != want.hits[j] ||
						got.cand[j] != want.cand[j] || (want.pending[j] && got.stop[j] != want.stop[j]) {
						t.Fatalf("%s: radar %d census pending=%v hits=%d cand=%d stop=%d, plain pending=%v hits=%d cand=%d stop=%d",
							label, j, got.pending[j], got.hits[j], got.cand[j], got.stop[j],
							want.pending[j], want.hits[j], want.cand[j], want.stop[j])
					}
					if want.hits[j] >= 2 {
						discarded++
					}
				}
				if pending != npending {
					t.Fatalf("%s: Prepare reports %d pending, want %d", label, pending, npending)
				}
				for i := range want.claims {
					if got.claims[i] != want.claims[i] {
						t.Fatalf("%s: aircraft %d has %d claims, plain %d", label, i, got.claims[i], want.claims[i])
					}
					if want.claims[i] >= 2 {
						contested++
					}
				}
				worldsEqual(t, label, refW, w)
				framesEqual(t, label, refF, f)
			}
			for i := range refW.Aircraft {
				if refW.Aircraft[i].RMatch == airspace.MatchDiscarded && i%13 != 0 {
					withdrawn++
				}
			}
			if discarded == 0 || contested == 0 || withdrawn == 0 {
				t.Fatalf("n=%d: %d discards, %d contested aircraft, %d withdrawals; the test must exercise each", n, discarded, contested, withdrawn)
			}
		}
	}
}

// TestCensusAllocFree: once warm, Prepare and every step allocate
// nothing over Algorithm 1's three passes, at one slot and two.
func TestCensusAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	base, baseF := boxWorld(2000, 9)
	baseF.Reset()
	for _, workers := range []int{1, 2} {
		p := parexec.NewPool(workers)
		var c Census
		w, f := base.Clone(), baseF.Clone()
		run := func() {
			base.CloneInto(w)
			baseF.CloneInto(f)
			for h := InitialBoxHalf; h <= 2; h *= 2 {
				c.Prepare(w, f, h, p, workers)
				for j := range f.Reports {
					c.Count(w, f, j%workers, j)
				}
				for j := range f.Reports {
					c.Claim(f, j)
				}
				for i := range w.Aircraft {
					c.Arbitrate(w, i)
				}
				for j := range f.Reports {
					c.Finalize(w, f, j)
				}
			}
		}
		run()
		if avg := testing.AllocsPerRun(5, run); avg > 0 {
			t.Errorf("slots=%d: %.1f allocs per three passes, want 0", workers, avg)
		}
	}
}
