package broadphase

import (
	"sort"
	"testing"

	"repro/internal/rng"
)

// TestRepairOrderMatchesSort is repairOrder's property against
// sort.Sort over adversarial near-sorted permutations: long backward
// and forward jumps across many 256-slot table segments, block swaps,
// and keys drawn from a handful of values so runs of equal keys are
// long. Insertion repair shifts once per inversion, so it must succeed
// exactly when the inversions fit the budget, report them as its moved
// count, and leave a permutation whose key sequence is sort.Sort's; an
// aborted repair must still leave a valid permutation for the full
// sort to consume.
func TestRepairOrderMatchesSort(t *testing.T) {
	r := rng.New(0x5eb1)
	for _, n := range []int{2, 3, 257, 1100, 2600} {
		for trial := 0; trial < 40; trial++ {
			s := NewSweep()
			s.lox = make([]float64, n)
			distinct := 1 + r.IntN(n)
			if trial%3 == 0 {
				distinct = 1 + r.IntN(4)
			}
			for i := range s.lox {
				s.lox[i] = float64(r.IntN(distinct))
			}
			s.order = make([]int32, n)
			for i := range s.order {
				s.order[i] = int32(i)
			}
			sort.Sort(&sweepOrder{order: s.order, lox: s.lox})

			jumps := 1 + trial%5
			for k := 0; k < jumps; k++ {
				a, b := r.IntN(n), r.IntN(n)
				if a > b {
					a, b = b, a
				}
				switch k % 3 {
				case 0: // backward jump: order[b] moves to slot a
					v := s.order[b]
					copy(s.order[a+1:b+1], s.order[a:b])
					s.order[a] = v
				case 1: // forward jump: order[a] moves to slot b
					v := s.order[a]
					copy(s.order[a:b], s.order[a+1:b+1])
					s.order[b] = v
				default: // swap two short blocks
					l := min((b-a)/2, 1+r.IntN(32))
					for i := 0; i < l; i++ {
						s.order[a+i], s.order[b-l+1+i] = s.order[b-l+1+i], s.order[a+i]
					}
				}
			}
			if trial == 39 {
				// Full reversal: quadratic displacement, past the budget
				// for every n large enough to have one worth keeping.
				for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
					s.order[i], s.order[j] = s.order[j], s.order[i]
				}
			}

			var inversions int64
			for i := range s.order {
				for j := i + 1; j < n; j++ {
					if s.lox[s.order[i]] > s.lox[s.order[j]] {
						inversions++
					}
				}
			}
			want := append([]int32(nil), s.order...)
			sort.Sort(&sweepOrder{order: want, lox: s.lox})
			ok := s.repairOrder()
			if ok != (inversions <= repairBudget(n)) {
				t.Fatalf("n=%d trial %d: repair ok=%v with %d inversions against a budget of %d",
					n, trial, ok, inversions, repairBudget(n))
			}

			seen := make([]bool, n)
			for _, id := range s.order {
				if id < 0 || int(id) >= n || seen[id] {
					t.Fatalf("n=%d trial %d: order is not a permutation after repair (ok=%v)", n, trial, ok)
				}
				seen[id] = true
			}
			if trial == 39 && n >= 257 && ok {
				t.Fatalf("n=%d: a full reversal stayed within the repair budget", n)
			}
			if !ok {
				continue
			}
			if s.statMoved != inversions {
				t.Fatalf("n=%d trial %d: repair moved %d, want %d inversions", n, trial, s.statMoved, inversions)
			}
			for k := range want {
				if s.lox[s.order[k]] != s.lox[want[k]] {
					t.Fatalf("n=%d trial %d: slot %d holds key %v, sort.Sort %v",
						n, trial, k, s.lox[s.order[k]], s.lox[want[k]])
				}
			}
		}
	}
}
