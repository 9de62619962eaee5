//go:build !race

// Allocation-count assertions live behind the !race tag: the race
// detector's instrumentation allocates, which would fail them for the
// wrong reason.

package cuda

import "testing"

// TestLaunchAllocsPerLaunch pins Launch's steady state: the simulated
// threads of a launch are reset in place in their worker's accumulator,
// so a 4000-thread launch allocates at most the block loop's closure
// and its dispatch, not one Thread per simulated thread.
func TestLaunchAllocsPerLaunch(t *testing.T) {
	for _, workers := range []int{1, 3} {
		d := NewDevice(TitanXPascal)
		d.SetWorkers(workers)
		kernel := func(th *Thread) { th.Ops(th.Lane + 1) }
		d.Launch("warm", 4000, kernel)
		allocs := testing.AllocsPerRun(20, func() {
			d.Launch("k", 4000, kernel)
		})
		if allocs > 2 {
			t.Errorf("workers=%d: a 4000-thread launch allocates %.0f times, want at most 2", workers, allocs)
		}
	}
}
