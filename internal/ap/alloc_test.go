//go:build !race

package ap

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
)

// TestProgramsAllocFree pins the allocation-free wide ops: once warm,
// TrackProgram and DetectResolveProgram on STARAN allocate at most a
// small constant per call, at one worker and at two, never one per
// wide op. N=1100 spans two PE chunks, so the two-worker machine
// dispatches every wide op in parallel. Race instrumentation
// allocates, so this file builds without -race only.
func TestProgramsAllocFree(t *testing.T) {
	base := airspace.NewWorld(1100, rng.New(11))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(12))
	for _, workers := range []int{1, 2} {
		m := NewMachine(STARAN, base.N())
		m.SetWorkers(workers)
		w, f := base.Clone(), frame.Clone()
		TrackProgram(m, w, f)
		if avg := testing.AllocsPerRun(5, func() { TrackProgram(m, w, f) }); avg > 1 {
			t.Errorf("workers=%d: %.1f allocs per TrackProgram, want <= 1", workers, avg)
		}
		if st := DetectResolveProgram(m, base.Clone()); st.Conflicts == 0 {
			t.Fatalf("N=%d world produced no conflicts; the resolution path is not exercised", base.N())
		}
		if avg := testing.AllocsPerRun(5, func() {
			base.CloneInto(w)
			DetectResolveProgram(m, w)
		}); avg > 1 {
			t.Errorf("workers=%d: %.1f allocs per DetectResolveProgram, want <= 1", workers, avg)
		}
	}
}
