//go:build !race

// Allocation-count assertions live behind the !race tag: the race
// detector's instrumentation allocates, which would fail them for the
// wrong reason.

package platform

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// TestDetectResolveAllocsBounded pins the executors' Tasks 2-3 steady
// state: once a machine's scratch has grown, a DetectResolve call
// allocates at most a small constant — its per-phase dispatch — however
// many aircraft it scans and however many conflicts it resolves. One
// platform per executor family that runs the shared pair scan (cuda,
// mimd, vector), and both AP profiles, with no pair source and with
// the sweep. The limit holds at any worker count, so the default pool
// runs.
func TestDetectResolveAllocsBounded(t *testing.T) {
	const limit = 24
	base := airspace.NewWorld(2000, rng.New(2018))
	if st := tasks.DetectResolve(base.Clone()); st.Conflicts == 0 {
		t.Fatal("the N=2000 world has no conflicts; the test would not exercise resolution")
	}
	for _, name := range []string{TitanXPascal, Xeon16, XeonPhi, STARAN, ClearSpeed} {
		for _, srcName := range []string{"", broadphase.SweepName} {
			p := MustNew(name, 7)
			if srcName != "" {
				p.(PairSourced).SetPairSource(broadphase.MustNew(srcName))
			}
			w := base.Clone()
			p.DetectResolve(w) // grow the machine's scratch
			allocs := testing.AllocsPerRun(5, func() {
				base.CloneInto(w)
				p.DetectResolve(w)
			})
			if allocs > limit {
				t.Errorf("%s src=%q: %.0f allocs per DetectResolve, want at most %d", name, srcName, allocs, limit)
			}
		}
	}
}

// TestTrackAllocsBounded pins the executors' Task 1 steady state: once
// a machine's scratch (its box-hit rows included) has grown, a Track
// call allocates at most a small constant — its per-phase and
// per-launch dispatch — however many radars it correlates. One
// platform per executor family and both AP profiles, at the default
// pool.
func TestTrackAllocsBounded(t *testing.T) {
	const limit = 48
	base := airspace.NewWorld(2000, rng.New(2018))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(2019))
	for _, name := range []string{TitanXPascal, Xeon16, XeonPhi, STARAN, ClearSpeed} {
		p := MustNew(name, 7)
		w, f := base.Clone(), frame.Clone()
		p.Track(w, f) // grow the machine's scratch
		allocs := testing.AllocsPerRun(5, func() {
			base.CloneInto(w)
			frame.CloneInto(f)
			p.Track(w, f)
		})
		if allocs > limit {
			t.Errorf("%s: %.0f allocs per Track, want at most %d", name, allocs, limit)
		}
	}
}
