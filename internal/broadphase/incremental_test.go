package broadphase_test

import (
	"math"
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// advancePeriod applies one period's worth of randomized disruption to
// the world: per-period motion with torus wraparound, resolution-style
// velocity rotations on a few aircraft, and (periodically) degenerate
// exactly-stacked positions that force equal sort keys.
func advancePeriod(r *rng.Rand, w *airspace.World, period int) {
	for i := range w.Aircraft {
		a := &w.Aircraft[i]
		a.X += a.DX
		a.Y += a.DY
		if !airspace.InField(a.X, a.Y) {
			airspace.Wrap(a)
		}
	}
	n := w.N()
	if n == 0 {
		return
	}
	for k := 0; k < 1+n/40; k++ {
		a := &w.Aircraft[r.IntN(n)]
		deg := (5 + 5*float64(r.IntN(6))) * r.Sign()
		sin, cos := math.Sincos(deg * math.Pi / 180)
		a.DX, a.DY = a.DX*cos-a.DY*sin, a.DX*sin+a.DY*cos
	}
	if period%7 == 3 && n >= 2 {
		i, j := r.IntN(n), r.IntN(n)
		w.Aircraft[i].X, w.Aircraft[i].Y = w.Aircraft[j].X, w.Aircraft[j].Y
		w.Aircraft[i].Alt = w.Aircraft[j].Alt
	}
}

// newSweep returns the production sweep New(SweepName) builds.
func newSweep() *broadphase.Sweep {
	return broadphase.MustNew(broadphase.SweepName).(*broadphase.Sweep)
}

// TestIncrementalSweepCandidatesIdentical is the bit-identity property
// at the candidate level: through long randomized mutation sequences
// (motion, rotations, wraparounds, stacked positions) the production
// sweep, which repairs its order in place, must emit exactly the
// candidate slice the rebuild sweep emits — same elements, same order —
// for every track, every period.
func TestIncrementalSweepCandidatesIdentical(t *testing.T) {
	r := rng.New(0x1c0e)
	for _, n := range []int{0, 1, 2, 17, 120, 300} {
		w := randomWorld(r.Split(), n, 0.3)
		plain := broadphase.NewSweep()
		inc := newSweep()
		var bufP, bufI []int32
		for period := 0; period < 48; period++ {
			advancePeriod(r, w, period)
			plain.Prepare(w)
			inc.Prepare(w)
			for i := range w.Aircraft {
				track := &w.Aircraft[i]
				bufP = plain.AppendCandidates(bufP[:0], w, track)
				bufI = inc.AppendCandidates(bufI[:0], w, track)
				if len(bufP) != len(bufI) {
					t.Fatalf("n=%d period=%d track=%d: candidate counts diverge: plain %d, incremental %d",
						n, period, i, len(bufP), len(bufI))
				}
				for k := range bufP {
					if bufP[k] != bufI[k] {
						t.Fatalf("n=%d period=%d track=%d: emission diverges at %d: plain %v, incremental %v",
							n, period, i, k, bufP, bufI)
					}
				}
			}
		}
		if n > 1 {
			st := inc.TakeUpdateStats()
			if st.Updates == 0 {
				t.Errorf("n=%d: incremental sweep never repaired in place (stats %+v)", n, st)
			}
		}
	}
}

// TestIncrementalSweepDetectionAgrees drives full detection/resolution
// through a mutation sequence under brute, grid, the rebuild sweep and
// the production sweep at workers {1, 3, 8}: every period, every
// source, every worker count must produce the bit-identical world the
// all-pairs serial reference produces.
func TestIncrementalSweepDetectionAgrees(t *testing.T) {
	pools := map[int]*parexec.Pool{1: parexec.NewPool(1), 3: parexec.NewPool(3), 8: parexec.NewPool(8)}
	type lane struct {
		label   string
		src     broadphase.PairSource
		workers int
		w       *airspace.World
	}
	r := rng.New(0xdead)
	base := randomWorld(r.Split(), 180, 0.25)

	ref := base.Clone()
	var lanes []*lane
	for _, workers := range []int{1, 3, 8} {
		lanes = append(lanes,
			&lane{"brute", broadphase.NewBrute(), workers, base.Clone()},
			&lane{"grid", broadphase.NewGrid(), workers, base.Clone()},
			&lane{"rebuild-sweep", broadphase.NewSweep(), workers, base.Clone()},
			&lane{"sweep", newSweep(), workers, base.Clone()},
		)
	}

	for period := 0; period < 24; period++ {
		// Apply the identical mutation to every lane's world: replaying
		// the generator from the same seed keeps the lanes in lockstep
		// without sharing mutable state.
		advancePeriod(rngReplay(0xfeed, period), ref, period)
		refSt := tasks.DetectResolveExec(ref, nil, pools[1])
		for _, l := range lanes {
			advancePeriod(rngReplay(0xfeed, period), l.w, period)
			st := tasks.DetectResolveExec(l.w, l.src, pools[l.workers])
			label := l.label
			checkStatsEqual(t, label, refSt, st)
			checkWorldsEqual(t, label, ref, l.w)
		}
	}
}

// rngReplay returns the generator advancePeriod would have received on
// the given period when splitting one master stream per period from
// seed: deterministic replay without sharing a mutable Rand across
// lanes.
func rngReplay(seed uint64, period int) *rng.Rand {
	m := rng.New(seed)
	var r *rng.Rand
	for p := 0; p <= period; p++ {
		r = m.Split()
	}
	return r
}

// TestIncrementalSweepFallbackRebuild forces the repair budget to blow:
// scrambling every position each period makes the previous order
// worthless, the insertion pass aborts, and Prepare must fall back to
// the full sort — still producing candidates identical to the rebuild
// sweep, and counting the fallback.
func TestIncrementalSweepFallbackRebuild(t *testing.T) {
	r := rng.New(0xfa11)
	w := randomWorld(r.Split(), 250, 0.3)
	plain := broadphase.NewSweep()
	inc := newSweep()
	var bufP, bufI []int32
	for period := 0; period < 6; period++ {
		// Teleport everyone: fresh random positions, no coherence.
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
			a.Y = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
		}
		plain.Prepare(w)
		inc.Prepare(w)
		if period > 0 && inc.LastPrepareIncremental() {
			t.Errorf("period %d: scrambled world repaired within budget; expected fallback", period)
		}
		for i := range w.Aircraft {
			track := &w.Aircraft[i]
			bufP = plain.AppendCandidates(bufP[:0], w, track)
			bufI = inc.AppendCandidates(bufI[:0], w, track)
			if len(bufP) != len(bufI) {
				t.Fatalf("period %d track %d: counts diverge after fallback", period, i)
			}
			for k := range bufP {
				if bufP[k] != bufI[k] {
					t.Fatalf("period %d track %d: emission diverges after fallback", period, i)
				}
			}
		}
	}
	st := inc.TakeUpdateStats()
	if st.Rebuilds < 5 {
		t.Errorf("expected >=5 fallback rebuilds on scrambled worlds, got stats %+v", st)
	}
	if got := inc.TakeUpdateStats(); got != (broadphase.UpdateStats{}) {
		t.Errorf("TakeUpdateStats did not drain: %+v", got)
	}
}

// TestIncrementalSweepStats pins the steady-state telemetry shape: under
// gentle per-period motion the production sweep repairs in place every
// period after the first, and the shift work stays far below the
// fallback budget.
func TestIncrementalSweepStats(t *testing.T) {
	r := rng.New(0x57a7)
	w := randomWorld(r.Split(), 400, 0.5)
	inc := newSweep()
	inc.Prepare(w)
	first := inc.TakeUpdateStats()
	if first.Rebuilds != 1 || first.Updates != 0 {
		t.Fatalf("initial Prepare: want exactly one rebuild, got %+v", first)
	}
	const periods = 32
	for period := 0; period < periods; period++ {
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X += a.DX
			a.Y += a.DY
			if !airspace.InField(a.X, a.Y) {
				airspace.Wrap(a)
			}
		}
		inc.Prepare(w)
		if !inc.LastPrepareIncremental() {
			t.Fatalf("period %d: gentle motion fell back to full sort", period)
		}
	}
	st := inc.TakeUpdateStats()
	if st.Updates != periods || st.Rebuilds != 0 {
		t.Fatalf("steady state: want %d updates and no rebuilds, got %+v", periods, st)
	}
	if st.Resorted > st.Moved {
		t.Errorf("stats inconsistent: resorted %d > moved %d", st.Resorted, st.Moved)
	}
}

// TestMaintainerOf pins the unwrap walk: the Maintainer must be found
// through the Counted decorator core installs under telemetry, and must
// be absent for sources without an incremental mode.
func TestMaintainerOf(t *testing.T) {
	inc := newSweep()
	if m := broadphase.MaintainerOf(inc); m == nil || !m.Incremental() {
		t.Fatal("MaintainerOf missed the production sweep itself")
	}
	wrapped := broadphase.NewCounted(inc)
	if m := broadphase.MaintainerOf(wrapped); m == nil || !m.Incremental() {
		t.Fatal("MaintainerOf failed to unwrap Counted")
	}
	if m := broadphase.MaintainerOf(broadphase.NewSweep()); m == nil || m.Incremental() {
		t.Fatal("rebuild sweep must report Incremental()==false")
	}
	if m := broadphase.MaintainerOf(broadphase.NewCounted(broadphase.NewGrid())); m != nil {
		t.Fatal("grid has no incremental mode; MaintainerOf must return nil")
	}
	if m := broadphase.MaintainerOf(nil); m != nil {
		t.Fatal("MaintainerOf(nil) must be nil")
	}
}

// TestNewWithIncremental pins the deprecated options constructor: it is
// New under every option combination, so a caller still passing
// options gets the one sweep behaviour, and other sources are
// unaffected.
func TestNewWithIncremental(t *testing.T) {
	for _, name := range broadphase.Names() {
		want := broadphase.MustNew(name)
		for _, opts := range []broadphase.Options{{}, {Incremental: true}, {Sharded: true}, {Incremental: true, Sharded: true}} {
			src, err := broadphase.NewWith(name, opts)
			if err != nil {
				t.Fatalf("NewWith(%q, %+v): %v", name, opts, err)
			}
			if src.Name() != want.Name() {
				t.Fatalf("NewWith(%q, %+v) built %q", name, opts, src.Name())
			}
			gotM, wantM := broadphase.MaintainerOf(src), broadphase.MaintainerOf(want)
			if (gotM == nil) != (wantM == nil) || gotM != nil && gotM.Incremental() != wantM.Incremental() {
				t.Fatalf("NewWith(%q, %+v) maintenance differs from New", name, opts)
			}
			if (broadphase.TableOf(src) == nil) != (broadphase.TableOf(want) == nil) {
				t.Fatalf("NewWith(%q, %+v) table mode differs from New", name, opts)
			}
		}
	}
	if _, err := broadphase.NewWith("nope", broadphase.Options{Incremental: true}); err == nil {
		t.Fatal("NewWith with unknown name must error")
	}
}
