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
// sweep, which walks its bins, must emit exactly the candidate slice
// the reference sweep's x window emits — same elements, same order —
// for every track, every period, on one source reused across them all.
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
					t.Fatalf("n=%d period=%d track=%d: candidate counts diverge: reference %d, binned %d",
						n, period, i, len(bufP), len(bufI))
				}
				for k := range bufP {
					if bufP[k] != bufI[k] {
						t.Fatalf("n=%d period=%d track=%d: emission diverges at %d: reference %v, binned %v",
							n, period, i, k, bufP, bufI)
					}
				}
			}
		}
	}
}

// TestIncrementalSweepDetectionAgrees drives full detection/resolution
// through a mutation sequence under brute, the reference sweep and
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
			&lane{"reference-sweep", broadphase.NewSweep(), workers, base.Clone()},
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

// TestIncrementalSweepFallbackRebuild scrambles every position each
// period, so nothing of one Prepare's layout survives into the next:
// aircraft change cell and class wholesale, and the production sweep
// must still produce candidates identical to the reference sweep's
// from every Prepare.
func TestIncrementalSweepFallbackRebuild(t *testing.T) {
	r := rng.New(0xfa11)
	w := randomWorld(r.Split(), 250, 0.3)
	plain := broadphase.NewSweep()
	inc := newSweep()
	var bufP, bufI []int32
	for period := 0; period < 6; period++ {
		// Teleport everyone: fresh random positions and speeds, no
		// coherence.
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
			a.Y = r.Range(-airspace.SetupHalf, airspace.SetupHalf) * 0.3
			a.DX, a.DY = a.DY*r.Range(0.2, 1.5), a.DX*r.Sign()
		}
		plain.Prepare(w)
		inc.Prepare(w)
		for i := range w.Aircraft {
			track := &w.Aircraft[i]
			bufP = plain.AppendCandidates(bufP[:0], w, track)
			bufI = inc.AppendCandidates(bufI[:0], w, track)
			if len(bufP) != len(bufI) {
				t.Fatalf("period %d track %d: counts diverge after scramble", period, i)
			}
			for k := range bufP {
				if bufP[k] != bufI[k] {
					t.Fatalf("period %d track %d: emission diverges after scramble", period, i)
				}
			}
		}
	}
}

// TestIncrementalSweepStats pins the Maintainer stubs the sweep keeps
// for callers written against the order repair: under gentle
// per-period motion no Prepare reports an in-place update and the
// update counters stay zero, on the production and the reference
// sweep alike.
func TestIncrementalSweepStats(t *testing.T) {
	r := rng.New(0x57a7)
	w := randomWorld(r.Split(), 400, 0.5)
	for _, s := range []*broadphase.Sweep{newSweep(), broadphase.NewSweep()} {
		for period := 0; period < 4; period++ {
			for i := range w.Aircraft {
				a := &w.Aircraft[i]
				a.X += a.DX
				a.Y += a.DY
				airspace.Wrap(a)
			}
			s.Prepare(w)
			if s.Incremental() || s.LastPrepareIncremental() {
				t.Fatalf("period %d: the sweep reports incremental maintenance", period)
			}
			if st := s.TakeUpdateStats(); st != (broadphase.UpdateStats{}) {
				t.Fatalf("period %d: update counters %+v, want zero", period, st)
			}
		}
	}
}

// TestMaintainerOf pins the unwrap walk: a Maintainer must be found
// through the Counted decorator core installs under telemetry, on both
// sweeps — callers drain it on every invocation — and must be absent
// for sources without one.
func TestMaintainerOf(t *testing.T) {
	for _, s := range []*broadphase.Sweep{newSweep(), broadphase.NewSweep()} {
		if m := broadphase.MaintainerOf(s); m == nil || m.Incremental() {
			t.Fatal("MaintainerOf missed the sweep itself, or it reports incremental maintenance")
		}
		if m := broadphase.MaintainerOf(broadphase.NewCounted(s)); m == nil {
			t.Fatal("MaintainerOf failed to unwrap Counted")
		}
	}
	if m := broadphase.MaintainerOf(broadphase.NewCounted(broadphase.NewBrute())); m != nil {
		t.Fatal("brute has no Maintainer; MaintainerOf must return nil")
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
