package platform_test

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/conformance"
	"repro/internal/geom"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// snapshotReference is the snapshot discipline of Algorithm 2 written
// plainly over the records, all pairs: every track detects on its
// committed course and probes headings rotated by +5, -5, +10, ...
// -30 degrees against a copy of the committed courses, marking only
// its own record, and the first conflict-free headings are committed
// after every track has run. It returns how many tracks conflicted and
// how many resolved.
func snapshotReference(w *airspace.World) (conflicts, resolved int) {
	snap := w.Clone()
	earliest := func(track *airspace.Aircraft, vx, vy float64) (tmin float64, with int32) {
		tmin, with = airspace.SafeTime, airspace.NoConflict
		for q := range snap.Aircraft {
			trial := &snap.Aircraft[q]
			if trial.ID == track.ID || !tasks.AltOverlap(track, trial) {
				continue
			}
			if lo, _, ok := tasks.PairConflict(track.X, track.Y, vx, vy, trial); ok && lo < tmin {
				tmin, with = lo, trial.ID
			}
		}
		return tmin, with
	}
	props := make([]geom.Vec2, w.N())
	proposed := make([]bool, w.N())
	for i := range w.Aircraft {
		a, c := &w.Aircraft[i], &snap.Aircraft[i]
		a.ResetConflict()
		tmin, with := earliest(c, c.DX, c.DY)
		if !(tmin < airspace.CriticalTime) {
			continue
		}
		conflicts++
		a.Col, a.ColWith, a.TimeTill = true, with, tmin
		base := geom.Vec2{X: c.DX, Y: c.DY}
	probe:
		for mag := tasks.ResolutionStepDeg; mag <= tasks.MaxResolutionDeg; mag += tasks.ResolutionStepDeg {
			for _, deg := range [2]float64{mag, -mag} {
				v := base.Rotate(deg)
				a.BatX, a.BatY = v.X, v.Y
				tmin, with = earliest(c, v.X, v.Y)
				if !(tmin < airspace.CriticalTime) {
					props[i], proposed[i] = v, true
					resolved++
					break probe
				}
				a.ColWith = with
				if tmin < a.TimeTill {
					a.TimeTill = tmin
				}
			}
		}
	}
	for i := range w.Aircraft {
		if proposed[i] {
			a := &w.Aircraft[i]
			a.DX, a.DY = props[i].X, props[i].Y
			a.ResetConflict()
		}
	}
	return conflicts, resolved
}

// The snapshot platforms — the CUDA devices, the multicore Xeon and the
// wide-vector machines — all run Tasks 2-3 through the shared snapshot
// step (tasks.Snapshot): scan a frozen copy of committed courses, write
// only your own aircraft, commit at a barrier. The scalar reference
// above is the oracle they are held to: every platform of
// conformance.SnapshotPlatforms, with no pair source and with the
// production sweep, must leave the world bitwise-identical to it at
// N=2600, past ten of the sweep's 256-track table segments.
func TestSnapshotPlatformsAgreeOnDetectResolve(t *testing.T) {
	base := airspace.NewWorld(2600, rng.New(101))
	ref := base.Clone()
	conflicts, resolved := snapshotReference(ref)
	if conflicts == 0 || resolved == 0 || resolved == conflicts {
		t.Fatalf("the reference saw %d conflicts and resolved %d; the test must exercise resolved and unresolved tracks", conflicts, resolved)
	}
	for _, name := range conformance.SnapshotPlatforms() {
		for _, src := range []string{"", broadphase.SweepName} {
			p := platform.MustNew(name, 1)
			if src != "" {
				p.(platform.PairSourced).SetPairSource(broadphase.MustNew(src))
			}
			w := base.Clone()
			p.DetectResolve(w)
			for j := range ref.Aircraft {
				if ref.Aircraft[j] != w.Aircraft[j] {
					t.Fatalf("%s src=%q: aircraft %d differs from the reference:\n%+v\n%+v",
						name, src, j, ref.Aircraft[j], w.Aircraft[j])
				}
			}
		}
	}
}
