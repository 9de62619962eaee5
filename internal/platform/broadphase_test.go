package platform

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/rng"
)

// TestPairSourceExactOnEveryPlatform is the cross-platform half of the
// broadphase exactness property: for every registered machine, running
// Tasks 2-3 with each pruned pair source must leave the world in
// exactly the state the platform's own all-pairs scan produces. The
// modeled time may differ (that is the point); the traffic outcome may
// not.
func TestPairSourceExactOnEveryPlatform(t *testing.T) {
	r := rng.New(0xbf)
	names := append(Names(), ExtensionNames()...)
	for trial := 0; trial < 3; trial++ {
		base := airspace.NewWorld(200+trial*150, r.Split())
		// Compress into a denser block so conflicts and resolutions
		// actually occur.
		for i := range base.Aircraft {
			base.Aircraft[i].X *= 0.2
			base.Aircraft[i].Y *= 0.2
			base.Aircraft[i].Alt = 20000 + float64(i%3)*800
		}
		for _, name := range names {
			ref := base.Clone()
			MustNew(name, 5).DetectResolve(ref)

			for _, srcName := range broadphase.Names() {
				p := MustNew(name, 5)
				ps, ok := p.(PairSourced)
				if !ok {
					t.Fatalf("%s does not implement PairSourced", name)
				}
				ps.SetPairSource(broadphase.MustNew(srcName))
				w := base.Clone()
				p.DetectResolve(w)
				for i := range w.Aircraft {
					a, b := &ref.Aircraft[i], &w.Aircraft[i]
					if a.Col != b.Col || a.ColWith != b.ColWith || a.TimeTill != b.TimeTill ||
						a.DX != b.DX || a.DY != b.DY {
						t.Fatalf("%s with %s: aircraft %d diverges from all-pairs run: ref Col=%v ColWith=%d TimeTill=%v DX=%v DY=%v, got Col=%v ColWith=%d TimeTill=%v DX=%v DY=%v",
							name, srcName, i,
							a.Col, a.ColWith, a.TimeTill, a.DX, a.DY,
							b.Col, b.ColWith, b.TimeTill, b.DX, b.DY)
					}
				}
			}
		}
	}
}

// TestPairSourcePrunesModeledTime: at a scale where pruning matters,
// the pruned Tasks 2-3 invocation must be modeled (or measured, for the
// MIMD machine's op tally) as cheaper than the all-pairs one on every
// platform except the associative machines, whose wide operations are
// constant-time over all PEs regardless of the responder mask.
func TestPairSourcePrunesModeledTime(t *testing.T) {
	base := airspace.NewWorld(4000, rng.New(21))
	for _, name := range []string{TitanXPascal, Xeon16, XeonPhi, AVX2} {
		ref := base.Clone()
		dRef := MustNew(name, 5).DetectResolve(ref)

		p := MustNew(name, 5)
		p.(PairSourced).SetPairSource(broadphase.MustNew(broadphase.SweepName))
		w := base.Clone()
		dPruned := p.DetectResolve(w)
		if dPruned >= dRef {
			t.Errorf("%s: pruned DetectResolve modeled at %v, all-pairs %v — no win", name, dPruned, dRef)
		}
	}
}
