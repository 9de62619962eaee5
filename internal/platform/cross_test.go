package platform

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
	"repro/internal/tasks"
)

// The AP program implements the sequential reference exactly; the
// snapshot platforms may differ from it only in how mutually
// conflicting pairs maneuver. On traffic with no critical conflicts,
// every platform must agree bitwise with the reference.
func TestAllPlatformsAgreeOnCalmTraffic(t *testing.T) {
	// Spread-out grid, common heading: no conflicts anywhere.
	base := &airspace.World{Aircraft: make([]airspace.Aircraft, 300)}
	for i := range base.Aircraft {
		a := &base.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%20)*12 - 114
		a.Y = float64(i/20)*12 - 90
		a.DX, a.DY = 0.03, 0.01
		a.Alt = 5000 + float64(i%7)*4000
		a.ResetConflict()
	}
	ref := base.Clone()
	tasks.DetectResolve(ref)

	for _, name := range append(Names(), ExtensionNames()...) {
		w := base.Clone()
		MustNew(name, 1).DetectResolve(w)
		for j := range ref.Aircraft {
			if ref.Aircraft[j] != w.Aircraft[j] {
				t.Fatalf("%s: aircraft %d differs from reference on calm traffic", name, j)
			}
		}
	}
}

// On clean, unambiguous radar geometry every platform's Task 1 must
// land every aircraft on its radar fix — identical final positions
// across all eight machines and the reference.
func TestAllPlatformsAgreeOnCleanTrack(t *testing.T) {
	base := &airspace.World{Aircraft: make([]airspace.Aircraft, 256)}
	for i := range base.Aircraft {
		a := &base.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%16)*8 - 60
		a.Y = float64(i/16)*8 - 60
		a.DX, a.DY = 0.02, -0.01
		a.Alt = 10000
		a.ResetConflict()
	}
	frame := radar.Generate(base, 0.2, rng.New(55))

	ref := base.Clone()
	refFrame := frame.Clone()
	tasks.Correlate(ref, refFrame)

	for _, name := range append(Names(), ExtensionNames()...) {
		w := base.Clone()
		f := frame.Clone()
		MustNew(name, 1).Track(w, f)
		for j := range ref.Aircraft {
			if ref.Aircraft[j].X != w.Aircraft[j].X || ref.Aircraft[j].Y != w.Aircraft[j].Y {
				t.Fatalf("%s: aircraft %d position differs from reference on clean radar", name, j)
			}
		}
	}
}
