package platform

import (
	"testing"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/rng"
)

// TestWorkersInvariance pins the host-parallelism contract for every
// registered machine: pinning the worker pool to any size changes
// wall-clock speed only — the produced world, radar frame, and modeled
// task time are bit-identical to the workers=1 run.
//
// The MIMD machine's Track arbitration is interleaving-dependent by
// design on contended traffic (the paper's point), so its Track runs
// on clean, unambiguous geometry where arbitration never fires; its
// jitter streams line up because each run constructs the platform from
// the same seed and issues the same task sequence. Every other machine
// is compared on fully random traffic.
func TestWorkersInvariance(t *testing.T) {
	randomW := airspace.NewWorld(900, rng.New(201))
	randomF := radar.Generate(randomW, radar.DefaultNoise, rng.New(202))

	clean := &airspace.World{Aircraft: make([]airspace.Aircraft, 256)}
	for i := range clean.Aircraft {
		a := &clean.Aircraft[i]
		a.ID = int32(i)
		a.X = float64(i%16)*8 - 60
		a.Y = float64(i/16)*8 - 60
		a.DX, a.DY = 0.02, -0.01
		a.Alt = 10000
		a.ResetConflict()
	}
	cleanF := radar.Generate(clean, 0.2, rng.New(203))

	type outcome struct {
		trackW, detW *airspace.World
		trackF       *radar.Frame
		trackD, detD time.Duration
	}

	for _, name := range append(Names(), ExtensionNames()...) {
		trackW, trackF := randomW, randomF
		if name == Xeon16 {
			trackW, trackF = clean, cleanF
		}
		// "rebuild-sweep" is broadphase.NewSweep's rebuild sweep (not a
		// registry name), which the executors query per track; "sweep"
		// serves them from its candidate table. Each run constructs its
		// own source, so the sweep lane exercises the first-Prepare build.
		for _, srcName := range []string{"", broadphase.SweepName, "rebuild-sweep"} {
			run := func(workers int) outcome {
				p := MustNew(name, 77)
				p.(Workered).SetWorkers(workers)
				switch srcName {
				case "":
				case "rebuild-sweep":
					p.(PairSourced).SetPairSource(broadphase.NewSweep())
				default:
					p.(PairSourced).SetPairSource(broadphase.MustNew(srcName))
				}
				var o outcome
				o.trackW, o.trackF = trackW.Clone(), trackF.Clone()
				o.trackD = p.Track(o.trackW, o.trackF)
				o.detW = randomW.Clone()
				o.detD = p.DetectResolve(o.detW)
				return o
			}
			ref := run(1)
			for _, workers := range []int{3, 8} {
				got := run(workers)
				tag := name + " src=" + srcName
				if got.trackD != ref.trackD || got.detD != ref.detD {
					t.Fatalf("%s workers=%d: modeled time diverged: Track %v vs %v, DetectResolve %v vs %v",
						tag, workers, got.trackD, ref.trackD, got.detD, ref.detD)
				}
				for j := range ref.trackW.Aircraft {
					if ref.trackW.Aircraft[j] != got.trackW.Aircraft[j] {
						t.Fatalf("%s workers=%d: Track aircraft %d diverged:\nworkers=1: %+v\nworkers=%d: %+v",
							tag, workers, j, ref.trackW.Aircraft[j], workers, got.trackW.Aircraft[j])
					}
				}
				for j := range ref.trackF.Reports {
					if ref.trackF.Reports[j] != got.trackF.Reports[j] {
						t.Fatalf("%s workers=%d: Track report %d diverged", tag, workers, j)
					}
				}
				for j := range ref.detW.Aircraft {
					if ref.detW.Aircraft[j] != got.detW.Aircraft[j] {
						t.Fatalf("%s workers=%d: DetectResolve aircraft %d diverged:\nworkers=1: %+v\nworkers=%d: %+v",
							tag, workers, j, ref.detW.Aircraft[j], workers, got.detW.Aircraft[j])
					}
				}
			}
		}
	}
}
