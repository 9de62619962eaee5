package core

import (
	"bytes"
	"testing"

	"repro/internal/broadphase"
	"repro/internal/platform"
	"repro/internal/replay"
)

// TestCoherentBitIdentical pins the sweep's contract on every
// registered platform: a run on the production sweep (order repaired
// across periods, candidate table, batched kernel) produces
// byte-identical replay output — same worlds, same per-period modeled
// task times, same deadline record — as the same run on the rebuild
// sweep oracle installed straight on the platform. Three major cycles
// give the production sweep two Prepare calls that repair a previous
// order (periods 31 and 47) on top of the initial build (period 15).
// The inputs are the paper's uniform setup plus the other conformance
// scenario families, and one dense cluster whose ~2170 candidates per
// track pass the candidate table's size limit, so every executor's
// per-track query path on the production sweep is compared too (one
// cycle; TestBatchedKernelMatchesScalar repairs under the same limit).
// Its altitudes spread over 28000 ft, so the altitude filter rejects
// most candidate pairs and the run stays cheap.
func TestCoherentBitIdentical(t *testing.T) {
	inputs := []struct {
		scenario  string
		n, cycles int
	}{
		{"", 500, 3},
		{"circle:radius=12,speed=500", 500, 3},
		{"burst:interval=30", 500, 3},
		{"streams", 500, 3},
		{"dense", 500, 3},
		{"layers:gap=800", 500, 3},
		{"dense:clusters=1,alt=25000,altspread=14000", 2200, 1},
	}
	record := func(name, scenario string, n, cycles int, rebuild bool) []byte {
		p := platform.MustNew(name, 2018)
		p.(platform.Workered).SetWorkers(1)
		sys := NewSystem(p, Config{N: n, Seed: 2018, Scenario: scenario, PairSource: "sweep"})
		if rebuild {
			p.(platform.PairSourced).SetPairSource(broadphase.NewSweep())
		}
		var buf bytes.Buffer
		rec := replay.NewRecorder(&buf)
		sys.SetRecorder(rec)
		sys.RunMajorCycles(cycles)
		if err := rec.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, name := range append(platform.Names(), platform.ExtensionNames()...) {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, in := range inputs {
				rebuild := record(name, in.scenario, in.n, in.cycles, true)
				production := record(name, in.scenario, in.n, in.cycles, false)
				if !bytes.Equal(rebuild, production) {
					t.Errorf("%s %q n=%d: production sweep run diverged from rebuild sweep run (replay bytes differ, %d vs %d bytes)",
						name, in.scenario, in.n, len(rebuild), len(production))
				}
			}
		})
	}
}

// TestCoherentMaintainerWired verifies NewSystem installs the
// production sweep for "sweep": the maintainer and the table source are
// discoverable, and a run that crosses two Tasks 2-3 invocations
// records at least one in-place update.
func TestCoherentMaintainerWired(t *testing.T) {
	p := platform.MustNew(platform.Xeon16, 7)
	p.(platform.Workered).SetWorkers(1)
	sys := NewSystem(p, Config{N: 300, Seed: 7, PairSource: "sweep"})
	if sys.maintainer == nil || sys.tableSrc == nil {
		t.Fatal("sweep config produced no broadphase.Maintainer or TableSource")
	}
	sys.RunMajorCycles(2)
	u := sys.maintainer.TakeUpdateStats()
	if u.Rebuilds < 1 {
		t.Fatalf("first Prepare should rebuild, stats %+v", u)
	}
	if u.Updates < 1 {
		t.Fatalf("second Tasks 2-3 invocation should repair in place, stats %+v", u)
	}
	if got := sys.maintainer.TakeUpdateStats(); got != (broadphase.UpdateStats{}) {
		t.Fatalf("TakeUpdateStats did not drain: %+v", got)
	}
}

// TestCoherentConfigWithoutSource: the deprecated mode fields are
// ignored, so setting them without a pair source installs nothing and
// the run is the paper's all-pairs run.
func TestCoherentConfigWithoutSource(t *testing.T) {
	p := platform.MustNew(platform.TitanXPascal, 1)
	sys := NewSystem(p, Config{N: 50, Seed: 1, Incremental: true, ParShard: true})
	if sys.maintainer != nil || sys.tableSrc != nil || sys.pairSrc != nil {
		t.Fatal("pair source installed without a PairSource")
	}
	sys.RunMajorCycles(1)
}
