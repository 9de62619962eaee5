package conformance

import (
	"flag"
	"testing"
)

// -conformance.full widens the matrix to every family, every pair
// source and the full worker set at a larger aircraft count, and adds
// sweep lanes at scaleN — the `make conformance` / CI configuration.
// The default trimmed matrix keeps `go test ./...` fast while still
// covering every platform and every invariance relation.
var full = flag.Bool("conformance.full", false,
	"run the full conformance matrix (all families x pair sources x workers {1,3,8})")

const seed = 2018

// scaleN is the aircraft count of the full matrix's extra sweep lanes:
// enough that the sweep's candidate table spans five segments and its
// bins hold tens of envelopes per cell, the regime the n=400 lanes
// never reach.
const scaleN = 1100

// conformanceFamilies are the workloads the oracle runs. The
// parameters are tuned so every family produces live conflicts and
// resolutions within the two measured major cycles (circle converging
// from 12 nm is critical immediately; burst waves arrive from period
// 30; layers at an 800 ft gap keeps adjacent bands inside the
// vertical filter), so the differential comparison covers detection
// AND resolution, not just tracking.
func conformanceFamilies(fullRun bool) []string {
	fams := []string{
		"uniform",
		"circle:radius=12,speed=500",
		"burst:interval=30",
	}
	if fullRun {
		fams = append(fams,
			"streams",
			"dense",
			"layers:gap=800",
		)
	}
	return fams
}

func TestConformance(t *testing.T) {
	n, periods := 200, MajorCycles(2)
	workers := []int{1, 8}
	sources := []string{"sweep"}
	if *full {
		n = 400
		workers = []int{1, 3, 8}
		sources = []string{"brute", "sweep"}
	}

	runLane := func(fam, plat string, lane Lane) Fingerprint {
		t.Helper()
		return Run(RunSpec{Platform: plat, Scenario: fam, N: n, Periods: periods, Seed: seed, Lane: lane})
	}
	runScale := func(fam, plat string, lane Lane) Fingerprint {
		t.Helper()
		return Run(RunSpec{Platform: plat, Scenario: fam, N: scaleN, Periods: periods, Seed: seed, Lane: lane})
	}

	for _, fam := range conformanceFamilies(*full) {
		t.Run(fam, func(t *testing.T) {
			// Reference world trajectory per platform (all-pairs, one
			// worker), for the cross-platform group comparison.
			refWorld := map[string]Fingerprint{}

			for _, plat := range AllPlatforms() {
				ref := runLane(fam, plat, Lane{Workers: 1})
				refWorld[plat] = ref

				// Worker counts must change nothing at all.
				for _, w := range workers[1:] {
					lane := Lane{Workers: w}
					if fp := runLane(fam, plat, lane); fp.Full != ref.Full {
						t.Errorf("%s %s: full fingerprint diverged from workers=1\n  ref  %s misses=%d skips=%d\n  got  %s misses=%d skips=%d",
							plat, lane, ref.Full[:16], ref.Misses, ref.Skips, fp.Full[:16], fp.Misses, fp.Skips)
					}
				}

				// Pair sources must reproduce the identical world
				// trajectory (conflicts, resolutions, headings); modeled
				// times may differ, so Full is compared only across
				// workers within one source.
				for _, src := range sources {
					var srcRef Fingerprint
					for i, w := range workers {
						lane := Lane{PairSource: src, Workers: w}
						fp := runLane(fam, plat, lane)
						if fp.World != ref.World {
							t.Errorf("%s %s: world trajectory diverged from the all-pairs kernels\n  ref  %s conflicts=%d\n  got  %s conflicts=%d",
								plat, lane, ref.World[:16], ref.Conflicts, fp.World[:16], fp.Conflicts)
						}
						if i == 0 {
							srcRef = fp
						} else if fp.Full != srcRef.Full {
							t.Errorf("%s %s: full fingerprint diverged from workers=%d on the same source",
								plat, lane, workers[0])
						}
					}
				}
			}

			// Within a resolution discipline every platform must walk the
			// world through the identical trajectory.
			groups := map[string][]string{
				"snapshot":   SnapshotPlatforms(),
				"sequential": SequentialPlatforms(),
			}
			for group, plats := range groups {
				lead := refWorld[plats[0]]
				for _, plat := range plats[1:] {
					if fp := refWorld[plat]; fp.World != lead.World {
						t.Errorf("%s group: %s world trajectory diverged from %s\n  %s conflicts=%d\n  %s conflicts=%d",
							group, plat, plats[0], lead.World[:16], lead.Conflicts, fp.World[:16], fp.Conflicts)
					}
				}
			}

			// At scale, every platform's sweep must walk its group lead's
			// all-pairs world trajectory, identically at one and eight
			// workers.
			if !*full {
				return
			}
			for group, plats := range groups {
				scaleRef := runScale(fam, plats[0], Lane{Workers: 1})
				for _, plat := range plats {
					var first Fingerprint
					for i, w := range []int{1, 8} {
						lane := Lane{PairSource: "sweep", Workers: w}
						fp := runScale(fam, plat, lane)
						if fp.World != scaleRef.World {
							t.Errorf("%s %s n=%d: world trajectory diverged from %s group's all-pairs lead %s\n  ref  %s conflicts=%d\n  got  %s conflicts=%d",
								plat, lane, scaleN, group, plats[0], scaleRef.World[:16], scaleRef.Conflicts, fp.World[:16], fp.Conflicts)
						}
						if i == 0 {
							first = fp
						} else if fp.Full != first.Full {
							t.Errorf("%s %s n=%d: full fingerprint diverged from workers=1", plat, lane, scaleN)
						}
					}
				}
			}
		})
	}
}

// TestFingerprintReproducible pins the harness itself: the same run
// must fingerprint identically twice (no hidden global state).
func TestFingerprintReproducible(t *testing.T) {
	rs := RunSpec{Platform: "titanx", Scenario: "circle:radius=12", N: 100,
		Periods: MajorCycles(1), Seed: seed, Lane: Lane{Workers: 2}}
	a, b := Run(rs), Run(rs)
	if a != b {
		t.Fatalf("fingerprint not reproducible:\n  %+v\n  %+v", a, b)
	}
}
