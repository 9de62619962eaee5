package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/broadphase"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/trace"
)

var update = flag.Bool("update", false, "rewrite golden files with current measurements")

// goldenMeasurements runs every registered platform — paper set and
// extensions — at N=1000 for one major cycle, seed 2018, single
// worker, and tabulates the Figure 4 / Figure 6 measurements plus the
// deadline record: first with the paper's all-pairs kernels, then with
// each broadphase pair source installed (series "<platform> / <source>"),
// which pins what every executor charges for a pruned scan and its
// index build.
func goldenMeasurements(t *testing.T) *trace.Dataset {
	t.Helper()
	d := &trace.Dataset{
		ID:     "golden",
		Title:  "Pinned measurements: N=1000, 1 major cycle, seed 2018, workers=1",
		XLabel: "metric",
		YLabel: "value",
	}
	for _, src := range append([]string{""}, broadphase.Names()...) {
		for _, name := range append(platform.Names(), platform.ExtensionNames()...) {
			p := platform.MustNew(name, 2018)
			p.(platform.Workered).SetWorkers(1)
			sys := core.NewSystem(p, core.Config{N: 1000, Seed: 2018, PairSource: src})
			sys.RunMajorCycles(1)
			st := sys.Stats()
			t1 := st.Task(core.Task1)
			t23 := st.Task(core.Task23)
			label := platform.Label(name)
			if src != "" {
				label += " / " + src
			}
			d.Add(label, 0, t1.Mean().Seconds())  // fig4: Task 1 mean seconds
			d.Add(label, 1, t23.Mean().Seconds()) // fig6: Tasks 2+3 mean seconds
			d.Add(label, 2, t1.Max.Seconds())
			d.Add(label, 3, t23.Max.Seconds())
			d.Add(label, 4, float64(st.PeriodMisses))
			d.Add(label, 5, float64(st.TotalSkips))
		}
	}
	return d
}

// TestGoldenMeasurements pins the end-to-end simulation output — the
// numbers Figures 4 and 6 are built from — against a checked-in golden
// file. Any change to task modeling, scheduling, RNG streams or
// platform profiles shows up here as a diff; regenerate deliberately
// with:
//
//	go test ./internal/experiments -run TestGoldenMeasurements -update
//
// Everything measured is deterministic at workers=1 (the MIMD machine
// included: its jitter is seeded and its arbitration sequential), so
// the comparison is byte-exact.
func TestGoldenMeasurements(t *testing.T) {
	d := goldenMeasurements(t)
	var buf bytes.Buffer
	if err := d.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "golden_measurements.csv")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("measurements diverged from %s (intentional? re-run with -update):\n-- got --\n%s\n-- want --\n%s",
			path, buf.Bytes(), want)
	}
}
