package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"time"

	"repro/internal/airspace"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	xs := func(n int) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = float64(n - i)
		}
		return out
	}
	cases := []struct {
		n      int
		p      float64
		ok     bool
		expect float64
	}{
		{100, 90, true, 90},
		{99, 90, false, 0},
		{1000, 99, true, 990},
		{999, 99, false, 0},
		{20, 50, true, 10},
		{19, 50, false, 0},
		{5, 100, false, 0},
	}
	for _, c := range cases {
		v, err := tailPercentile(xs(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%v of %d samples: err %v, want ok=%t", c.p, c.n, err, c.ok)
			continue
		}
		if c.ok && v != c.expect {
			t.Errorf("p%v of %d samples = %v, want %v", c.p, c.n, v, c.expect)
		}
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	if m := trimmedMean([]float64{100, 1, 2, 3, 4, 5, 6, 7, 8, -50}); m != 4.5 {
		t.Errorf("trimmedMean = %v, want 4.5", m)
	}
}

var (
	metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	metricUnit = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkNames rejects a metric table with a malformed or repeated name.
func checkNames(defs []metricDef) error {
	seen := map[string]bool{}
	for _, d := range defs {
		if len(d.Name) > 64 || !metricName.MatchString(d.Name) {
			return fmt.Errorf("metric name %q does not match %s", d.Name, metricName)
		}
		if d.Unit != "" && !metricUnit.MatchString(d.Unit) {
			return fmt.Errorf("metric %q has malformed unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

func TestMetricNames(t *testing.T) {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		if err := checkNames(defs); err != nil {
			t.Error(err)
		}
	}
	for _, bad := range []string{"a b", "x/y", "ms%", "", "dup"} {
		defs := []metricDef{{Name: bad}}
		if bad == "dup" {
			defs = append(defs, metricDef{Name: bad})
		}
		if checkNames(defs) == nil {
			t.Errorf("checkNames accepted %q", bad)
		}
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json's metric lists
// and workloads equal to what the program reports.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if _, err := newWorkload(w.Name, 1); err != nil {
			t.Error(err)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, want %v", names, workloadNames)
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the program:\n%v\n%v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the program:\n%v\n%v", spec.PerLayer, perLayer)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 40, End: 90, Parent: 0},
		{Name: "b.1", Start: 50, End: 60, Parent: 2},
	}
	if got, want := selfTimes(spans), []int64{30, 20, 40, 10}; !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

// On a host running at half the reference speed the kernel takes twice
// refKernelMS: reported times halve, rates double, raw ones stay.
func TestReferenceSpeed(t *testing.T) {
	ph := &phase{
		classes: []string{"a", "b"},
		ops:     []opRec{{class: "a", ms: 40}, {class: "b", ms: 90}},
		opsPerS: 10,
		cal:     []float64{2 * refKernelMS, 2 * refKernelMS},
	}
	got := ph.endToEnd(metric{1, "s", 1})
	if v := got["op_ms_p50"].Value; math.Abs(v-30) > 1e-9 {
		t.Errorf("op_ms_p50 %v, want 30 (geomean 60 at half speed)", v)
	}
	if v := got["ops_per_s"].Value; math.Abs(v-20) > 1e-9 {
		t.Errorf("ops_per_s %v, want 20", v)
	}
	raw := map[string]metric{}
	ph.addRaw(raw, metric{2, "s", 1})
	if math.Abs(raw["raw.op_ms_p50"].Value-60) > 1e-9 || raw["raw.ops_per_s"].Value != 10 || raw["calib_ms"].Value != 2*refKernelMS {
		t.Errorf("raw figures %v", raw)
	}
}

// Each workload must count an injected oracle mismatch as a failed op,
// and none without one.
func TestInjectedMismatchFailsOp(t *testing.T) {
	flip := func(w *airspace.World) { w.Aircraft[0].X = -w.Aircraft[0].X }
	cases := []struct {
		name   string
		w      workload
		inject func(workload)
	}{
		{"paper-cycle", newPaperCycle(3, 200), func(w workload) {
			w.(*paperCycle).mutate = func(f int, wd *airspace.World) {
				if f == 0 {
					flip(wd)
				}
			}
		}},
		{"paper-cycle-ap", newPaperCycle(3, 200), func(w workload) {
			w.(*paperCycle).mutate = func(f int, wd *airspace.World) {
				if families[f].name == "ap" {
					flip(wd)
				}
			}
		}},
		{"detect-stream", shortDetect(3), func(w workload) {
			w.(*detectStream).mutate = func(_ int, wd *airspace.World) { flip(wd) }
		}},
		{"serve-mix", newServeMix(3, 100), func(w workload) {
			w.(*serveMix).mutate = func(b []byte) []byte {
				out := append([]byte(nil), b...)
				out[len(out)/2] ^= 1
				return out
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer c.w.close()
			if _, err := c.w.setUp(&probe{}); err != nil {
				t.Fatal(err)
			}
			clean := c.w.run(&probe{}, 300*time.Millisecond)
			if len(clean.ops) == 0 || clean.failed() != 0 {
				t.Fatalf("clean phase: %d ops, %d failed: %v", len(clean.ops), clean.failed(), clean.notes)
			}
			c.inject(c.w)
			bad := c.w.run(&probe{}, 300*time.Millisecond)
			if bad.failed() == 0 {
				t.Fatalf("injected mismatch: %d ops, none failed", len(bad.ops))
			}
		})
	}
}

// A traced run reports every per-layer metric the workload owns.
func TestTracedRunReportsLayers(t *testing.T) {
	o := options{workload: "detect-stream", seed: 5, seconds: 0.4, trace: true}
	rec, spans, err := execute(o, shortDetect(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 || rec.Failed != 0 {
		t.Fatalf("%d spans, %d failed ops: %v", len(spans), rec.Failed, rec.Failures)
	}
	for _, name := range []string{"broadphase.table_ms.tasks", "tasks.kernel_ms", "cuda.scan_ms", "parexec.speedup.detect.cuda"} {
		if m, ok := rec.Layers[name]; !ok || m.Value <= 0 {
			t.Errorf("%s = %+v, want a positive value", name, m)
		}
	}
	if m := rec.Layers["platform.track_calls"]; m.Value != 0 {
		t.Errorf("detect-stream ran %v Track calls, want none", m.Value)
	}
	res := result([]*record{rec})["metrics"].(map[string]any)
	if len(res) != len(perLayer) {
		t.Errorf("result has %d metrics, want every one of the %d per-layer metrics", len(res), len(perLayer))
	}
}

func shortDetect(seed uint64) *detectStream {
	ds := newDetectStream(seed, 600)
	ds.preRoll = 2
	return ds
}
