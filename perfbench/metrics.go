package main

import (
	"fmt"
	"math"
	"sort"
)

// metricDef names one reported metric. The tables below are the single
// source of the names BENCHMARK.json lists; a test keeps the two equal.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// metric is one reported value with the number of samples behind it.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// Executor families of the paper-cycle workload, in round-robin order,
// with the registry key of the machine that represents each.
var families = []struct{ name, key string }{
	{"cuda", "titanx"},
	{"ap", "staran"},
	{"mimd", "xeon16"},
	{"vector", "xeonphi"},
}

// Detect-stream paths, in interleaving order.
var paths = []string{"tasks", "cuda"}

// endToEnd are the metrics every workload reports with tracing off. The
// latency and throughput figures summarise the workload's op classes
// (families, paths, or hit and miss); the per-class figures behind them
// are in the run record.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"heap_live_mb", "MB", "lower"},
}

// perLayer lists the traced run's metrics. A workload that never calls
// a layer reports its metrics as 0 with a sample count of 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) { defs = append(defs, metricDef{name, unit, better}) }
	for _, f := range families {
		add("platform.track_ms."+f.name, "ms", "lower")
		add("platform.detect_resolve_ms."+f.name, "ms", "lower")
		add("core.period_self_ms."+f.name, "ms", "lower")
		add("platform.track_share."+f.name, "ratio", "lower")
		add("parexec.cpu_util.cycle."+f.name, "ratio", "higher")
		add("parexec.speedup.track."+f.name, "ratio", "higher")
		add("platform.allocs_per_cycle."+f.name, "count", "lower")
	}
	for _, p := range paths {
		add("broadphase.prepare_ms."+p, "ms", "lower")
		add("broadphase.table_ms."+p, "ms", "lower")
		add("broadphase.share."+p, "ratio", "lower")
		add("broadphase.candidates."+p, "count", "lower")
		add("broadphase.check_ratio."+p, "ratio", "higher")
		add("broadphase.rebuild_frac."+p, "ratio", "lower")
		add("broadphase.moved_per_prepare."+p, "count", "lower")
		add("parexec.cpu_util.detect."+p, "ratio", "higher")
		add("parexec.speedup.table."+p, "ratio", "higher")
		add("parexec.speedup.detect."+p, "ratio", "higher")
		add("tasks.allocs_per_detect."+p, "count", "lower")
	}
	add("tasks.kernel_ms", "ms", "lower")
	add("tasks.kernel_batches", "count", "lower")
	add("cuda.scan_ms", "ms", "lower")
	add("serve.handler_hit_us", "us", "lower")
	add("core.run_ms", "ms", "lower")
	add("telemetry.overhead_frac", "ratio", "lower")
	add("serve.miss_overhead_ms", "ms", "lower")
	add("serve.hit_frac", "ratio", "higher")
	add("serve.coalesced", "count", "higher")
	add("serve.shed", "count", "lower")
	add("serve.timeouts", "count", "lower")
	add("serve.response_bytes.hit", "bytes", "lower")
	add("serve.response_bytes.miss", "bytes", "lower")
	add("scenario.generate_ms", "ms", "lower")
	add("platform.track_calls", "count", "lower")
	add("broadphase.calls", "count", "lower")
	add("trace.spans", "count", "lower")
	for _, m := range endToEnd {
		add("trace.overhead."+m.Name, m.Unit, "lower")
	}
	return defs
}

// tailMin is the number of samples a tail percentile needs beyond it.
const tailMin = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count). It does not modify xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile returns the p-th percentile of xs by nearest rank. It
// refuses a percentile with fewer than tailMin samples beyond it: such a
// value is set by a handful of outliers and does not repeat.
func tailPercentile(xs []float64, p float64) (float64, error) {
	if p <= 0 || p >= 100 {
		return 0, fmt.Errorf("percentile %v outside (0, 100)", p)
	}
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if beyond := n - rank; rank < 1 || beyond < tailMin {
		return 0, fmt.Errorf("p%v of %d samples has %d beyond it, need %d", p, n, n-rank, tailMin)
	}
	return sorted(xs)[rank-1], nil
}

// trimmedMean is the mean of xs without its lowest and highest tenth.
// Unlike the median it moves with the share of samples in each of two
// clusters, as a long op's time does when the host's speed flickers
// between two levels during it.
func trimmedMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	k := len(s) / 10
	s = s[k : len(s)-k]
	sum := 0.0
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// geomean is the geometric mean of positive values; the mean of logs
// weighs a 10% change in any one class the same.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
