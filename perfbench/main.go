// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It runs one named workload through the public entry points
// (core.System, platform executors, tasks, broadphase, serve), checks
// every op against an oracle, and prints one JSON result line last:
//
//	bash perfbench/run.sh --workload paper-cycle --seed 1 --seconds 25 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1
// the run measures an untraced and a traced phase and the result holds
// the per-layer metrics and the tracing overhead. README.md describes the
// workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/rng"
	"repro/internal/scenario"
)

// setupReps is how many times a run builds the workload state; setup_s
// is the median, and only the last build is kept.
const setupReps = 3

// setupCalSamples is how many reference-kernel samples follow each
// set-up; their trimmed mean converts that set-up's time to reference
// speed.
const setupCalSamples = 9

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
}

// workload is one named load. setUp builds fresh state (releasing any
// earlier build) and returns the time the program's own set-up took;
// run executes ops until the deadline; layers turns a traced phase
// into per-layer metrics, and returns the checked ops of any extra
// measurement it runs (nil if none).
type workload interface {
	setUp(p *probe) (time.Duration, error)
	run(p *probe, d time.Duration) *phase
	detail(ph *phase) map[string]metric
	layers(p *probe, traced *phase) (map[string]metric, *phase)
	close()
}

// opRec is one timed op. cpu and mallocs are only taken while tracing.
type opRec struct {
	id      int64
	class   string
	ms      float64
	cpu     time.Duration
	mallocs uint64
	failed  bool
}

// phase is one timed interval of a run.
type phase struct {
	classes []string
	ops     []opRec
	opsPerS float64
	heapMB  float64
	notes   []string // oracle failures, first few
	// cal holds the reference kernel's times, taken between ops
	// (calibrate.go).
	cal []float64
}

// calibrate takes one reference-kernel sample.
func (ph *phase) calibrate() { ph.cal = append(ph.cal, calibrationMS()) }

// calMS is the kernel's time over the phase: the trimmed mean of its
// samples.
func (ph *phase) calMS() float64 { return trimmedMean(ph.cal) }

// fail records an oracle failure of op i.
func (ph *phase) fail(i int, why string) {
	if !ph.ops[i].failed {
		ph.ops[i].failed = true
		if len(ph.notes) < 8 {
			ph.notes = append(ph.notes, why)
		}
	}
}

func (ph *phase) durations(class string) []float64 {
	var xs []float64
	for _, op := range ph.opsOf(class) {
		xs = append(xs, op.ms)
	}
	return xs
}

func (ph *phase) opsOf(class string) []opRec {
	var out []opRec
	for _, op := range ph.ops {
		if op.class == class {
			out = append(out, op)
		}
	}
	return out
}

func (ph *phase) failed() int {
	n := 0
	for _, op := range ph.ops {
		if op.failed {
			n++
		}
	}
	return n
}

// roundOpsPerS is the throughput of one op of every class back to back
// at each class's median time: the rate of a round-robin workload whose
// oracle checks run between ops, without the mean's pull toward one
// slow op.
func (ph *phase) roundOpsPerS() float64 {
	total := 0.0
	for _, c := range ph.classes {
		total += median(ph.durations(c))
	}
	return ratio(float64(len(ph.classes)), total/1000)
}

// opMS is the geometric mean over the op classes of each class's median
// op time, as measured.
func (ph *phase) opMS() float64 {
	var meds []float64
	for _, c := range ph.classes {
		meds = append(meds, median(ph.durations(c)))
	}
	return geomean(meds)
}

// endToEnd computes the end-to-end metrics of a phase, its times at
// reference speed; setup is already converted.
func (ph *phase) endToEnd(setup metric) map[string]metric {
	cal := ph.calMS()
	return map[string]metric{
		"setup_s":      setup,
		"op_ms_p50":    {ph.opMS() * refKernelMS / cal, "ms", len(ph.ops)},
		"ops_per_s":    {ph.opsPerS * cal / refKernelMS, "1/s", len(ph.ops)},
		"heap_live_mb": {ph.heapMB, "MB", 1},
	}
}

// addRaw adds to detail the phase's end-to-end times as measured and the
// reference kernel's time behind their conversion.
func (ph *phase) addRaw(detail map[string]metric, rawSetup metric) {
	detail["raw.setup_s"] = rawSetup
	detail["raw.op_ms_p50"] = metric{ph.opMS(), "ms", len(ph.ops)}
	detail["raw.ops_per_s"] = metric{ph.opsPerS, "1/s", len(ph.ops)}
	detail["calib_ms"] = metric{ph.calMS(), "ms", len(ph.cal)}
}

// heapLiveMB forces a collection and returns the live heap.
func heapLiveMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// generateMS times the scenario generator at n aircraft.
func generateMS(n int, seed uint64) metric {
	spec, err := scenario.ParseSpec("")
	if err != nil {
		panic(err)
	}
	const reps = 9
	xs := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		spec.Generate(n, rng.New(seed))
		xs = append(xs, msSince(t0))
	}
	return metric{median(xs), "ms", reps}
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }
func nsToMS(ns int64) float64     { return float64(ns) / 1e6 }

// record is the run record written next to the result.
type record struct {
	Workload     string            `json:"workload"`
	Seed         uint64            `json:"seed"`
	Seconds      float64           `json:"seconds"`
	Trace        bool              `json:"trace"`
	Machine      machineInfo       `json:"machine"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Failures     []string          `json:"failures,omitempty"`
	Metrics      map[string]metric `json:"metrics"`
	Detail       map[string]metric `json:"detail"`
	Traced       map[string]metric `json:"traced,omitempty"`
	TracedDetail map[string]metric `json:"traced_detail,omitempty"`
	Layers       map[string]metric `json:"layers,omitempty"`
	SpanFile     string            `json:"span_file,omitempty"`
	// Samples holds every timed op of the (untraced) phase in ms, per
	// class, in the order they ran; Calibration holds its reference
	// kernel samples in ms.
	Samples     map[string][]float64 `json:"samples"`
	Calibration []float64            `json:"calibration"`
}

func samples(ph *phase) map[string][]float64 {
	out := map[string][]float64{}
	for _, c := range ph.classes {
		out[c] = ph.durations(c)
	}
	return out
}

// workloadNames lists the workloads in the order --workload all runs
// them.
var workloadNames = []string{"paper-cycle", "detect-stream", "serve-mix"}

func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "paper-cycle":
		return newPaperCycle(seed, paperN), nil
	case "detect-stream":
		return newDetectStream(seed, detectN), nil
	case "serve-mix":
		return newServeMix(seed, serveN), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %v or all)", name, workloadNames)
}

// execute runs one workload: set-up repetitions, then one timed phase,
// or with tracing an untraced and a traced phase of half the time each.
func execute(o options, w workload) (*record, []span, error) {
	defer w.close()
	pr := &probe{}
	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// setups are at reference speed, each converted by the kernel
	// samples taken right after it; raw are as measured.
	var setups, raw []float64
	for i := 0; i < setupReps; i++ {
		if o.trace && i == setupReps-1 {
			pr.tr = tr
		}
		d, err := w.setUp(pr)
		if err != nil {
			return nil, nil, err
		}
		cal := &phase{}
		for k := 0; k < setupCalSamples; k++ {
			cal.calibrate()
		}
		setups = append(setups, d.Seconds()*refKernelMS/cal.calMS())
		raw = append(raw, d.Seconds())
	}
	pr.tr = nil
	rec := &record{Workload: o.workload, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	length := time.Duration(o.seconds * float64(time.Second))
	if !o.trace {
		ph := w.run(pr, length)
		rec.Metrics = ph.endToEnd(metric{median(setups), "s", len(setups)})
		rec.Detail = w.detail(ph)
		ph.addRaw(rec.Detail, metric{median(raw), "s", len(raw)})
		rec.Samples, rec.Calibration = samples(ph), ph.cal
		rec.Attempted, rec.Failed, rec.Failures = len(ph.ops), ph.failed(), ph.notes
		return rec, nil, nil
	}
	untraced := w.run(pr, length/2)
	pr.tr = tr
	traced := w.run(pr, length/2)
	layers, extra := w.layers(pr, traced)
	pr.tr = nil
	if extra == nil {
		extra = &phase{}
	}
	rec.Metrics = untraced.endToEnd(metric{median(setups[:setupReps-1]), "s", setupReps - 1})
	rec.Detail = w.detail(untraced)
	untraced.addRaw(rec.Detail, metric{median(raw[:setupReps-1]), "s", setupReps - 1})
	rec.Samples, rec.Calibration = samples(untraced), untraced.cal
	rec.Traced = traced.endToEnd(metric{setups[setupReps-1], "s", 1})
	rec.TracedDetail = w.detail(traced)
	traced.addRaw(rec.TracedDetail, metric{raw[setupReps-1], "s", 1})
	for _, m := range endToEnd {
		layers["trace.overhead."+m.Name] = metric{rec.Traced[m.Name].Value - rec.Metrics[m.Name].Value, m.Unit, rec.Traced[m.Name].N}
	}
	layers["trace.spans"] = metric{float64(len(tr.spans)), "count", 1}
	rec.Layers = layers
	rec.Attempted = len(untraced.ops) + len(traced.ops) + len(extra.ops)
	rec.Failed = untraced.failed() + traced.failed() + extra.failed()
	rec.Failures = append(append(untraced.notes, traced.notes...), extra.notes...)
	return rec, tr.spans, nil
}

// result builds the result line. With several records
// (--workload all) every metric name is prefixed by its workload.
func result(recs []*record) map[string]any {
	metrics := map[string]any{}
	attempted, failed := 0, 0
	for _, rec := range recs {
		defs, src := endToEnd, rec.Metrics
		if rec.Trace {
			defs, src = perLayer, rec.Layers
		}
		prefix := ""
		if len(recs) > 1 {
			prefix = rec.Workload + "."
		}
		for _, d := range defs {
			metrics[prefix+d.Name] = map[string]any{"value": src[d.Name].Value, "unit": d.Unit}
		}
		attempted += rec.Attempted
		failed += rec.Failed
	}
	return map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	}
}

// printSummary writes the human-readable table: every metric by name,
// with unit and sample count.
func printSummary(w io.Writer, rec *record) {
	m := rec.Machine
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %t\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	fmt.Fprintf(w, "  %s  GOMAXPROCS %d  nproc %d  cpu %q  commit %s  source %.12s\n",
		m.GoVersion, m.GOMAXPROCS, m.NumCPU, m.CPUModel, m.Commit, m.SourceSHA256)
	section := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "%s\n", title)
		names := make([]string, 0, len(ms))
		for k := range ms {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			v := ms[k]
			fmt.Fprintf(w, "  %-36s %14.4f %-6s n=%d\n", k, v.Value, v.Unit, v.N)
		}
	}
	section("end to end, tracing off:", rec.Metrics)
	section("per class, tracing off:", rec.Detail)
	section("end to end, traced:", rec.Traced)
	section("per class, traced:", rec.TracedDetail)
	section("per layer (traced):", rec.Layers)
	fmt.Fprintf(w, "ops attempted %d failed %d\n", rec.Attempted, rec.Failed)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "  failed: %s\n", f)
	}
}

func writeRecord(dir string, rec *record, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, boolBits(rec.Trace)))
	if spans != nil {
		rec.SpanFile = base + "-spans.jsonl"
		if err := writeSpans(rec.SpanFile, spans); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+".json", append(data, '\n'), 0o644)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "paper-cycle, detect-stream, serve-mix, or all to run the three in turn")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed")
	flag.Float64Var(&o.seconds, "seconds", 30, "length of the timed interval")
	flag.IntVar(&trace, "trace", 0, "1 runs an untraced and a traced phase and reports per-layer metrics")
	flag.StringVar(&o.out, "out", ".bench_out", "directory for the run record and span file")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	flag.Parse()
	if err := profiled(*cpuprofile, func() error { return run(o, trace) }); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

// profiled runs fn under a CPU profile written to path; an empty path
// runs it plainly.
func profiled(path string, fn func() error) error {
	if path == "" {
		return fn()
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	err = fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

func run(o options, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	o.trace = trace == 1
	names := []string{o.workload}
	if o.workload == "all" {
		names = workloadNames
	}
	var recs []*record
	for _, name := range names {
		w, err := newWorkload(name, o.seed)
		if err != nil {
			return err
		}
		o.workload = name
		rec, spans, err := execute(o, w)
		if err != nil {
			return err
		}
		rec.Machine = machine()
		if err := writeRecord(o.out, rec, spans); err != nil {
			return fmt.Errorf("writing run record: %w", err)
		}
		printSummary(os.Stdout, rec)
		recs = append(recs, rec)
	}
	line, err := json.Marshal(result(recs))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
