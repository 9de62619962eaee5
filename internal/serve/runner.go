package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/telemetry/live"
)

// Result is one served simulation: the rendered response body plus the
// validator headers derived from it. Bodies are immutable after
// construction and shared by the cache and every waiting request —
// which is exactly why cached and fresh answers are byte-identical.
type Result struct {
	Body []byte
	ETag string
}

// Row is one measurement row of the response: the per-task summary the
// experiment figures are built from, in modeled nanoseconds.
type Row struct {
	Task   string `json:"task"`
	Runs   int    `json:"runs"`
	MeanNs int64  `json:"mean_ns"`
	MaxNs  int64  `json:"max_ns"`
	Misses int    `json:"misses"`
	Skips  int    `json:"skips"`
}

// Response is the JSON document served for one run. Every field is a
// pure function of the canonical config: no wall-clock readings, no
// host identity, no worker counts — so the bytes are reproducible
// across processes, cache states and -workers settings.
type Response struct {
	Config           RunConfig `json:"config"`
	Key              string    `json:"key"`
	Rows             []Row     `json:"rows"`
	Periods          int       `json:"periods"`
	PeriodMisses     int       `json:"period_misses"`
	MaxLoadNs        int64     `json:"max_load_ns"`
	VirtualElapsedNs int64     `json:"virtual_elapsed_ns"`
	DeadlinesMet     bool      `json:"deadlines_met"`
	// TelemetryJSONL / ChromeTrace carry the optional modeled-time
	// telemetry exports (worker-invariant byte streams; see
	// internal/telemetry).
	TelemetryJSONL string `json:"telemetry_jsonl,omitempty"`
	ChromeTrace    string `json:"chrome_trace,omitempty"`
}

// Runner executes one canonical config. The default runner drives the
// deterministic core; tests substitute counting or blocking stubs.
type Runner func(cfg RunConfig) (*Result, error)

// newRunner builds the production runner. workers pins the host pool
// size of each run's platform (0 = process default); the setting is
// wall-clock-only and never changes response bytes. pub, when non-nil,
// receives each completed run's telemetry aggregates for the live
// stats endpoint (last run wins).
func newRunner(workers int, pub *live.Publisher) Runner {
	return func(cfg RunConfig) (*Result, error) {
		p, err := platform.New(cfg.Platform, cfg.Seed)
		if err != nil {
			return nil, err
		}
		if workers > 0 {
			if wp, ok := p.(platform.Workered); ok {
				wp.SetWorkers(workers)
			}
		}
		sys := core.NewSystem(p, core.Config{N: cfg.N, Seed: cfg.Seed, Scenario: cfg.Scenario, PairSource: cfg.PairSource})
		rec := telemetry.NewRecorder(telemetry.DefaultCapacity)
		if cfg.Detail == "block" {
			rec.SetDetail(telemetry.DetailBlock)
		}
		sys.SetTelemetry(rec)
		for i := 0; i < cfg.Periods; i++ {
			sys.RunPeriod()
		}
		// The run envelope: one span covering the whole schedule, so
		// service-side exports carry the request boundary alongside the
		// scheduler's per-period spans.
		rec.Span(rec.Intern(telemetry.NameServeRun), 0, sys.Stats().VirtualElapsed)
		if pub != nil {
			pub.Update(rec)
		}
		return render(cfg, sys, rec)
	}
}

// render builds the immutable response bytes. Task rows are emitted in
// the fixed schedule order (never by ranging over the stats map), and
// json.Marshal writes struct fields in declaration order, so rendering
// is deterministic.
func render(cfg RunConfig, sys *core.System, rec *telemetry.Recorder) (*Result, error) {
	st := sys.Stats()
	resp := Response{
		Config:           cfg,
		Key:              cfg.Hash(),
		Rows:             []Row{rowFor(core.Task1, st.Task(core.Task1)), rowFor(core.Task23, st.Task(core.Task23))},
		Periods:          st.Periods,
		PeriodMisses:     st.PeriodMisses,
		MaxLoadNs:        int64(st.MaxLoad),
		VirtualElapsedNs: int64(st.VirtualElapsed),
		DeadlinesMet:     st.PeriodMisses == 0,
	}
	switch cfg.Telemetry {
	case "jsonl":
		var b strings.Builder
		if err := telemetry.WriteJSONL(&b, rec); err != nil {
			return nil, err
		}
		resp.TelemetryJSONL = b.String()
	case "chrome":
		var b strings.Builder
		if err := telemetry.WriteChromeTrace(&b, rec); err != nil {
			return nil, err
		}
		resp.ChromeTrace = b.String()
	}
	body, err := json.Marshal(&resp)
	if err != nil {
		return nil, err
	}
	body = append(body, '\n')
	sum := sha256.Sum256(body)
	return &Result{Body: body, ETag: `"` + hex.EncodeToString(sum[:8]) + `"`}, nil
}

func rowFor(name string, ts *sched.TaskStats) Row {
	return Row{
		Task:   name,
		Runs:   ts.Runs,
		MeanNs: ts.Mean().Nanoseconds(),
		MaxNs:  ts.Max.Nanoseconds(),
		Misses: ts.Misses,
		Skips:  ts.Skips,
	}
}
