package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/core"
	"repro/internal/scenario"
)

// Defaults filled into requests during canonicalization: the paper's
// seed, one 16-period major cycle, task-level telemetry.
const (
	DefaultSeed    = 2018
	DefaultPeriods = 16
	DefaultDetail  = "task"
)

// RunRequest is the wire form of one simulation request, accepted as a
// JSON POST body or as URL query parameters on /v1/simulate. Optional
// fields left at their zero value are filled with canonical defaults
// before hashing, so two requests that only differ in how they spell a
// default are the same run.
type RunRequest struct {
	// Platform is the machine registry key (required).
	Platform string `json:"platform"`
	// N is the aircraft count (required, positive).
	N int `json:"n"`
	// Seed fixes flights, radar noise and MIMD jitter; 0 selects the
	// paper's 2018.
	Seed uint64 `json:"seed,omitempty"`
	// Periods is the number of half-second scheduling periods to run;
	// 0 selects one 16-period major cycle.
	Periods int `json:"periods,omitempty"`
	// PairSource optionally routes Tasks 2-3 through a broad-phase
	// source ("brute", "sweep"); empty keeps the paper's
	// all-pairs kernels.
	PairSource string `json:"pair_source,omitempty"`
	// Scenario selects the traffic workload as a scenario spec string
	// ("circle:radius=50", see internal/scenario); empty keeps the
	// paper's uniform setup.
	Scenario string `json:"scenario,omitempty"`
	// Detail is the telemetry detail level: "task" (default) or
	// "block".
	Detail string `json:"detail,omitempty"`
	// Telemetry selects an optional export embedded in the response:
	// "none" (default), "jsonl", or "chrome".
	Telemetry string `json:"telemetry,omitempty"`
}

// RunConfig is a canonical, validated simulation config: every default
// filled in, every name checked. Its canonical key is the cache and
// single-flight identity, which is sound because runs are
// bit-deterministic — one config has exactly one byte-exact answer.
type RunConfig struct {
	Platform   string `json:"platform"`
	N          int    `json:"n"`
	Seed       uint64 `json:"seed"`
	Periods    int    `json:"periods"`
	PairSource string `json:"pair_source,omitempty"`
	Scenario   string `json:"scenario,omitempty"`
	Detail     string `json:"detail"`
	Telemetry  string `json:"telemetry,omitempty"`
}

// Canonicalize fills defaults and validates, returning the canonical
// config. Validation reuses the front-end helper shared with atmsim
// and atmbench (core.RunParams), plus the serve-only knobs.
func (r RunRequest) Canonicalize() (RunConfig, error) {
	cfg := RunConfig{
		Platform:   r.Platform,
		N:          r.N,
		Seed:       r.Seed,
		Periods:    r.Periods,
		PairSource: r.PairSource,
		Scenario:   r.Scenario,
		Detail:     r.Detail,
		Telemetry:  r.Telemetry,
	}
	if cfg.Seed == 0 {
		cfg.Seed = DefaultSeed
	}
	if cfg.Periods == 0 {
		cfg.Periods = DefaultPeriods
	}
	if cfg.Detail == "" {
		cfg.Detail = DefaultDetail
	}
	if cfg.Telemetry == "none" {
		cfg.Telemetry = ""
	}
	if cfg.Platform == "" {
		return RunConfig{}, &core.ValidationError{Msg: "missing platform (e.g. titanx, staran, xeon16)"}
	}
	params := core.RunParams{
		Platform:   cfg.Platform,
		N:          cfg.N,
		Periods:    cfg.Periods,
		Workers:    0, // host workers are a server setting, not part of the run identity
		PairSource: cfg.PairSource,
		Scenario:   cfg.Scenario,
	}
	if err := params.Validate(); err != nil {
		return RunConfig{}, err
	}
	if cfg.Scenario != "" {
		// Differently spelled specs of the same workload collapse to one
		// canonical form, so they share a cache entry and a single-flight
		// slot ("circle" and "circle:radius=100" are the same run).
		spec, _ := scenario.ParseSpec(cfg.Scenario) // params.Validate already vetted it
		cfg.Scenario = spec.String()
	}
	switch cfg.Detail {
	case "task", "block":
	default:
		return RunConfig{}, &core.ValidationError{Msg: fmt.Sprintf("unknown detail %q (have task, block)", cfg.Detail)}
	}
	switch cfg.Telemetry {
	case "", "jsonl", "chrome":
	default:
		return RunConfig{}, &core.ValidationError{Msg: fmt.Sprintf("unknown telemetry export %q (have none, jsonl, chrome)", cfg.Telemetry)}
	}
	return cfg, nil
}

// Key returns the canonical identity string. Host-side settings
// (worker count, queue position, cache state) are deliberately absent:
// they change wall-clock speed only, never the answer.
func (c RunConfig) Key() string {
	return fmt.Sprintf("platform=%s&n=%d&seed=%d&periods=%d&pairsource=%s&scenario=%s&detail=%s&telemetry=%s",
		c.Platform, c.N, c.Seed, c.Periods, c.PairSource, c.Scenario, c.Detail, c.Telemetry)
}

// Hash returns the short content hash of the canonical key, used as
// the response key field and the ETag body.
func (c RunConfig) Hash() string {
	sum := sha256.Sum256([]byte(c.Key()))
	return hex.EncodeToString(sum[:8])
}

// maxRequestBody bounds /v1/simulate POST bodies; a config is tiny.
const maxRequestBody = 1 << 16

// parseRequest decodes a simulate request from either a JSON body
// (POST) or query parameters (GET).
func parseRequest(r *http.Request) (RunRequest, error) {
	switch r.Method {
	case http.MethodGet:
		return requestFromQuery(r.URL.Query())
	case http.MethodPost:
		var req RunRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, maxRequestBody))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return RunRequest{}, &core.ValidationError{Msg: fmt.Sprintf("bad JSON body: %v", err)}
		}
		return req, nil
	default:
		return RunRequest{}, &core.ValidationError{Msg: fmt.Sprintf("method %s not allowed (use GET or POST)", r.Method)}
	}
}

// requestFromQuery builds a RunRequest from URL query parameters; both
// pair_source and pairsource are accepted for curl convenience.
func requestFromQuery(q url.Values) (RunRequest, error) {
	req := RunRequest{
		Platform:   q.Get("platform"),
		PairSource: q.Get("pair_source"),
		Scenario:   q.Get("scenario"),
		Detail:     q.Get("detail"),
		Telemetry:  q.Get("telemetry"),
	}
	if req.PairSource == "" {
		req.PairSource = q.Get("pairsource")
	}
	var err error
	if req.N, err = intParam(q, "n"); err != nil {
		return RunRequest{}, err
	}
	if req.Periods, err = intParam(q, "periods"); err != nil {
		return RunRequest{}, err
	}
	if s := q.Get("seed"); s != "" {
		seed, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return RunRequest{}, &core.ValidationError{Msg: fmt.Sprintf("bad seed %q: %v", s, err)}
		}
		req.Seed = seed
	}
	return req, nil
}

func intParam(q url.Values, name string) (int, error) {
	s := q.Get(name)
	if s == "" {
		return 0, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, &core.ValidationError{Msg: fmt.Sprintf("bad %s %q: %v", name, s, err)}
	}
	return v, nil
}
