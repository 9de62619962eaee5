package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

const (
	// serveN keeps a miss near a tenth of a second of host time, so a
	// run sees hundreds of misses next to thousands of hits.
	serveN = 1000
	// hotConfigs is the size of the hot set. In every block of
	// missEvery consecutive requests of a client, one request at a seeded
	// position is a fresh-seed miss and the rest go to the hot set: 80%
	// hits, with no run-to-run wobble in the mix.
	hotConfigs = 16
	missEvery  = 5
	// verifyEvery samples the fresh-seed misses whose first body is
	// re-derived with core.MeasureWith after the timed phase; every
	// hot-set body is checked.
	verifyEvery = 8
	// handlerReps is how many cached requests the traced run serves
	// straight into an in-memory recorder.
	handlerReps = 2000
	// The clients pause every serveSlice, when their requests in
	// flight have been answered, for serveCalSamples reference-kernel
	// samples: the kernel must not share the CPUs with the requests it
	// calibrates.
	serveSlice      = 2 * time.Second
	serveCalSamples = 3
)

var servePlatforms = []string{platform.TitanXPascal, platform.Xeon16, platform.XeonPhi}

// serveConfig is one simulate request of the mix.
type serveConfig struct {
	platform string
	seed     uint64
	sweep    bool
	jsonl    bool
}

func (c serveConfig) query(n int) string {
	q := url.Values{}
	q.Set("platform", c.platform)
	q.Set("n", strconv.Itoa(n))
	q.Set("seed", strconv.FormatUint(c.seed, 10))
	q.Set("periods", "16")
	if c.sweep {
		q.Set("pair_source", "sweep")
		q.Set("coherent", "true")
		q.Set("parshard", "true")
	}
	if c.jsonl {
		q.Set("telemetry", "jsonl")
	}
	return q.Encode()
}

func (c serveConfig) core(n int) core.Config {
	cfg := core.Config{N: n, Seed: c.seed}
	if c.sweep {
		cfg.PairSource, cfg.Incremental, cfg.ParShard = "sweep", true, true
	}
	return cfg
}

// serveMix drives an in-process atmserve over in-memory HTTP/1.1
// connections with a closed loop of GOMAXPROCS clients.
type serveMix struct {
	seed   uint64
	n      int
	hot    []serveConfig
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	client *http.Client
	// first holds each hot config's first body; badHot marks the ones
	// core.MeasureWith disagrees with.
	first      [][]byte
	badHot     []bool
	hotChecked bool
	fresh      atomic.Uint64
	nextOp     atomic.Int64
	last       serveCounts
	// mutate, when set, rewrites every body before it is checked; tests
	// use it to inject an oracle mismatch.
	mutate func([]byte) []byte
}

// serveCounts is what one phase saw beyond its op timings.
type serveCounts struct {
	requests, hits, coalesced, shed, timeouts int64
	hitBytes, missBytes                       float64
}

func newServeMix(seed uint64, n int) *serveMix {
	sm := &serveMix{seed: seed, n: n}
	r := rng.New(seed)
	for i := 0; i < hotConfigs; i++ {
		sm.hot = append(sm.hot, serveConfig{
			platform: servePlatforms[i%len(servePlatforms)],
			seed:     1 + r.Uint64()%1_000_000_000,
			sweep:    i%2 == 1,
			jsonl:    i%4 == 3,
		})
	}
	return sm
}

// freshConfig is the k-th fresh-seed request: a hot-set shape with a
// seed no other request uses, so it always misses the cache.
func (sm *serveMix) freshConfig(k uint64) serveConfig {
	c := sm.hot[k%hotConfigs]
	c.seed = 1<<40 + sm.seed<<24 + k
	return c
}

func (sm *serveMix) setUp(p *probe) (time.Duration, error) {
	sm.close()
	sm.hotChecked = false
	t0 := time.Now()
	sm.srv = serve.New(serve.Options{})
	ln := newPipeListener()
	sm.hs = &http.Server{Handler: sm.srv.Handler()}
	sm.served = make(chan struct{})
	go func() {
		defer close(sm.served)
		sm.hs.Serve(ln)
	}()
	conns := runtime.GOMAXPROCS(0)
	sm.client = &http.Client{Transport: &http.Transport{DialContext: ln.dial, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns}}
	sm.first = make([][]byte, len(sm.hot))
	for i, c := range sm.hot {
		status, _, body, err := sm.get(c)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("warming hot config %d: status %d: %s", i, status, body)
		}
		sm.first[i] = body
	}
	return time.Since(t0), nil
}

func (sm *serveMix) get(c serveConfig) (status int, how string, body []byte, err error) {
	resp, err := sm.client.Get("http://atmserve/v1/simulate?" + c.query(sm.n))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Atmserve-Cache"), body, err
}

// rows is the part of a response body the oracle checks.
type rows struct {
	Rows         []serve.Row `json:"rows"`
	Periods      int         `json:"periods"`
	PeriodMisses int         `json:"period_misses"`
}

func decodeRows(body []byte) (rows, error) {
	var r rows
	if err := json.Unmarshal(body, &r); err != nil {
		return r, fmt.Errorf("decoding body: %w", err)
	}
	return r, nil
}

// verify re-derives a first body's task rows with core.MeasureWith.
func (sm *serveMix) verify(c serveConfig, resp rows) error {
	m, err := core.MeasureWith(c.platform, 1, c.core(sm.n))
	if err != nil {
		return err
	}
	want := []serve.Row{
		{Task: core.Task1, MeanNs: m.Task1Mean.Nanoseconds(), MaxNs: m.Task1Max.Nanoseconds()},
		{Task: core.Task23, MeanNs: m.Task23Mean.Nanoseconds(), MaxNs: m.Task23Max.Nanoseconds()},
	}
	if len(resp.Rows) != len(want) {
		return fmt.Errorf("%d task rows, want %d", len(resp.Rows), len(want))
	}
	skips := 0
	for i, r := range resp.Rows {
		if r.Task != want[i].Task || r.MeanNs != want[i].MeanNs || r.MaxNs != want[i].MaxNs {
			return fmt.Errorf("row %s mean %d max %d, core.MeasureWith gives %s mean %d max %d",
				r.Task, r.MeanNs, r.MaxNs, want[i].Task, want[i].MeanNs, want[i].MaxNs)
		}
		skips += r.Skips
	}
	if resp.Periods != m.Periods || resp.PeriodMisses != m.PeriodMisses || skips != m.Skips {
		return fmt.Errorf("deadline record %d/%d/%d, core.MeasureWith gives %d/%d/%d",
			resp.Periods, resp.PeriodMisses, skips, m.Periods, m.PeriodMisses, m.Skips)
	}
	return nil
}

// clientLog is one client's state and what it records; it is merged
// into the phase after the last slice.
type clientLog struct {
	r *rng.Rand
	// sent counts the client's requests; missAt is the position of the
	// fresh-seed miss in the current block of missEvery.
	sent, missAt int
	ops          []opRec
	notes        []string
	bytes        map[string]float64
	verify       []pendingCheck
	tr           *tracer
	okCount      int
}

type pendingCheck struct {
	op   int
	cfg  serveConfig
	rows rows
}

func (sm *serveMix) run(p *probe, d time.Duration) *phase {
	ph := &phase{classes: []string{"hit", "miss"}}
	if !sm.hotChecked {
		sm.badHot = make([]bool, len(sm.hot))
		for i, c := range sm.hot {
			body := sm.first[i]
			if sm.mutate != nil {
				body = sm.mutate(body)
			}
			r, err := decodeRows(body)
			sm.badHot[i] = err != nil || sm.verify(c, r) != nil
		}
		sm.hotChecked = true
	}
	before := countsOf(sm.srv.Stats())
	logs := make([]*clientLog, runtime.GOMAXPROCS(0))
	for c := range logs {
		r := rng.New(sm.seed).Split()
		for k := 0; k <= c; k++ {
			r = r.Split()
		}
		logs[c] = &clientLog{r: r, bytes: map[string]float64{}}
		if p.tr != nil {
			logs[c].tr = &tracer{origin: p.tr.origin}
		}
	}
	// busy is the time the clients ran, without the calibration pauses.
	var busy time.Duration
	start := time.Now()
	for time.Since(start) < d {
		s0 := time.Now()
		end := s0.Add(serveSlice)
		if last := start.Add(d); end.After(last) {
			end = last
		}
		var wg sync.WaitGroup
		for _, lg := range logs {
			wg.Add(1)
			go func(lg *clientLog) {
				defer wg.Done()
				sm.callLoop(lg, end)
			}(lg)
		}
		wg.Wait()
		busy += time.Since(s0)
		for k := 0; k < serveCalSamples; k++ {
			ph.calibrate()
		}
	}
	after := countsOf(sm.srv.Stats())
	ok := 0
	sm.last = serveCounts{
		requests:  after.requests - before.requests,
		hits:      after.hits - before.hits,
		coalesced: after.coalesced - before.coalesced,
		shed:      after.shed - before.shed,
		timeouts:  after.timeouts - before.timeouts,
	}
	var pending []pendingCheck
	for _, lg := range logs {
		base := len(ph.ops)
		ph.ops = append(ph.ops, lg.ops...)
		for _, pc := range lg.verify {
			pc.op += base
			pending = append(pending, pc)
		}
		if len(ph.notes) < 8 {
			ph.notes = append(ph.notes, lg.notes...)
		}
		ok += lg.okCount
		sm.last.hitBytes += lg.bytes["hit"]
		sm.last.missBytes += lg.bytes["miss"]
		if lg.tr != nil {
			// Request spans are roots, so no parent index needs rebasing.
			p.tr.spans = append(p.tr.spans, lg.tr.spans...)
		}
	}
	ph.opsPerS = ratio(float64(ok), busy.Seconds())
	ph.heapMB = heapLiveMB()
	for _, pc := range pending {
		if err := sm.verify(pc.cfg, pc.rows); err != nil {
			ph.fail(pc.op, fmt.Sprintf("op %d: first body of a fresh config: %v", ph.ops[pc.op].id, err))
		}
	}
	return ph
}

// callLoop is one closed-loop caller: it sends its next request only
// after the previous response has been read in full, until deadline.
func (sm *serveMix) callLoop(lg *clientLog, deadline time.Time) {
	for ; time.Now().Before(deadline); lg.sent++ {
		n, r := lg.sent, lg.r
		if n%missEvery == 0 {
			lg.missAt = n + r.IntN(missEvery)
		}
		hot, idx := n != lg.missAt, r.IntN(hotConfigs)
		cfg := sm.hot[idx]
		var k uint64
		if !hot {
			k = sm.fresh.Add(1)
			cfg = sm.freshConfig(k)
		}
		op := opRec{id: sm.nextOp.Add(1)}
		lg.tr.setOp(op.id)
		id := lg.tr.begin("serve.request")
		t0 := time.Now()
		status, how, body, err := sm.get(cfg)
		op.ms = msSince(t0)
		lg.tr.end(id)
		// Refused and failed requests have no cache header; they count
		// as failed ops and stay out of the hit and miss latencies.
		switch how {
		case "hit":
			op.class = "hit"
		case "miss", "coalesced":
			op.class = "miss"
		default:
			op.class = "error"
		}
		if sm.mutate != nil {
			body = sm.mutate(body)
		}
		switch {
		case err != nil:
			op.failed = true
			lg.note(fmt.Sprintf("op %d: %v", op.id, err))
		case status != http.StatusOK:
			op.failed = true
			lg.note(fmt.Sprintf("op %d: status %d", op.id, status))
		case hot && (!bytes.Equal(body, sm.first[idx]) || sm.badHot[idx]):
			op.failed = true
			lg.note(fmt.Sprintf("op %d: hot config %d body differs from its first body, or that body disagrees with core.MeasureWith", op.id, idx))
		default:
			lg.okCount++
			lg.bytes[op.class] += float64(len(body))
			if !hot && k%verifyEvery == 0 {
				r, err := decodeRows(body)
				if err != nil {
					op.failed = true
					lg.note(fmt.Sprintf("op %d: %v", op.id, err))
					break
				}
				lg.verify = append(lg.verify, pendingCheck{op: len(lg.ops), cfg: cfg, rows: r})
			}
		}
		lg.ops = append(lg.ops, op)
	}
}

func (lg *clientLog) note(s string) {
	if len(lg.notes) < 8 {
		lg.notes = append(lg.notes, s)
	}
}

func countsOf(st *serve.Stats) serveCounts {
	return serveCounts{
		requests:  st.Requests.Load(),
		hits:      st.CacheHits.Load(),
		coalesced: st.Coalesced.Load(),
		shed:      st.Shed.Load(),
		timeouts:  st.Timeouts.Load(),
	}
}

func (sm *serveMix) detail(ph *phase) map[string]metric {
	hits, misses := ph.durations("hit"), ph.durations("miss")
	out := map[string]metric{
		"hit_ms_p50":  {median(hits), "ms", len(hits)},
		"miss_ms_p50": {median(misses), "ms", len(misses)},
		"req_per_s":   {ph.opsPerS, "1/s", len(ph.ops)},
	}
	// A tail percentile with too few samples beyond it is left out.
	if v, err := tailPercentile(hits, 99); err == nil {
		out["hit_ms_p99"] = metric{v, "ms", len(hits)}
	}
	if v, err := tailPercentile(misses, 90); err == nil {
		out["miss_ms_p90"] = metric{v, "ms", len(misses)}
	}
	return out
}

// layers reports the server counters of the traced phase, then times
// the hit path without a socket and the miss path's core run directly.
func (sm *serveMix) layers(p *probe, traced *phase) (map[string]metric, *phase) {
	out := map[string]metric{}
	lc := sm.last
	hits, misses := len(traced.durations("hit")), len(traced.durations("miss"))
	out["serve.hit_frac"] = metric{ratio(float64(lc.hits), float64(lc.requests)), "ratio", int(lc.requests)}
	out["serve.coalesced"] = metric{float64(lc.coalesced), "count", int(lc.requests)}
	out["serve.shed"] = metric{float64(lc.shed), "count", int(lc.requests)}
	out["serve.timeouts"] = metric{float64(lc.timeouts), "count", int(lc.requests)}
	out["serve.response_bytes.hit"] = metric{ratio(lc.hitBytes, float64(hits)), "bytes", hits}
	out["serve.response_bytes.miss"] = metric{ratio(lc.missBytes, float64(misses)), "bytes", misses}

	h := sm.srv.Handler()
	var handler []float64
	for i := 0; i < handlerReps; i++ {
		req := httptest.NewRequest(http.MethodGet, "/v1/simulate?"+sm.hot[i%hotConfigs].query(sm.n), nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		us := float64(time.Since(t0).Nanoseconds()) / 1e3
		if rec.Header().Get("X-Atmserve-Cache") == "hit" {
			handler = append(handler, us)
		}
	}
	out["serve.handler_hit_us"] = metric{median(handler), "us", len(handler)}

	var with, without []float64
	for k := 0; k < hotConfigs; k++ {
		cfg := sm.freshConfig(sm.fresh.Add(1))
		for _, tele := range []bool{k%2 == 0, k%2 == 1} {
			ms, err := runDirect(cfg, sm.n, tele)
			if err != nil {
				continue
			}
			if tele {
				with = append(with, ms)
			} else {
				without = append(without, ms)
			}
		}
	}
	run := median(with)
	out["core.run_ms"] = metric{run, "ms", len(with)}
	out["telemetry.overhead_frac"] = metric{ratio(run-median(without), median(without)), "ratio", len(without)}
	miss := median(traced.durations("miss"))
	out["serve.miss_overhead_ms"] = metric{miss - run, "ms", misses}
	out["scenario.generate_ms"] = generateMS(sm.n, sm.seed)
	return out, nil
}

// runDirect runs a miss config the way the production runner does:
// core.NewSystem, a telemetry recorder when tele is set, and one
// RunPeriod per period.
func runDirect(c serveConfig, n int, tele bool) (float64, error) {
	t0 := time.Now()
	p, err := platform.New(c.platform, c.seed)
	if err != nil {
		return 0, err
	}
	sys := core.NewSystem(p, c.core(n))
	if tele {
		sys.SetTelemetry(telemetry.NewRecorder(telemetry.DefaultCapacity))
	}
	for i := 0; i < serve.DefaultPeriods; i++ {
		sys.RunPeriod()
	}
	return msSince(t0), nil
}

func (sm *serveMix) close() {
	if sm.hs != nil {
		// Close stops the listener and every connection; Serve has
		// returned once served is closed.
		sm.hs.Close()
		<-sm.served
		sm.client.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		// Shutdown only fails when ctx expires; every run here is short.
		_ = sm.srv.Shutdown(ctx)
		sm.hs, sm.srv = nil, nil
	}
}
