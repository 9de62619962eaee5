package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// testConfig is the small real-run config the determinism tests use:
// one major cycle at 200 aircraft finishes in well under a second.
const testQuery = "/v1/simulate?platform=titanx&n=200&periods=16&seed=2018"

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, body
}

// TestCachedAndFreshResponsesByteIdentical is acceptance criterion 1:
// a cache hit serves the exact bytes the fresh run produced, and an
// entirely separate server (fresh process state) produces those same
// bytes again.
func TestCachedAndFreshResponsesByteIdentical(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp1, body1 := get(t, ts.URL+testQuery)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("fresh run: status %d, body %s", resp1.StatusCode, body1)
	}
	if how := resp1.Header.Get("X-Atmserve-Cache"); how != "miss" {
		t.Errorf("fresh run: X-Atmserve-Cache = %q, want miss", how)
	}
	resp2, body2 := get(t, ts.URL+testQuery)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached run: status %d", resp2.StatusCode)
	}
	if how := resp2.Header.Get("X-Atmserve-Cache"); how != "hit" {
		t.Errorf("cached run: X-Atmserve-Cache = %q, want hit", how)
	}
	if !bytes.Equal(body1, body2) {
		t.Errorf("cache hit body differs from fresh body:\nfresh:  %s\ncached: %s", body1, body2)
	}
	if e1, e2 := resp1.Header.Get("Etag"), resp2.Header.Get("Etag"); e1 == "" || e1 != e2 {
		t.Errorf("ETags differ or empty: %q vs %q", e1, e2)
	}

	// A brand-new server must reproduce the same bytes from scratch.
	_, ts2 := newTestServer(t, Options{})
	resp3, body3 := get(t, ts2.URL+testQuery)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("second server: status %d", resp3.StatusCode)
	}
	if !bytes.Equal(body1, body3) {
		t.Error("two independent servers produced different bytes for the same config")
	}
}

// TestByteIdenticalAcrossWorkers is the -workers half of the
// acceptance criterion: responses are byte-identical at any host
// worker count, including with a telemetry export embedded.
func TestByteIdenticalAcrossWorkers(t *testing.T) {
	query := testQuery + "&pairsource=grid&telemetry=jsonl"
	var bodies [][]byte
	for _, workers := range []int{1, 3} {
		_, ts := newTestServer(t, Options{Workers: workers})
		resp, body := get(t, ts.URL+query)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: status %d, body %s", workers, resp.StatusCode, body)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("responses differ between -workers 1 and -workers 3")
	}
	if !strings.Contains(string(bodies[0]), "telemetry_jsonl") {
		t.Error("telemetry=jsonl response missing telemetry_jsonl field")
	}
}

// TestSingleFlight is acceptance criterion 2: K concurrent identical
// requests perform exactly one underlying run and all see its bytes.
func TestSingleFlight(t *testing.T) {
	var runs atomic.Int64
	base := newRunner(0, nil)
	counting := func(cfg RunConfig) (*Result, error) {
		runs.Add(1)
		time.Sleep(50 * time.Millisecond) // hold the flight open so everyone piles on
		return base(cfg)
	}
	s, ts := newTestServer(t, Options{Runners: 2, QueueDepth: 16, Runner: counting})

	const k = 8
	var wg sync.WaitGroup
	bodies := make([][]byte, k)
	codes := make([]int, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + testQuery)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			codes[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Errorf("%d concurrent identical requests ran %d simulations, want exactly 1", k, got)
	}
	for i := 0; i < k; i++ {
		if codes[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, codes[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d body differs from request 0", i)
		}
	}
	if coalesced := s.Stats().Coalesced.Load(); coalesced != k-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, k-1)
	}
}

// blockingRunner returns a stub runner that signals entry on started
// and blocks until release is closed.
func blockingRunner(started chan<- string, release <-chan struct{}) Runner {
	return func(cfg RunConfig) (*Result, error) {
		started <- cfg.Key()
		<-release
		body := []byte(fmt.Sprintf(`{"stub":%q}`, cfg.Key()))
		return &Result{Body: body, ETag: `"stub"`}, nil
	}
}

// TestQueueOverflowSheds is acceptance criterion 3a: once the bounded
// queue is full, further requests get 429 with a Retry-After hint.
func TestQueueOverflowSheds(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Runners: 1, QueueDepth: 1, Timeout: 10 * time.Second,
		Runner: blockingRunner(started, release),
	})
	defer func() {
		select {
		case <-release:
		default:
			close(release)
		}
	}()

	// Distinct configs so single-flight cannot coalesce them.
	urlFor := func(n int) string {
		return fmt.Sprintf("%s/v1/simulate?platform=titanx&n=%d&periods=16", ts.URL, n)
	}
	done1 := make(chan int, 1)
	go func() {
		resp, _ := http.Get(urlFor(100))
		resp.Body.Close()
		done1 <- resp.StatusCode
	}()
	<-started // run 1 occupies the single executor

	done2 := make(chan int, 1)
	go func() {
		resp, _ := http.Get(urlFor(101))
		resp.Body.Close()
		done2 <- resp.StatusCode
	}()
	// Wait until run 2 is actually queued (depth 1 = full).
	deadline := time.Now().Add(5 * time.Second)
	for s.q.depth() < 1 {
		if time.Now().After(deadline) {
			t.Fatal("second request never reached the queue")
		}
		time.Sleep(time.Millisecond)
	}

	resp3, body3 := get(t, urlFor(102))
	if resp3.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, body %s, want 429", resp3.StatusCode, body3)
	}
	if ra := resp3.Header.Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}
	if shed := s.Stats().Shed.Load(); shed != 1 {
		t.Errorf("shed = %d, want 1", shed)
	}

	close(release)
	if code := <-done1; code != http.StatusOK {
		t.Errorf("run 1: status %d", code)
	}
	if code := <-done2; code != http.StatusOK {
		t.Errorf("run 2: status %d", code)
	}
}

// TestDrainFinishesInFlight is acceptance criterion 3b: a draining
// server refuses new work with 503 but answers everything already
// admitted.
func TestDrainFinishesInFlight(t *testing.T) {
	started := make(chan string, 4)
	release := make(chan struct{})
	s, ts := newTestServer(t, Options{
		Runners: 1, QueueDepth: 8, Timeout: 10 * time.Second,
		Runner: blockingRunner(started, release),
	})

	inflight := make(chan struct {
		code int
		body []byte
	}, 1)
	go func() {
		resp, _ := http.Get(ts.URL + testQuery)
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		inflight <- struct {
			code int
			body []byte
		}{resp.StatusCode, body}
	}()
	<-started // the run is executing

	s.BeginDrain()

	respReady, _ := get(t, ts.URL+"/readyz")
	if respReady.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", respReady.StatusCode)
	}
	respHealth, _ := get(t, ts.URL+"/healthz")
	if respHealth.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining: status %d, want 200", respHealth.StatusCode)
	}
	respNew, _ := get(t, ts.URL+"/v1/simulate?platform=staran&n=300&periods=16")
	if respNew.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("new request while draining: status %d, want 503", respNew.StatusCode)
	}

	close(release)
	got := <-inflight
	if got.code != http.StatusOK {
		t.Errorf("in-flight request after drain: status %d, want 200", got.code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("drained server did not shut down: %v", err)
	}
	// Cache hits are still served after drain.
	respHit, _ := get(t, ts.URL+testQuery)
	if respHit.StatusCode != http.StatusOK || respHit.Header.Get("X-Atmserve-Cache") != "hit" {
		t.Errorf("cache hit on drained server: status %d cache %q",
			respHit.StatusCode, respHit.Header.Get("X-Atmserve-Cache"))
	}
}

func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxN: 50000})
	cases := []struct {
		name, query string
	}{
		{"missing platform", "/v1/simulate?n=100"},
		{"unknown platform", "/v1/simulate?platform=cray1&n=100"},
		{"zero n", "/v1/simulate?platform=titanx&n=0"},
		{"negative n", "/v1/simulate?platform=titanx&n=-5"},
		{"negative periods", "/v1/simulate?platform=titanx&n=100&periods=-1"},
		{"bad n syntax", "/v1/simulate?platform=titanx&n=lots"},
		{"unknown pair source", "/v1/simulate?platform=titanx&n=100&pairsource=octree"},
		{"unknown detail", "/v1/simulate?platform=titanx&n=100&detail=verbose"},
		{"unknown telemetry", "/v1/simulate?platform=titanx&n=100&telemetry=xml"},
		{"over max n", "/v1/simulate?platform=titanx&n=60000"},
		{"unknown scenario family", "/v1/simulate?platform=titanx&n=100&scenario=warp"},
		{"bad scenario value", "/v1/simulate?platform=titanx&n=100&scenario=circle:radius=-4"},
		{"malformed scenario", "/v1/simulate?platform=titanx&n=100&scenario=circle:radius"},
		{"scenario over capacity", "/v1/simulate?platform=titanx&n=30000&scenario=streams"},
	}
	for _, tc := range cases {
		resp, body := get(t, ts.URL+tc.query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, resp.StatusCode, body)
		}
		var e map[string]string
		if err := json.Unmarshal(body, &e); err != nil || e["error"] == "" {
			t.Errorf("%s: body %q is not an {\"error\": ...} document", tc.name, body)
		}
	}
}

func TestPostJSONAndQueryAgree(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, qBody := get(t, ts.URL+testQuery)
	resp, err := http.Post(ts.URL+"/v1/simulate", "application/json",
		strings.NewReader(`{"platform":"titanx","n":200,"periods":16,"seed":2018}`))
	if err != nil {
		t.Fatal(err)
	}
	pBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST: status %d, body %s", resp.StatusCode, pBody)
	}
	if !bytes.Equal(qBody, pBody) {
		t.Error("GET query and POST JSON for the same config returned different bytes")
	}
}

func TestConditionalRequest(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp1, _ := get(t, ts.URL+testQuery)
	etag := resp1.Header.Get("Etag")
	if etag == "" {
		t.Fatal("no ETag on response")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+testQuery, nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Errorf("If-None-Match with matching ETag: status %d, want 304", resp2.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	get(t, ts.URL+testQuery)
	get(t, ts.URL+testQuery)
	resp, body := get(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: status %d", resp.StatusCode)
	}
	var doc map[string]metricsSnapshot
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("metrics is not JSON: %v (%s)", err, body)
	}
	m := doc["atmserve"]
	if m.Requests != 2 || m.CacheHits != 1 || m.Runs != 1 || m.CacheEntries != 1 {
		t.Errorf("metrics after miss+hit: %+v", m)
	}

	// The live telemetry endpoint carries the completed run's aggregates.
	respLive, liveBody := get(t, ts.URL+"/telemetry/")
	if respLive.StatusCode != http.StatusOK {
		t.Fatalf("telemetry/: status %d", respLive.StatusCode)
	}
	if !strings.Contains(string(liveBody), "serve.run") {
		t.Errorf("live telemetry missing serve.run span: %s", liveBody)
	}
}

func TestResponseShape(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	_, body := get(t, ts.URL+testQuery)
	var resp Response
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("response is not a Response document: %v", err)
	}
	if resp.Config.Platform != "titanx" || resp.Config.N != 200 || resp.Config.Seed != 2018 ||
		resp.Config.Periods != 16 || resp.Config.Detail != "task" {
		t.Errorf("canonical config wrong: %+v", resp.Config)
	}
	if len(resp.Rows) != 2 || resp.Rows[0].Task != "task1:track+correlate" || resp.Rows[1].Task != "task2+3:detect+resolve" {
		t.Errorf("rows wrong: %+v", resp.Rows)
	}
	if resp.Rows[0].Runs != 16 || resp.Rows[1].Runs != 1 {
		t.Errorf("run counts wrong for one major cycle: %+v", resp.Rows)
	}
	if resp.Rows[0].MeanNs <= 0 || resp.Periods != 16 || resp.Key == "" {
		t.Errorf("response incomplete: %+v", resp)
	}
	if !resp.DeadlinesMet {
		t.Error("titanx at 200 aircraft should meet every deadline")
	}
}

func TestCanonicalizeDefaultsAndKey(t *testing.T) {
	a, err := RunRequest{Platform: "titanx", N: 4000}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunRequest{Platform: "titanx", N: 4000, Seed: 2018, Periods: 16, Detail: "task", Telemetry: "none"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if a.Key() != b.Key() {
		t.Errorf("spelled-out defaults changed the key: %q vs %q", a.Key(), b.Key())
	}
	if a.Hash() != b.Hash() || a.Hash() == "" {
		t.Errorf("hashes differ: %q vs %q", a.Hash(), b.Hash())
	}
	c, err := RunRequest{Platform: "titanx", N: 4000, Seed: 7}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if c.Key() == a.Key() {
		t.Error("different seed produced the same key")
	}
	// The GET parser ignores parameters it does not know, such as the
	// coherent and parshard the benchmark's serve-mix clients send.
	q, err := requestFromQuery(url.Values{"platform": {"titanx"}, "n": {"4000"}, "coherent": {"true"}, "parshard": {"true"}})
	if err != nil {
		t.Fatal(err)
	}
	d, err := q.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if d.Key() != a.Key() {
		t.Errorf("unknown query parameters changed the key: %q vs %q", d.Key(), a.Key())
	}
}

// TestScenarioCanonicalKey: differently spelled specs of the same
// workload share one cache identity; a different workload does not;
// and the scenario is part of the key at all (uniform vs structured).
func TestScenarioCanonicalKey(t *testing.T) {
	short, err := RunRequest{Platform: "titanx", N: 400, Scenario: "circle"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunRequest{Platform: "titanx", N: 400, Scenario: "circle:radius=100"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if short.Key() != long.Key() {
		t.Errorf("default-spelled and explicit specs split the cache: %q vs %q", short.Key(), long.Key())
	}
	other, err := RunRequest{Platform: "titanx", N: 400, Scenario: "circle:radius=50"}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if other.Key() == short.Key() {
		t.Error("different radius produced the same key")
	}
	uniform, err := RunRequest{Platform: "titanx", N: 400}.Canonicalize()
	if err != nil {
		t.Fatal(err)
	}
	if uniform.Key() == short.Key() {
		t.Error("scenario absent from the cache key")
	}
}

// TestScenarioRunServed: a structured-traffic run completes over HTTP
// and echoes the canonical spec in the response config.
func TestScenarioRunServed(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := get(t, ts.URL+"/v1/simulate?platform=titanx&n=200&scenario=circle:radius=40")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %s", resp.StatusCode, body)
	}
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(r.Config.Scenario, "circle:") || !strings.Contains(r.Config.Scenario, "radius=40") {
		t.Errorf("response config scenario %q, want the canonical circle spec", r.Config.Scenario)
	}
}
