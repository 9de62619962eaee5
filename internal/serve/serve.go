// Package serve is the simulation-serving subsystem behind cmd/atmserve:
// it turns the deterministic core into a multi-tenant HTTP backend.
//
// A request names a canonical simulation config (platform, N, seed,
// periods, pair source, detail, telemetry export). The server
// normalizes and hashes the config, then routes it through three
// layers, cheapest first:
//
//  1. a bounded LRU result cache — sound because runs are
//     bit-deterministic, so a cached response is byte-identical to a
//     fresh one;
//  2. a single-flight registry — K concurrent identical requests share
//     exactly one underlying execution;
//  3. an admission-controlled run queue — bounded depth, two lanes
//     (interactive small-N runs pop before batch sweeps), load shed
//     with 429 + Retry-After, per-request deadlines while waiting.
//
// Admitted runs execute on a small pool of executor goroutines; the
// simulations themselves fan out over the shared parexec host pool.
// On drain the server stops admitting, finishes everything in flight,
// and lets in-flight handlers answer before executors exit.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry/live"
)

// Options sizes the server. Zero values select the documented
// defaults.
type Options struct {
	// Runners is the number of executor goroutines pulling from the
	// run queue (default 2). Simulations additionally parallelize
	// internally over the shared parexec pool, so a handful of runners
	// saturates a host.
	Runners int
	// QueueDepth bounds the number of admitted-but-not-running jobs
	// (default 64); beyond it requests are shed with 429.
	QueueDepth int
	// CacheEntries bounds the LRU result cache (default 256).
	CacheEntries int
	// Timeout is the per-request deadline covering queue wait plus run
	// time (default 60s); expired waiters get 504 while the shared run
	// continues for any remaining waiters.
	Timeout time.Duration
	// InteractiveN is the largest aircraft count that rides the
	// priority lane (default 4000).
	InteractiveN int
	// MaxN rejects absurd aircraft counts at admission (default
	// 200000) so one request cannot exhaust host memory.
	MaxN int
	// Workers pins the host worker-pool size used by each run's
	// platform (0 = process default). Responses are byte-identical at
	// any setting; it exists so tests can prove exactly that.
	Workers int
	// Runner overrides the execution function; nil selects the
	// production runner driving the deterministic core. Tests inject
	// counting and blocking stubs here, before the executors start.
	Runner Runner
}

func (o Options) withDefaults() Options {
	if o.Runners <= 0 {
		o.Runners = 2
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheEntries == 0 {
		o.CacheEntries = 256
	}
	if o.Timeout <= 0 {
		o.Timeout = 60 * time.Second
	}
	if o.InteractiveN <= 0 {
		o.InteractiveN = 4000
	}
	if o.MaxN <= 0 {
		o.MaxN = 200000
	}
	return o
}

// Stats are the server's monotonic counters, served by /metrics.
type Stats struct {
	Requests    atomic.Int64 // simulate requests received
	BadRequests atomic.Int64 // rejected at validation (400)
	CacheHits   atomic.Int64 // served straight from the LRU
	Coalesced   atomic.Int64 // joined an existing flight
	Admitted    atomic.Int64 // new jobs accepted into the queue
	Shed        atomic.Int64 // rejected with 429 (queue full)
	Rejected    atomic.Int64 // rejected with 503 (draining)
	Timeouts    atomic.Int64 // waiters that hit their deadline (504)
	Runs        atomic.Int64 // simulations executed
	RunErrors   atomic.Int64 // executions that failed
	Abandoned   atomic.Int64 // jobs skipped because every waiter left
	NotModified atomic.Int64 // conditional requests answered 304
}

// errAbandoned marks a job whose waiters all departed before
// execution; it is never cached.
var errAbandoned = errors.New("serve: run abandoned, every waiter gone")

// Server is one serving instance. Create it with New, mount Handler,
// and stop it with BeginDrain + Shutdown.
type Server struct {
	opts    Options
	stats   Stats
	cache   *lruCache
	flights *flights
	q       *runQueue
	pub     *live.Publisher
	run     Runner

	draining atomic.Bool
	running  atomic.Int64 // jobs currently executing
	wg       sync.WaitGroup
	mux      *http.ServeMux
}

// New builds a server and starts its executor goroutines.
func New(opts Options) *Server {
	opts = opts.withDefaults()
	s := &Server{
		opts:    opts,
		cache:   newLRUCache(opts.CacheEntries),
		flights: newFlights(),
		q:       newRunQueue(opts.QueueDepth),
		pub:     &live.Publisher{},
	}
	s.run = opts.Runner
	if s.run == nil {
		s.run = newRunner(opts.Workers, s.pub)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/telemetry/", http.StripPrefix("/telemetry", live.Handler(s.pub)))
	s.mux.HandleFunc("/", s.handleIndex)
	for i := 0; i < opts.Runners; i++ {
		s.wg.Add(1)
		go s.executor()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats returns the server's counters for inspection.
func (s *Server) Stats() *Stats { return &s.stats }

// BeginDrain stops admission: readyz and new simulate runs answer 503,
// the queue refuses pushes, and executors exit once the backlog is
// drained. Cache hits keep being served. Idempotent.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.q.close()
}

// Shutdown drains and waits for every queued and running job to
// finish, bounded by ctx. It is the programmatic SIGTERM path: stop
// admitting, finish in-flight, then return.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: shutdown: %w", ctx.Err())
	}
}

// executor pulls admitted jobs until the queue is closed and empty.
func (s *Server) executor() {
	defer s.wg.Done()
	for {
		j, ok := s.q.pop()
		if !ok {
			return
		}
		s.execute(j)
	}
}

// execute runs one job and resolves its flight. The result is cached
// before the flight is deregistered, so a concurrent request always
// finds the run either in flight or in cache — never neither, which is
// what keeps "exactly one execution per config" airtight.
func (s *Server) execute(j *job) {
	s.running.Add(1)
	defer s.running.Add(-1)
	if s.flights.abandon(j) {
		// Everyone who asked for this run has timed out or hung up;
		// skip the work and let the next identical request re-admit.
		s.stats.Abandoned.Add(1)
		j.err = errAbandoned
		close(j.done)
		return
	}
	res, err := s.run(j.cfg)
	s.stats.Runs.Add(1)
	if err != nil {
		s.stats.RunErrors.Add(1)
		j.err = err
		s.flights.remove(j.key)
		close(j.done)
		return
	}
	j.res = res
	s.cache.put(j.key, res)
	s.flights.remove(j.key)
	close(j.done)
}

// handleSimulate is the serving path described in the package comment.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	s.stats.Requests.Add(1)
	req, err := parseRequest(r)
	if err != nil {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	cfg, err := req.Canonicalize()
	if err != nil {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if cfg.N > s.opts.MaxN {
		s.stats.BadRequests.Add(1)
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("n=%d exceeds this server's limit of %d aircraft", cfg.N, s.opts.MaxN))
		return
	}
	key := cfg.Key()

	// Fast path: the answer already exists.
	if res, ok := s.cache.get(key); ok {
		s.stats.CacheHits.Add(1)
		s.writeResult(w, r, res, "hit")
		return
	}

	// Slow path: join the in-flight run or admit a new one.
	j, created, err := s.admit(cfg, key)
	switch {
	case errors.Is(err, ErrQueueFull):
		s.stats.Shed.Add(1)
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		writeError(w, http.StatusTooManyRequests, "run queue full, retry later")
		return
	case errors.Is(err, ErrDraining):
		s.stats.Rejected.Add(1)
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if created {
		if j.fromCache {
			s.stats.CacheHits.Add(1)
			s.writeResult(w, r, j.res, "hit")
			return
		}
		s.stats.Admitted.Add(1)
	} else {
		s.stats.Coalesced.Add(1)
	}

	defer j.waiters.Add(-1) // admit counted this request
	ctx, cancel := context.WithTimeout(r.Context(), s.opts.Timeout)
	defer cancel()
	select {
	case <-j.done:
		if j.err != nil {
			writeError(w, http.StatusInternalServerError, j.err.Error())
			return
		}
		how := "miss"
		if !created {
			how = "coalesced"
		}
		s.writeResult(w, r, j.res, how)
	case <-ctx.Done():
		s.stats.Timeouts.Add(1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded waiting for run")
	}
}

// admit returns the job that answers key: the run in flight, a
// completed job made from a cache entry, or a new job pushed onto the
// run queue, with created reporting whether the caller leads it. On an
// in-flight or new job the caller is already counted as a waiter — a
// new job's leader before the push, a joiner under the registry lock —
// so an executor can never find a job that a live request waits on
// with no waiters and abandon it. The caller must drop its count when
// it stops waiting.
func (s *Server) admit(cfg RunConfig, key string) (j *job, created bool, err error) {
	return s.flights.join(key, func() (*job, bool, error) {
		// Re-check under the registry lock: an executor may have cached
		// this key between the caller's miss and now (it caches before
		// it deregisters, so this order cannot lose a result).
		if res, ok := s.cache.get(key); ok {
			return completedJob(res), false, nil
		}
		if s.draining.Load() {
			return nil, false, ErrDraining
		}
		nj := newJob(cfg, key, cfg.N <= s.opts.InteractiveN)
		nj.waiters.Add(1)
		if err := s.q.push(nj); err != nil {
			return nil, false, err
		}
		return nj, true, nil
	})
}

// retryAfterSeconds estimates when shedding will stop: roughly the
// backlog divided across the executors, clamped to [1, 30].
func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.q.depth()/s.opts.Runners
	if sec > 30 {
		sec = 30
	}
	return sec
}

// writeResult serves an immutable result. The body bytes are shared
// verbatim across hit, miss and coalesced paths — byte identity is
// structural, not re-derived per response.
func (s *Server) writeResult(w http.ResponseWriter, r *http.Request, res *Result, how string) {
	if match := r.Header.Get("If-None-Match"); match != "" && match == res.ETag {
		s.stats.NotModified.Add(1)
		w.Header().Set("Etag", res.ETag)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json; charset=utf-8")
	h.Set("Etag", res.ETag)
	h.Set("X-Atmserve-Cache", how)
	h.Set("Content-Length", strconv.Itoa(len(res.Body)))
	w.WriteHeader(http.StatusOK)
	w.Write(res.Body)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	body, _ := json.Marshal(map[string]string{"error": msg})
	w.Write(append(body, '\n'))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// metricsSnapshot is the /metrics document; fields marshal in
// declaration order, so scrapes are stable.
type metricsSnapshot struct {
	Requests     int64 `json:"requests"`
	BadRequests  int64 `json:"bad_requests"`
	CacheHits    int64 `json:"cache_hits"`
	Coalesced    int64 `json:"coalesced"`
	Admitted     int64 `json:"admitted"`
	Shed         int64 `json:"shed"`
	Rejected     int64 `json:"rejected"`
	Timeouts     int64 `json:"timeouts"`
	Runs         int64 `json:"runs"`
	RunErrors    int64 `json:"run_errors"`
	Abandoned    int64 `json:"abandoned"`
	NotModified  int64 `json:"not_modified"`
	QueueDepth   int   `json:"queue_depth"`
	Running      int64 `json:"running"`
	Inflight     int   `json:"inflight"`
	CacheEntries int   `json:"cache_entries"`
	Draining     bool  `json:"draining"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	snap := metricsSnapshot{
		Requests:     s.stats.Requests.Load(),
		BadRequests:  s.stats.BadRequests.Load(),
		CacheHits:    s.stats.CacheHits.Load(),
		Coalesced:    s.stats.Coalesced.Load(),
		Admitted:     s.stats.Admitted.Load(),
		Shed:         s.stats.Shed.Load(),
		Rejected:     s.stats.Rejected.Load(),
		Timeouts:     s.stats.Timeouts.Load(),
		Runs:         s.stats.Runs.Load(),
		RunErrors:    s.stats.RunErrors.Load(),
		Abandoned:    s.stats.Abandoned.Load(),
		NotModified:  s.stats.NotModified.Load(),
		QueueDepth:   s.q.depth(),
		Running:      s.running.Load(),
		Inflight:     s.flights.inflight(),
		CacheEntries: s.cache.entries(),
		Draining:     s.draining.Load(),
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	body, _ := json.Marshal(map[string]metricsSnapshot{"atmserve": snap})
	w.Write(append(body, '\n'))
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `atmserve — deterministic ATM simulation service

  GET|POST /v1/simulate   run a simulation (cached, deduped, admission-controlled)
      params: platform (required), n (required), seed, periods,
              pairsource, detail (task|block), telemetry (none|jsonl|chrome)
  GET /healthz            liveness
  GET /readyz             readiness (503 while draining)
  GET /metrics            serving counters as JSON
  GET /telemetry/         last completed run's telemetry aggregates

Identical configs return byte-identical responses whether computed,
cached, or coalesced onto another request's run.
`)
}
