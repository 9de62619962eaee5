// Command atmsim runs the ATM simulation on one modeled platform and
// reports per-task timings and the deadline record — the interactive
// face of the reproduction.
//
// Usage:
//
//	atmsim -platform titanx -n 8000 -cycles 4
//	atmsim -platform xeon16 -n 16000 -cycles 2 -v
//	atmsim -platform titanx -telemetry -events run.jsonl -chrome run.trace.json
//	atmsim -platform staran -telemetry -http localhost:6060
//
// Platforms: 9800gt, gtx880m, titanx, staran, clearspeed, xeon16.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/broadphase"
	"repro/internal/core"
	"repro/internal/parexec"
	"repro/internal/platform"
	"repro/internal/replay"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/telemetry/live"
	"repro/internal/viz"
)

func main() {
	var (
		platformName = flag.String("platform", platform.TitanXPascal,
			"platform to simulate ("+strings.Join(append(platform.Names(), platform.ExtensionNames()...), ", ")+")")
		n            = flag.Int("n", 4000, "number of aircraft")
		cycles       = flag.Int("cycles", 2, "number of 8-second major cycles")
		seed         = flag.Uint64("seed", 2018, "random seed (flights, radar noise, MIMD jitter)")
		noise        = flag.Float64("noise", 0, "radar noise amplitude in nm (0 = default 0.25)")
		scenarioSpec = flag.String("scenario", "",
			"scenario family spec, e.g. circle:radius=50,speed=250 (families: "+scenario.FamilyNames()+"; empty = the paper's uniform setup)")
		pairSource = flag.String("pairsource", "",
			"broad-phase pair source for collision detection ("+strings.Join(broadphase.Names(), ", ")+"; empty = all-pairs)")
		verbose = flag.Bool("v", false, "print per-period detail")
		watch   = flag.Bool("watch", false, "render an ASCII plan view of the airfield after each major cycle")
		record  = flag.String("record", "", "record the run as JSON lines to this file")
		workers = flag.Int("workers", 0,
			"host worker goroutines for task execution (0 = GOMAXPROCS); results are identical at any count")
		useTelemetry = flag.Bool("telemetry", false, "record modeled-time telemetry (implied by -events/-chrome/-metrics/-http)")
		events       = flag.String("events", "", "write telemetry events as JSON lines to this file")
		chrome       = flag.String("chrome", "", "write telemetry as a Chrome trace_event file (load in chrome://tracing or Perfetto)")
		metrics      = flag.String("metrics", "", "write per-period telemetry metrics as CSV to this file")
		httpAddr     = flag.String("http", "", "serve live telemetry and expvar on this address while the run lasts")
		detail       = flag.String("detail", "task", "telemetry detail level: task, block")
		capacity     = flag.Int("telemetry-cap", telemetry.DefaultCapacity, "telemetry ring-buffer capacity in events")
	)
	flag.Parse()
	// Pre-flight validation shared with atmbench and atmserve; bad
	// configurations are usage errors (exit 2), not runtime failures.
	params := core.RunParams{
		Platform:   *platformName,
		N:          *n,
		Periods:    *cycles * sched.PeriodsPerMajorCycle,
		Workers:    *workers,
		PairSource: *pairSource,
		Scenario:   *scenarioSpec,
	}
	if err := params.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		os.Exit(2)
	}
	parexec.SetDefaultWorkers(*workers)
	tc := telemetryConfig{
		enabled:  *useTelemetry || *events != "" || *chrome != "" || *metrics != "" || *httpAddr != "",
		events:   *events,
		chrome:   *chrome,
		metrics:  *metrics,
		httpAddr: *httpAddr,
		detail:   *detail,
		capacity: *capacity,
	}
	if err := run(*platformName, *n, *cycles, *seed, *noise, *scenarioSpec, *pairSource, *verbose, *watch, *record, tc); err != nil {
		fmt.Fprintln(os.Stderr, "atmsim:", err)
		os.Exit(1)
	}
}

// telemetryConfig carries the observability flags.
type telemetryConfig struct {
	enabled                           bool
	events, chrome, metrics, httpAddr string
	detail                            string
	capacity                          int
}

// attach builds the recorder, live publisher and telemetry HTTP server
// when telemetry is on. The caller owns shutting down the returned
// server (see shutdownTelemetryHTTP).
func (tc telemetryConfig) attach(sys *core.System) (*telemetry.Recorder, *live.Publisher, *http.Server, error) {
	if !tc.enabled {
		return nil, nil, nil, nil
	}
	rec := telemetry.NewRecorder(tc.capacity)
	switch tc.detail {
	case "", "task":
		rec.SetDetail(telemetry.DetailTask)
	case "block":
		rec.SetDetail(telemetry.DetailBlock)
	default:
		return nil, nil, nil, fmt.Errorf("unknown telemetry detail %q (have task, block)", tc.detail)
	}
	sys.SetTelemetry(rec)
	var pub *live.Publisher
	var srv *http.Server
	if tc.httpAddr != "" {
		pub = &live.Publisher{}
		srv = &http.Server{Addr: tc.httpAddr, Handler: live.Handler(pub)}
		go func() {
			if err := srv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				fmt.Fprintln(os.Stderr, "atmsim: telemetry http:", err)
			}
		}()
		fmt.Printf("telemetry: serving live metrics on http://%s/ (expvar at /debug/vars)\n", tc.httpAddr)
	}
	return rec, pub, srv, nil
}

// shutdownTelemetryHTTP closes the -http endpoint gracefully: in-flight
// scrapes finish, then the listener closes, instead of the server being
// torn down mid-response at process exit.
func shutdownTelemetryHTTP(srv *http.Server) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "atmsim: telemetry http shutdown:", err)
	}
}

// flush writes the configured telemetry outputs at the end of the run.
func (tc telemetryConfig) flush(rec *telemetry.Recorder) error {
	if rec == nil {
		return nil
	}
	if dropped := rec.Dropped(); dropped > 0 {
		fmt.Fprintf(os.Stderr, "atmsim: telemetry ring overflowed, oldest %d of %d events dropped (raise -telemetry-cap); aggregates are complete\n",
			dropped, rec.Total())
	}
	write := func(path string, emit func(*os.File) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := emit(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("telemetry: wrote %s\n", path)
		return nil
	}
	if err := write(tc.events, func(f *os.File) error { return telemetry.WriteJSONL(f, rec) }); err != nil {
		return err
	}
	if err := write(tc.chrome, func(f *os.File) error { return telemetry.WriteChromeTrace(f, rec) }); err != nil {
		return err
	}
	return write(tc.metrics, func(f *os.File) error { return telemetry.PeriodDataset(rec, "atmsim").WriteCSV(f) })
}

func run(platformName string, n, cycles int, seed uint64, noise float64, scenarioSpec, pairSource string, verbose, watch bool, record string, tc telemetryConfig) error {
	// Flag validation already happened in main via core.RunParams.
	p, err := platform.New(platformName, seed)
	if err != nil {
		return err
	}
	sys := core.NewSystem(p, core.Config{N: n, Seed: seed, Noise: noise, Scenario: scenarioSpec, PairSource: pairSource})
	rec, pub, telemetrySrv, err := tc.attach(sys)
	if err != nil {
		return err
	}
	defer shutdownTelemetryHTTP(telemetrySrv)
	// SIGINT/SIGTERM stop the simulation at the next period boundary so
	// telemetry flushes and the -http endpoint shuts down gracefully
	// instead of the process dying mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return err
		}
		defer f.Close()
		rec := replay.NewRecorder(f)
		sys.SetRecorder(rec)
		defer rec.Flush()
	}

	fmt.Printf("platform : %s (deterministic: %v)\n", p.Name(), p.Deterministic())
	if scenarioSpec != "" {
		spec, _ := scenario.ParseSpec(scenarioSpec)
		fmt.Printf("scenario : %s\n", spec.String())
	}
	if pairSource != "" {
		fmt.Printf("pruning  : broad-phase pair source %q\n", pairSource)
	}
	fmt.Printf("aircraft : %d   major cycles: %d   period: %v\n\n", n, cycles, sched.PeriodDur)

	start := time.Now()
	// pprof labels tag host CPU samples with the modeled platform, so a
	// host profile of the simulator can be cut per platform under study.
	var runErr error
	interrupted := false
	pprof.Do(ctx, pprof.Labels("atm.platform", p.Name(), "atm.n", fmt.Sprint(n)), func(ctx context.Context) {
		for c := 0; c < cycles && !interrupted; c++ {
			for period := 0; period < sched.PeriodsPerMajorCycle; period++ {
				if ctx.Err() != nil {
					interrupted = true
					break
				}
				sys.RunPeriod()
				if pub != nil {
					pub.Update(rec)
				}
				if verbose {
					st := sys.Stats()
					fmt.Printf("  cycle %d period %2d: load so far max=%v misses=%d\n",
						c, period, st.MaxLoad, st.PeriodMisses)
				}
			}
			if watch && !interrupted {
				fmt.Printf("\nafter major cycle %d:\n", c+1)
				if err := viz.Render(os.Stdout, sys.World, viz.Options{}); err != nil {
					runErr = err
					return
				}
			}
		}
	})
	if runErr != nil {
		return runErr
	}
	host := time.Since(start)
	if interrupted {
		fmt.Println("\ninterrupted — reporting the periods completed so far")
	}

	st := sys.Stats()
	t1 := st.Task(core.Task1)
	t23 := st.Task(core.Task23)

	fmt.Printf("Task 1  (every period):  runs=%-4d mean=%-12v max=%-12v misses=%d\n",
		t1.Runs, t1.Mean(), t1.Max, t1.Misses)
	fmt.Printf("Task 2+3 (per cycle):    runs=%-4d mean=%-12v max=%-12v misses=%d skips=%d\n",
		t23.Runs, t23.Mean(), t23.Max, t23.Misses, t23.Skips)
	fmt.Printf("\nperiods=%d  missed periods=%d (%.1f%%)  max period load=%v / %v budget\n",
		st.Periods, st.PeriodMisses, 100*st.MissRate(), st.MaxLoad, sched.PeriodDur)
	fmt.Printf("virtual schedule time=%v  host wall time=%v\n", st.VirtualElapsed, host.Round(time.Millisecond))
	if err := tc.flush(rec); err != nil {
		return err
	}
	if st.PeriodMisses == 0 {
		fmt.Println("\nresult: every deadline met — SIMD-like real-time behaviour")
	} else {
		fmt.Println("\nresult: DEADLINES MISSED — not suitable for hard real-time at this scale")
	}
	return nil
}
