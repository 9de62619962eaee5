// Package core ties the reproduction together: it owns the simulated
// airfield, generates radar every period, drives the platform under
// test through the paper's 16-period major cycle, and accounts
// deadlines. This is the programmatic entry point used by the command
// line tools, the examples and the benchmark harness.
package core

import (
	"fmt"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/platform"
	"repro/internal/radar"
	"repro/internal/replay"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/sched"
	"repro/internal/telemetry"
)

// Task names used in scheduler statistics.
const (
	// Task1 is tracking and correlation (every period).
	Task1 = "task1:track+correlate"
	// Task23 is the fused collision detection + resolution (every major
	// cycle, in the 16th period).
	Task23 = "task2+3:detect+resolve"
)

// Config parameterizes one simulation run.
type Config struct {
	// N is the number of aircraft.
	N int
	// Seed fixes flight setup, radar noise and MIMD jitter.
	Seed uint64
	// Noise is the radar measurement error amplitude in nautical miles;
	// 0 means radar.DefaultNoise.
	Noise float64
	// PeriodDur overrides the half-second period (tests only); 0 means
	// the paper's 500 ms.
	PeriodDur time.Duration
	// Scenario selects the traffic workload as a scenario spec string
	// ("circle:radius=80", "streams", ...); the empty string keeps the
	// paper's uniform random setup, bit-exactly. Invalid specs panic;
	// front ends reject them first through RunParams.Validate.
	Scenario string
	// PairSource selects a broadphase pair source ("brute", "sweep")
	// for platforms that support pruned Tasks 2-3 scans; the
	// empty string keeps the paper's all-pairs kernels. Unknown names
	// panic.
	PairSource string
	// Incremental is ignored: the "sweep" source keeps no index across
	// periods.
	//
	// Deprecated: the sweep has one behaviour; leave the field unset.
	Incremental bool
	// ParShard is ignored: the "sweep" source always builds its
	// candidate table on the worker pool and feeds the batched kernel.
	//
	// Deprecated: the sweep has one behaviour; leave the field unset.
	ParShard bool
}

func (c Config) noise() float64 {
	if c.Noise == 0 {
		return radar.DefaultNoise
	}
	return c.Noise
}

// System is one running ATM simulation bound to a platform.
type System struct {
	Platform platform.Platform
	World    *airspace.World

	cfg                         Config
	radarRng                    *rng.Rand
	tracker                     *sched.Tracker
	period                      int // global period counter
	recorder                    *replay.Recorder
	rec                         *telemetry.Recorder
	pairSrc                     broadphase.PairSource  // as installed on the platform
	counted                     *broadphase.Counted    // non-nil while telemetry is attached
	tableSrc                    broadphase.TableSource // non-nil when the source builds a candidate table
	schedObs                    telemetry.SchedObserver
	idBPQueries, idBPCandidates telemetry.NameID
	idBPSegments, idKBatches    telemetry.NameID
}

// SetRecorder attaches a replay recorder; every subsequent period is
// logged (nil detaches). The caller owns flushing.
func (s *System) SetRecorder(r *replay.Recorder) { s.recorder = r }

// SetTelemetry attaches a telemetry recorder to the whole system (nil
// detaches): the scheduler reports period/task spans and deadline
// counters, the platform reports per-phase kernel spans and task
// statistics, and any configured broadphase source is wrapped so
// candidate-pair volumes appear as counters. Telemetry never perturbs
// the simulation — worlds and modeled durations are bit-identical with
// and without a recorder attached.
func (s *System) SetTelemetry(rec *telemetry.Recorder) {
	s.rec = rec
	if rec == nil {
		s.tracker.Observer = nil
		if inst, ok := s.Platform.(platform.Instrumented); ok {
			inst.SetTelemetry(nil)
		}
		if s.counted != nil {
			if ps, ok := s.Platform.(platform.PairSourced); ok {
				ps.SetPairSource(s.pairSrc)
			}
			s.counted = nil
		}
		return
	}
	s.schedObs = telemetry.SchedObserver{R: rec}
	s.tracker.Observer = &s.schedObs
	if inst, ok := s.Platform.(platform.Instrumented); ok {
		inst.SetTelemetry(rec)
	}
	if s.pairSrc != nil {
		if ps, ok := s.Platform.(platform.PairSourced); ok {
			s.counted = broadphase.NewCounted(s.pairSrc)
			ps.SetPairSource(s.counted)
			s.idBPQueries = rec.Intern(telemetry.NameBroadphaseQueries)
			s.idBPCandidates = rec.Intern(telemetry.NameBroadphaseCandidates)
			if s.tableSrc != nil {
				s.idBPSegments = rec.Intern(telemetry.NameBroadphaseSegments)
				s.idKBatches = rec.Intern(telemetry.NameKernelBatches)
			}
		}
	}
	rec.Meta("platform", s.Platform.Name())
	if s.cfg.Scenario != "" {
		rec.Meta("scenario", s.cfg.Scenario)
	}
	if s.cfg.PairSource != "" {
		rec.Meta("pairsource", s.cfg.PairSource)
	}
	rec.Meta("n", fmt.Sprintf("%d", s.World.N()))
	rec.Meta("seed", fmt.Sprintf("%d", s.cfg.Seed))
}

// Telemetry returns the attached recorder (nil if none).
func (s *System) Telemetry() *telemetry.Recorder { return s.rec }

// NewSystem creates the airfield (the configured scenario; SetupFlight
// for every aircraft by default) and binds it to the platform.
func NewSystem(p platform.Platform, cfg Config) *System {
	if cfg.N < 0 {
		panic(fmt.Sprintf("core: negative aircraft count %d", cfg.N))
	}
	spec, err := scenario.ParseSpec(cfg.Scenario)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	if err := spec.Validate(cfg.N); err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	src := applyPairSource(p, cfg)
	root := rng.New(cfg.Seed)
	setupRng := root.Split()
	radarRng := root.Split()
	return &System{
		Platform: p,
		World:    spec.Generate(cfg.N, setupRng),
		cfg:      cfg,
		radarRng: radarRng,
		tracker:  sched.NewTracker(cfg.PeriodDur),
		pairSrc:  src,
		tableSrc: broadphase.TableOf(src),
	}
}

// NewSystemWithWorld binds the platform to an externally constructed
// traffic scenario instead of random flight setup. cfg.N is ignored.
func NewSystemWithWorld(p platform.Platform, w *airspace.World, cfg Config) *System {
	src := applyPairSource(p, cfg)
	root := rng.New(cfg.Seed)
	root.Split() // keep the stream layout of NewSystem
	radarRng := root.Split()
	return &System{
		Platform: p,
		World:    w,
		cfg:      cfg,
		radarRng: radarRng,
		tracker:  sched.NewTracker(cfg.PeriodDur),
		pairSrc:  src,
		tableSrc: broadphase.TableOf(src),
	}
}

// applyPairSource wires the configured broadphase source into the
// platform and returns it so telemetry can later wrap it. Requesting a
// source on a platform that cannot use one is a configuration error and
// panics, as silently ignoring it would skew measured op counts.
func applyPairSource(p platform.Platform, cfg Config) broadphase.PairSource {
	if cfg.PairSource == "" {
		return nil
	}
	src, err := broadphase.New(cfg.PairSource)
	if err != nil {
		panic(fmt.Sprintf("core: %v", err))
	}
	ps, ok := p.(platform.PairSourced)
	if !ok {
		panic(fmt.Sprintf("core: platform %s does not support pair sources", p.Name()))
	}
	ps.SetPairSource(src)
	return src
}

// RunPeriod executes one half-second period: radar generation (host
// work, outside the deadline, per Section 4.2), Task 1, and — in the
// 16th period of each major cycle — Tasks 2-3.
func (s *System) RunPeriod() {
	frame := radar.Generate(s.World, s.cfg.noise(), s.radarRng)
	missesBefore := s.tracker.Stats().PeriodMisses
	var t1, t23 time.Duration
	s.tracker.BeginPeriod()
	s.tracker.Run(Task1, func() time.Duration {
		t1 = s.Platform.Track(s.World, frame)
		return t1
	})
	if s.period%airspace.PeriodsPerMajorCycle == airspace.PeriodsPerMajorCycle-1 {
		s.tracker.Run(Task23, func() time.Duration {
			t23 = s.Platform.DetectResolve(s.World)
			return t23
		})
		if s.counted != nil {
			// Drained sequentially between tasks, after the platform's
			// internal barriers — the counts are stable here.
			q, c := s.counted.Take()
			if q != 0 || c != 0 {
				s.rec.Counter(s.idBPQueries, q)
				s.rec.Counter(s.idBPCandidates, c)
			}
			if s.tableSrc != nil {
				segments, batches := s.tableSrc.TakeShardStats()
				if segments != 0 || batches != 0 {
					s.rec.Counter(s.idBPSegments, segments)
					s.rec.Counter(s.idKBatches, batches)
				}
			}
		}
	}
	s.tracker.EndPeriod()
	if s.recorder != nil {
		missed := s.tracker.Stats().PeriodMisses > missesBefore
		// Recording is diagnostics; a write failure must not corrupt
		// the simulation, so it is surfaced via panic only in tests.
		if err := s.recorder.WritePeriod(s.World, t1, t23, missed); err != nil {
			panic(fmt.Sprintf("core: replay recording failed: %v", err))
		}
	}
	s.period++
}

// RunMajorCycles runs k full 16-period major cycles.
func (s *System) RunMajorCycles(k int) {
	for c := 0; c < k; c++ {
		for p := 0; p < airspace.PeriodsPerMajorCycle; p++ {
			s.RunPeriod()
		}
	}
}

// Stats returns the deadline accounting collected so far.
func (s *System) Stats() *sched.Stats { return s.tracker.Stats() }

// Periods returns the number of periods executed.
func (s *System) Periods() int { return s.period }

// Measurement is the per-platform summary the experiment figures are
// built from.
type Measurement struct {
	PlatformName string
	N            int
	// Task1Mean / Task23Mean are the average virtual durations per task
	// invocation ("their timings are taken as an average of all
	// iterations of the task", Section 6.1).
	Task1Mean, Task23Mean time.Duration
	// Task1Max / Task23Max are the worst observed invocations.
	Task1Max, Task23Max time.Duration
	// PeriodMisses and Periods give the deadline record.
	PeriodMisses, Periods int
	// Skips counts task executions abandoned for lack of budget.
	Skips int
}

// Measure runs cycles major cycles of the named platform at N aircraft
// on the paper's uniform workload and summarizes.
func Measure(platformName string, n, cycles int, seed uint64) (Measurement, error) {
	return MeasureWith(platformName, cycles, Config{N: n, Seed: seed})
}

// MeasureWith is Measure under a full Config: scenario and pair source
// both apply. cfg.N is the aircraft count. Unlike
// NewSystem, a scenario that cannot hold cfg.N aircraft is an error,
// not a panic — sweeps reach counts front-end validation cannot see.
func MeasureWith(platformName string, cycles int, cfg Config) (Measurement, error) {
	p, err := platform.New(platformName, cfg.Seed)
	if err != nil {
		return Measurement{}, err
	}
	spec, err := scenario.ParseSpec(cfg.Scenario)
	if err != nil {
		return Measurement{}, err
	}
	if err := spec.Validate(cfg.N); err != nil {
		return Measurement{}, err
	}
	sys := NewSystem(p, cfg)
	sys.RunMajorCycles(cycles)
	st := sys.Stats()
	t1 := st.Task(Task1)
	t23 := st.Task(Task23)
	return Measurement{
		PlatformName: p.Name(),
		N:            cfg.N,
		Task1Mean:    t1.Mean(),
		Task23Mean:   t23.Mean(),
		Task1Max:     t1.Max,
		Task23Max:    t23.Max,
		PeriodMisses: st.PeriodMisses,
		Periods:      st.Periods,
		Skips:        st.TotalSkips,
	}, nil
}
