package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/parexec"
	"repro/internal/platform"
	"repro/internal/rng"
	"repro/internal/scenario"
	"repro/internal/tasks"
	"repro/internal/telemetry"
)

// detectN is large enough that the sweep's repair splits into many
// blocks and its table into many segments.
const detectN = 8000

// speedupDetects is how many invocations per path the traced run
// repeats at one host worker for the serial baseline.
const speedupDetects = 3

// preRoll is how many invocations, 16 periods apart, the generated
// traffic goes through before any path sees it. Uniform traffic starts
// with about five times the conflicts it settles at; resolution works
// them off over some twenty invocations at N=8000, and op times fall by
// half on the way. Timing the settled stream keeps every op alike, so
// a run's median does not depend on how many ops it reached.
const preRoll = 24

// detectStream runs the pruned Tasks 2-3 the way -pairsource sweep
// -coherent -parshard serves them, once per major cycle on a world that
// moves 16 periods by dead reckoning between invocations.
type detectStream struct {
	seed    uint64
	n       int
	preRoll int
	// start is the settled traffic every set-up clones.
	start  *airspace.World
	paths  []*detectPath
	nextOp int64
	info   map[int64]detectInfo
	// bruteDone records that this run's one replay against the
	// all-pairs source has been made.
	bruteDone bool
	encA      []byte
	encB      []byte
	// mutate, when set, runs on a path's world after its invocation;
	// tests use it to inject an oracle mismatch.
	mutate func(path int, w *airspace.World)
}

// detectPath is one executor of the pruned Tasks 2-3 with its own world
// and its own coherent, sharded sweep.
type detectPath struct {
	name string
	w    *airspace.World
	src  *timedSource
	// pool drives the tasks path (nil is the process default).
	pool *parexec.Pool
	// plat and rec are the cuda path's executor and the telemetry
	// recorder its detect counters are read from; refPlat and refRec
	// replay on the rebuild sweep.
	plat, refPlat platform.Platform
	rec, refRec   *telemetry.Recorder
}

// detectInfo holds the counters of one invocation.
type detectInfo struct {
	stats                    tasks.DetectStats
	cand                     int
	updates, rebuilds, moved int64
	batches                  int64
}

func newDetectStream(seed uint64, n int) *detectStream {
	return &detectStream{seed: seed, n: n, preRoll: preRoll, info: map[int64]detectInfo{}}
}

// settle generates the seed's uniform traffic and runs it through the
// pre-roll invocations on a coherent, sharded sweep.
func (ds *detectStream) settle() error {
	spec, err := scenario.ParseSpec("")
	if err != nil {
		return err
	}
	w := spec.Generate(ds.n, rng.New(ds.seed))
	src, err := broadphase.NewWith(broadphase.SweepName, broadphase.Options{Incremental: true, Sharded: true})
	if err != nil {
		return err
	}
	for k := 0; k < ds.preRoll; k++ {
		if k > 0 {
			advance(w, airspace.PeriodsPerMajorCycle)
		}
		tasks.DetectResolveExec(w, src, nil)
	}
	ds.start = w
	return nil
}

// setUp builds both paths on copies of the settled traffic and runs
// each one's first invocation, which builds its sweep from scratch.
func (ds *detectStream) setUp(p *probe) (time.Duration, error) {
	if ds.start == nil {
		if err := ds.settle(); err != nil {
			return 0, err
		}
	}
	ds.paths = nil
	p.tr.setOp(0)
	t0 := time.Now()
	w := ds.start.Clone()
	var err error
	for i, name := range paths {
		src, err := broadphase.NewWith(broadphase.SweepName, broadphase.Options{Incremental: true, Sharded: true})
		if err != nil {
			return 0, err
		}
		dp := &detectPath{name: name, w: w, src: &timedSource{src: src, p: p}}
		if i > 0 {
			dp.w = w.Clone()
		}
		if name == "cuda" {
			if dp.plat, dp.rec, err = titanx(ds.seed, dp.src); err != nil {
				return 0, err
			}
		}
		ds.paths = append(ds.paths, dp)
	}
	for _, dp := range ds.paths {
		ds.invoke(p.tr, dp, dp.w)
		dp.src.TakeUpdateStats()
		dp.src.TakeShardStats()
	}
	d := time.Since(t0)
	for _, dp := range ds.paths {
		if dp.name == "cuda" {
			if dp.refPlat, dp.refRec, err = titanx(ds.seed, broadphase.NewSweep()); err != nil {
				return 0, err
			}
		}
	}
	return d, nil
}

// titanx builds the cuda path's executor on src, with a small telemetry
// recorder whose running sums carry the detect counters.
func titanx(seed uint64, src broadphase.PairSource) (platform.Platform, *telemetry.Recorder, error) {
	p, err := platform.New(platform.TitanXPascal, seed)
	if err != nil {
		return nil, nil, err
	}
	rec := telemetry.NewRecorder(1024)
	p.(platform.PairSourced).SetPairSource(src)
	p.(platform.Instrumented).SetTelemetry(rec)
	return p, rec, nil
}

// detectCounters reads the cumulative detect counters of rec.
func detectCounters(rec *telemetry.Recorder) tasks.DetectStats {
	return tasks.DetectStats{
		Conflicts:  int(rec.SumOf(telemetry.NameDetectConflicts)),
		Rotations:  int(rec.SumOf(telemetry.NameDetectRotations)),
		Resolved:   int(rec.SumOf(telemetry.NameDetectResolved)),
		Unresolved: int(rec.SumOf(telemetry.NameDetectUnresolved)),
		PairChecks: int(rec.SumOf(telemetry.NameDetectPairChecks)),
	}
}

func statsDelta(a, b tasks.DetectStats) tasks.DetectStats {
	return tasks.DetectStats{
		Conflicts:  b.Conflicts - a.Conflicts,
		Rotations:  b.Rotations - a.Rotations,
		Resolved:   b.Resolved - a.Resolved,
		Unresolved: b.Unresolved - a.Unresolved,
		PairChecks: b.PairChecks - a.PairChecks,
	}
}

// invoke runs one Tasks 2-3 invocation of the path on w.
func (ds *detectStream) invoke(tr *tracer, dp *detectPath, w *airspace.World) tasks.DetectStats {
	if dp.plat == nil {
		id := tr.begin("tasks.DetectResolveExec")
		st := tasks.DetectResolveExec(w, dp.src, dp.pool)
		tr.end(id)
		return st
	}
	before := detectCounters(dp.rec)
	id := tr.begin("platform.DetectResolve")
	dp.plat.DetectResolve(w)
	tr.end(id)
	return statsDelta(before, detectCounters(dp.rec))
}

// replay runs the same invocation on a clone with the rebuild sweep.
func (ds *detectStream) replay(dp *detectPath, w *airspace.World) tasks.DetectStats {
	if dp.plat == nil {
		return tasks.DetectResolveExec(w, broadphase.NewSweep(), nil)
	}
	before := detectCounters(dp.refRec)
	dp.refPlat.DetectResolve(w)
	return statsDelta(before, detectCounters(dp.refRec))
}

// advance moves every aircraft by dead reckoning for the given number
// of periods, re-entering at the torus edge as Task 1 does.
func advance(w *airspace.World, periods int) {
	for k := 0; k < periods; k++ {
		for i := range w.Aircraft {
			a := &w.Aircraft[i]
			a.X += a.DX
			a.Y += a.DY
			airspace.Wrap(a)
		}
	}
}

func (ds *detectStream) run(p *probe, d time.Duration) *phase {
	ph := &phase{classes: append([]string(nil), paths...)}
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last/2 < d; round++ {
		r0 := time.Now()
		ds.round(p, ph)
		last = time.Since(r0)
	}
	ph.opsPerS = ph.roundOpsPerS()
	ph.heapMB = heapLiveMB()
	return ph
}

// round runs one invocation per path, each checked against a replay on
// the rebuild sweep, outside the timed interval.
func (ds *detectStream) round(p *probe, ph *phase) {
	for i, dp := range ds.paths {
		advance(dp.w, airspace.PeriodsPerMajorCycle)
		before := dp.w.Clone()
		ds.nextOp++
		p.tr.setOp(ds.nextOp)
		op := opRec{id: ds.nextOp, class: dp.name}
		var c0 time.Duration
		var m0 uint64
		if p.tr != nil {
			c0, m0 = cpuTime(), mallocs()
		}
		t0 := time.Now()
		st := ds.invoke(p.tr, dp, dp.w)
		op.ms = msSince(t0)
		if p.tr != nil {
			op.cpu, op.mallocs = cpuTime()-c0, mallocs()-m0
		}
		ph.ops = append(ph.ops, op)
		ph.calibrate()
		u := dp.src.TakeUpdateStats()
		_, batches := dp.src.TakeShardStats()
		ds.info[op.id] = detectInfo{stats: st, cand: dp.src.lastCand, updates: u.Updates, rebuilds: u.Rebuilds, moved: u.Moved, batches: batches}
		if ds.mutate != nil {
			ds.mutate(i, dp.w)
		}
		ds.check(ph, len(ph.ops)-1, dp, before, st)
	}
}

// check replays the invocation on the rebuild sweep and, once per run
// on the tasks path, on the all-pairs source; the world encoding and
// the detect counters must match.
func (ds *detectStream) check(ph *phase, i int, dp *detectPath, before *airspace.World, st tasks.DetectStats) {
	var brute *airspace.World
	if dp.plat == nil && !ds.bruteDone {
		brute = before.Clone()
		ds.bruteDone = true
	}
	ds.encA = encodeWorld(ds.encA[:0], dp.w)
	want := ds.replay(dp, before)
	ds.encB = encodeWorld(ds.encB[:0], before)
	if !bytes.Equal(ds.encA, ds.encB) || st != want {
		ph.fail(i, fmt.Sprintf("op %d: %s path differs from the rebuild sweep (stats %+v, want %+v)", ph.ops[i].id, dp.name, st, want))
		return
	}
	if brute == nil {
		return
	}
	all := tasks.DetectResolveExec(brute, broadphase.NewBrute(), nil)
	ds.encB = encodeWorld(ds.encB[:0], brute)
	all.PairChecks = st.PairChecks // the all-pairs scan checks every pair by design
	if !bytes.Equal(ds.encA, ds.encB) || st != all {
		ph.fail(i, fmt.Sprintf("op %d: %s path differs from the all-pairs source", ph.ops[i].id, dp.name))
	}
}

func (ds *detectStream) detail(ph *phase) map[string]metric {
	out := map[string]metric{}
	for _, name := range paths {
		xs := ph.durations(name)
		out["detect_ms_p50."+name] = metric{median(xs), "ms", len(xs)}
	}
	return out
}

// layers reads the traced phase's spans and counters, then repeats a
// few invocations per path at one host worker for the serial baseline.
func (ds *detectStream) layers(p *probe, traced *phase) (map[string]metric, *phase) {
	out := map[string]metric{}
	byOp := spansByOp(p.tr.spans, traced)
	self := selfTimes(p.tr.spans)
	table, whole := map[string]float64{}, map[string]float64{}
	for _, name := range paths {
		ops := traced.opsOf(name)
		var prep, tab, kernel, cand, allocs, batches []float64
		var prepSum, tabSum, rootSum, cpu, wall, checks, candSum float64
		var updates, rebuilds, moved int64
		for _, op := range ops {
			var pr, tb float64
			for _, s := range byOp[op.id] {
				sp := p.tr.spans[s]
				switch sp.Name {
				case "broadphase.Prepare", "broadphase.PrepareColumns":
					pr += nsToMS(sp.dur())
				case "broadphase.PrepareTable":
					tb += nsToMS(sp.dur())
				case "tasks.DetectResolveExec", "platform.DetectResolve":
					rootSum += nsToMS(sp.dur())
					kernel = append(kernel, nsToMS(self[s]))
				}
			}
			prep, tab = append(prep, pr), append(tab, tb)
			prepSum, tabSum = prepSum+pr, tabSum+tb
			in := ds.info[op.id]
			cand = append(cand, float64(in.cand))
			candSum += float64(in.cand)
			checks += float64(in.stats.PairChecks)
			updates, rebuilds, moved = updates+in.updates, rebuilds+in.rebuilds, moved+in.moved
			batches = append(batches, float64(in.batches))
			cpu += op.cpu.Seconds()
			wall += op.ms / 1000
			allocs = append(allocs, float64(op.mallocs))
		}
		n := len(ops)
		out["broadphase.prepare_ms."+name] = metric{median(prep), "ms", n}
		out["broadphase.table_ms."+name] = metric{median(tab), "ms", n}
		out["broadphase.share."+name] = metric{ratio(prepSum+tabSum, rootSum), "ratio", n}
		out["broadphase.candidates."+name] = metric{median(cand), "count", n}
		out["broadphase.check_ratio."+name] = metric{ratio(checks, candSum), "ratio", n}
		out["broadphase.rebuild_frac."+name] = metric{ratio(float64(rebuilds), float64(updates+rebuilds)), "ratio", n}
		out["broadphase.moved_per_prepare."+name] = metric{ratio(float64(moved), float64(updates+rebuilds)), "count", n}
		out["parexec.cpu_util.detect."+name] = metric{ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))), "ratio", n}
		out["tasks.allocs_per_detect."+name] = metric{median(allocs), "count", n}
		if name == "tasks" {
			out["tasks.kernel_ms"] = metric{median(kernel), "ms", len(kernel)}
			out["tasks.kernel_batches"] = metric{median(batches), "count", n}
		} else {
			out["cuda.scan_ms"] = metric{median(kernel), "ms", len(kernel)}
		}
		table[name], whole[name] = median(tab), median(traced.durations(name))
	}
	out["platform.track_calls"] = metric{float64(countSpans(p.tr.spans, byOp, "platform.Track")), "count", len(traced.ops)}
	out["broadphase.calls"] = metric{float64(countSpans(p.tr.spans, byOp, "broadphase.")), "count", len(traced.ops)}

	serial := &phase{classes: append([]string(nil), paths...)}
	ds.setWorkers(1)
	for r := 0; r < speedupDetects; r++ {
		ds.round(p, serial)
	}
	ds.setWorkers(0)
	byOp = spansByOp(p.tr.spans, serial)
	for _, name := range paths {
		var tab []float64
		for _, op := range serial.opsOf(name) {
			tb := 0.0
			for _, s := range byOp[op.id] {
				if p.tr.spans[s].Name == "broadphase.PrepareTable" {
					tb += nsToMS(p.tr.spans[s].dur())
				}
			}
			tab = append(tab, tb)
		}
		n := len(tab)
		out["parexec.speedup.table."+name] = metric{ratio(median(tab), table[name]), "ratio", n}
		out["parexec.speedup.detect."+name] = metric{ratio(median(serial.durations(name)), whole[name]), "ratio", n}
	}
	out["scenario.generate_ms"] = generateMS(ds.n, ds.seed)
	return out, serial
}

// setWorkers pins both paths to n host workers (0 restores the
// process default).
func (ds *detectStream) setWorkers(n int) {
	for _, dp := range ds.paths {
		if dp.plat != nil {
			dp.plat.(platform.Workered).SetWorkers(n)
			continue
		}
		dp.pool = nil
		if n > 0 {
			dp.pool = parexec.NewPool(n)
		}
	}
}

func (ds *detectStream) close() {}
