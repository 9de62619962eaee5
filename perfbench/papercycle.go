package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/airspace"
	"repro/internal/core"
	"repro/internal/platform"
	"repro/internal/tasks"
)

// paperN is a point of the paper's platform sweep (AllPlatformNs): the
// largest at which a STARAN major cycle stays near two seconds of host
// time, so every family gets several cycles per run.
const paperN = 2000

// speedupRounds is how many round-robin rounds the traced run repeats
// at one host worker to get the serial baseline of Task 1.
const speedupRounds = 2

// paperCycle runs whole 8 s major cycles (sixteen Task 1 periods and
// one fused Tasks 2-3) round-robin on one persistent core.System per
// executor family, so machine drift hits every family alike.
type paperCycle struct {
	seed    uint64
	n       int
	systems []*core.System
	inner   []platform.Platform
	nextOp  int64
	enc     [][]byte
	// apIn is STARAN's last Tasks 2-3 input, replayed on the sequential
	// reference kernel by the oracle.
	apIn *airspace.World
	// mutate, when set, runs on a family's world after its cycle; tests
	// use it to inject an oracle mismatch.
	mutate func(family int, w *airspace.World)
}

func newPaperCycle(seed uint64, n int) *paperCycle {
	return &paperCycle{seed: seed, n: n, enc: make([][]byte, len(families)+1), apIn: &airspace.World{}}
}

func familyNames() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

func (pc *paperCycle) config() core.Config { return core.Config{N: pc.n, Seed: pc.seed} }

// setUp builds the four systems and runs each one's first cycle.
func (pc *paperCycle) setUp(p *probe) (time.Duration, error) {
	pc.systems, pc.inner = nil, nil
	p.tr.setOp(0)
	t0 := time.Now()
	for _, f := range families {
		inner, err := platform.New(f.key, pc.seed)
		if err != nil {
			return 0, err
		}
		tp := &timedPlatform{Platform: inner, p: p}
		if f.name == "ap" {
			tp.keep = pc.apIn
		}
		pc.inner = append(pc.inner, inner)
		pc.systems = append(pc.systems, core.NewSystem(tp, pc.config()))
	}
	for _, sys := range pc.systems {
		runCycle(p.tr, sys)
	}
	return time.Since(t0), nil
}

// runCycle runs one major cycle with a span around the cycle and each
// of its periods.
func runCycle(tr *tracer, sys *core.System) {
	id := tr.begin("bench.cycle")
	for k := 0; k < airspace.PeriodsPerMajorCycle; k++ {
		pid := tr.begin("core.RunPeriod")
		sys.RunPeriod()
		tr.end(pid)
	}
	tr.end(id)
}

func (pc *paperCycle) run(p *probe, d time.Duration) *phase {
	ph := &phase{classes: familyNames()}
	start := time.Now()
	var last time.Duration
	for round := 0; round == 0 || time.Since(start)+last/2 < d; round++ {
		r0 := time.Now()
		pc.round(p, ph, round)
		last = time.Since(r0)
	}
	ph.opsPerS = ph.roundOpsPerS()
	ph.heapMB = heapLiveMB()
	return ph
}

// round runs one cycle per family, then the oracle.
func (pc *paperCycle) round(p *probe, ph *phase, round int) {
	first := len(ph.ops)
	for i, f := range families {
		pc.nextOp++
		p.tr.setOp(pc.nextOp)
		op := opRec{id: pc.nextOp, class: f.name}
		var c0 time.Duration
		var m0 uint64
		if p.tr != nil {
			c0, m0 = cpuTime(), mallocs()
		}
		t0 := time.Now()
		runCycle(p.tr, pc.systems[i])
		op.ms = msSince(t0)
		if p.tr != nil {
			op.cpu, op.mallocs = cpuTime()-c0, mallocs()-m0
		}
		ph.ops = append(ph.ops, op)
		ph.calibrate()
		if pc.mutate != nil {
			pc.mutate(i, pc.systems[i].World)
		}
	}
	pc.check(ph, first, round)
}

// check applies the oracle relations to the round's worlds. The
// snapshot-discipline executors (cuda, mimd, vector) must agree bit for
// bit; one that agrees with neither of the others fails. STARAN's
// Tasks 2-3, replayed from the same input on the sequential reference
// kernel tasks.DetectResolve, must give its world bit for bit. STARAN's
// Task 1 has no exact oracle: ap.TrackProgram arbitrates ambiguous
// radars over the whole responder set and documents that it departs
// from tasks.Correlate in scan-order-dependent cases, which occur every
// few dozen periods at this N.
func (pc *paperCycle) check(ph *phase, first, round int) {
	for i := range families {
		pc.enc[i] = encodeWorld(pc.enc[i][:0], pc.systems[i].World)
	}
	ref := len(families)
	tasks.DetectResolve(pc.apIn)
	pc.enc[ref] = encodeWorld(pc.enc[ref][:0], pc.apIn)
	snapshot := []int{}
	for i, f := range families {
		if f.name == "ap" {
			if !bytes.Equal(pc.enc[i], pc.enc[ref]) {
				ph.fail(first+i, fmt.Sprintf("round %d: %s Tasks 2-3 differ from tasks.DetectResolve on the same input", round, f.key))
			}
			continue
		}
		snapshot = append(snapshot, i)
	}
	for _, i := range snapshot {
		agree := false
		for _, j := range snapshot {
			agree = agree || (j != i && bytes.Equal(pc.enc[i], pc.enc[j]))
		}
		if !agree {
			ph.fail(first+i, fmt.Sprintf("round %d: %s world agrees with no other snapshot-discipline executor", round, families[i].key))
		}
	}
}

func (pc *paperCycle) detail(ph *phase) map[string]metric {
	out := map[string]metric{}
	for _, f := range families {
		xs := ph.durations(f.name)
		out["cycle_ms_p50."+f.name] = metric{median(xs), "ms", len(xs)}
	}
	return out
}

// layers reads the traced phase's spans, then repeats a few rounds at
// one host worker for the serial baseline of Task 1.
func (pc *paperCycle) layers(p *probe, traced *phase) (map[string]metric, *phase) {
	out := map[string]metric{}
	byOp := spansByOp(p.tr.spans, traced)
	self := selfTimes(p.tr.spans)
	for _, f := range families {
		ops := traced.opsOf(f.name)
		var track, detect, periodSelf []float64
		var trackSum, cycleSum, cpu, wall float64
		var allocs []float64
		for _, op := range ops {
			for _, s := range byOp[op.id] {
				switch p.tr.spans[s].Name {
				case "platform.Track":
					track = append(track, nsToMS(p.tr.spans[s].dur()))
					trackSum += nsToMS(p.tr.spans[s].dur())
				case "platform.DetectResolve":
					detect = append(detect, nsToMS(p.tr.spans[s].dur()))
				case "core.RunPeriod":
					periodSelf = append(periodSelf, nsToMS(self[s]))
				case "bench.cycle":
					cycleSum += nsToMS(p.tr.spans[s].dur())
				}
			}
			cpu += op.cpu.Seconds()
			wall += op.ms / 1000
			allocs = append(allocs, float64(op.mallocs))
		}
		out["platform.track_ms."+f.name] = metric{median(track), "ms", len(track)}
		out["platform.detect_resolve_ms."+f.name] = metric{median(detect), "ms", len(detect)}
		out["core.period_self_ms."+f.name] = metric{median(periodSelf), "ms", len(periodSelf)}
		out["platform.track_share."+f.name] = metric{ratio(trackSum, cycleSum), "ratio", len(ops)}
		out["parexec.cpu_util.cycle."+f.name] = metric{ratio(cpu, wall*float64(runtime.GOMAXPROCS(0))), "ratio", len(ops)}
		out["platform.allocs_per_cycle."+f.name] = metric{median(allocs), "count", len(allocs)}
	}
	out["platform.track_calls"] = metric{float64(countSpans(p.tr.spans, byOp, "platform.Track")), "count", len(traced.ops)}
	out["broadphase.calls"] = metric{float64(countSpans(p.tr.spans, byOp, "broadphase.")), "count", len(traced.ops)}

	serial := &phase{classes: familyNames()}
	setWorkers(pc.inner, 1)
	for r := 0; r < speedupRounds; r++ {
		pc.round(p, serial, -1-r)
	}
	setWorkers(pc.inner, 0)
	byOp = spansByOp(p.tr.spans, serial)
	for _, f := range families {
		var track []float64
		for _, op := range serial.opsOf(f.name) {
			for _, s := range byOp[op.id] {
				if p.tr.spans[s].Name == "platform.Track" {
					track = append(track, nsToMS(p.tr.spans[s].dur()))
				}
			}
		}
		par := out["platform.track_ms."+f.name]
		out["parexec.speedup.track."+f.name] = metric{ratio(median(track), par.Value), "ratio", len(track)}
	}
	out["scenario.generate_ms"] = generateMS(pc.n, pc.seed)
	return out, serial
}

func setWorkers(ps []platform.Platform, n int) {
	for _, p := range ps {
		p.(platform.Workered).SetWorkers(n)
	}
}

func (pc *paperCycle) close() {}
