package cuda

import (
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/tasks"
	"repro/internal/telemetry"
)

// Platform adapts an Engine to the platform.Platform interface used by
// the scheduler and the experiment harness.
type Platform struct {
	eng *Engine
	rec *telemetry.Recorder
}

// NewPlatform returns a scheduler-facing platform on the given device
// profile.
func NewPlatform(p Profile) *Platform {
	return &Platform{eng: NewEngine(p)}
}

// SetPairSource installs a broadphase pair source on the engine (nil
// restores the paper's all-pairs kernels).
func (p *Platform) SetPairSource(src broadphase.PairSource) { p.eng.SetPairSource(src) }

// SetWorkers pins the host worker count used to execute kernel blocks
// (n <= 0 restores the process-default pool).
func (p *Platform) SetWorkers(n int) { p.eng.SetWorkers(n) }

// SetTelemetry attaches a recorder (nil detaches): each task then
// records one span per kernel launch plus the transfer span — the
// launch sequence is sequential, so consecutive spans tile the task's
// modeled time exactly — and the task's work counters.
func (p *Platform) SetTelemetry(rec *telemetry.Recorder) {
	p.rec = rec
	p.eng.dev.SetTelemetry(rec)
}

// emitKernels records the launch sequence as back-to-back spans
// starting at the recorder's modeled now (the task's virtual start),
// with the host<->device transfer span at the tail. Arg is the launch
// ordinal, which distinguishes repeated kernels across box passes.
func (p *Platform) emitKernels(kernels []KernelStats, transfer time.Duration) {
	off := p.rec.Now()
	for i := range kernels {
		st := &kernels[i]
		p.rec.SpanArg(p.rec.Intern(st.Name), off, st.Time, int32(i))
		off += st.Time
	}
	p.rec.Span(p.rec.Intern(telemetry.NameTransfer), off, transfer)
}

// Name returns the device name.
func (p *Platform) Name() string { return p.eng.Name() }

// Deterministic reports that the modeled timing is a pure function of
// the workload — the property the paper demonstrates for CUDA devices.
func (p *Platform) Deterministic() bool { return true }

// Track runs Task 1 and returns the modeled device time.
func (p *Platform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	res := p.eng.TrackDrone(w, f)
	if p.rec != nil {
		p.emitKernels(res.Kernels, res.TransferTime)
		tasks.CorrelateStats{Matched: res.Matched}.Record(p.rec)
	}
	return res.Time
}

// DetectResolve runs the fused Tasks 2-3 kernel and returns the modeled
// device time.
func (p *Platform) DetectResolve(w *airspace.World) time.Duration {
	res := p.eng.CheckCollisionPath(w)
	if p.rec != nil {
		p.emitKernels(res.Kernels, res.TransferTime)
		res.Stats.Record(p.rec)
	}
	return res.Time
}
