package vector

import (
	"time"

	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/radar"
	"repro/internal/telemetry"
)

// Platform adapts a Machine to the scheduler's platform interface.
type Platform struct {
	m   *Machine
	rec *telemetry.Recorder
}

// NewPlatform returns a scheduler-facing wide-vector platform.
func NewPlatform(p Profile) *Platform { return &Platform{m: New(p)} }

// SetPairSource installs a broadphase pair source on the machine (nil
// restores the all-pairs lane sweep).
func (p *Platform) SetPairSource(src broadphase.PairSource) { p.m.SetPairSource(src) }

// SetWorkers pins the host worker count used to execute the modeled
// cores (n <= 0 restores the process-default pool).
func (p *Platform) SetWorkers(n int) { p.m.SetWorkers(n) }

// SetTelemetry attaches a recorder (nil detaches): each task then
// records one span per parallel phase, sized by the critical core's
// vector-instruction delta at the sustained issue rate plus the phase
// barrier. Because the vector model charges exactly
// max(vecInstr)/rate + phases*barrier per task, the phase spans tile
// the task's modeled time exactly (modulo per-span nanosecond
// rounding).
func (p *Platform) SetTelemetry(rec *telemetry.Recorder) { p.rec = rec }

// emitMarks converts the machine's per-phase instruction snapshots to
// back-to-back spans starting at the recorder's modeled now.
func (p *Platform) emitMarks() {
	prof := &p.m.prof
	p.m.cores.EmitSpans(p.rec, prof.IssueRate*prof.ClockHz, prof.BarrierCost)
}

// Name returns the machine name.
func (p *Platform) Name() string { return p.m.Name() }

// Deterministic reports true for the idealized vector model.
func (p *Platform) Deterministic() bool { return p.m.Deterministic() }

// Track runs Task 1 and returns the modeled time.
func (p *Platform) Track(w *airspace.World, f *radar.Frame) time.Duration {
	if p.rec != nil {
		p.m.cores.BeginMarks()
	}
	st, d := p.m.Track(w, f)
	if p.rec != nil {
		p.emitMarks()
		st.Record(p.rec)
	}
	return d
}

// DetectResolve runs Tasks 2-3 and returns the modeled time.
func (p *Platform) DetectResolve(w *airspace.World) time.Duration {
	if p.rec != nil {
		p.m.cores.BeginMarks()
	}
	st, d := p.m.DetectResolve(w)
	if p.rec != nil {
		p.emitMarks()
		st.Record(p.rec)
	}
	return d
}
