package telemetry

// Shared event names emitted by the platform adapters and core, kept
// in one place so exporters, tests and dashboards agree on spelling.
// Kernel-phase spans use the platform's own kernel/phase names (e.g.
// "census", "ap.boxpass").
const (
	// NameTransfer spans host<->device transfer time (CUDA devices).
	NameTransfer = "transfer"
	// NameCUDABlockOps gauges per-block thread ops (DetailBlock only);
	// Arg is the block index.
	NameCUDABlockOps = "cuda.block.ops"

	// NameTrackMatched counts aircraft updated from a radar return in
	// one Task 1 run.
	NameTrackMatched = "track.matched"

	// Detect/resolve work counters, one per Tasks 2-3 invocation.
	NameDetectConflicts  = "detect.conflicts"
	NameDetectRotations  = "detect.rotations"
	NameDetectResolved   = "detect.resolved"
	NameDetectUnresolved = "detect.unresolved"
	NameDetectPairChecks = "detect.pairchecks"

	// Broad-phase pruning counters, drained by core after each Tasks
	// 2-3 run when a pair source is installed.
	NameBroadphaseQueries    = "broadphase.queries"
	NameBroadphaseCandidates = "broadphase.candidates"

	// Incremental broad-phase maintenance counters, drained by core
	// after each Tasks 2-3 run on the "sweep" source. Updates
	// and Rebuilds partition the Prepare calls (an update repaired the
	// previous order in place; a rebuild fell back to a full sort);
	// Moved and Resorted describe repair effort. The matching span
	// names are the engines' per-phase kernel names suffixed with
	// ".update" / ".rebuild" (e.g. "broadphase.update", "index.rebuild",
	// "ap.index.update").
	NameBroadphaseUpdates  = "broadphase.updates"
	NameBroadphaseRebuilds = "broadphase.rebuilds"
	NameBroadphaseMoved    = "broadphase.moved"
	NameBroadphaseResorted = "broadphase.resorted"

	// Candidate-table counters, drained by core after each Tasks 2-3
	// run on the "sweep" source: NameBroadphaseSegments counts
	// table-build segments walked, NameKernelBatches the 8-wide
	// batched-kernel iterations consumers executed against the table.
	// Both are invariant across worker counts, like every result.
	NameBroadphaseSegments = "broadphase.segments"
	NameKernelBatches      = "kernel.batches"

	// NameServeRun spans one whole served simulation (internal/serve):
	// it starts at the schedule origin and covers the run's virtual
	// elapsed time, so service-side exports carry the request envelope
	// alongside the scheduler's per-period and per-task spans.
	NameServeRun = "serve.run"
)
