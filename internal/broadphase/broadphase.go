// Package broadphase prunes the O(n²) pair enumeration at the heart of
// the collision-detection tasks (Algorithm 2, Equations 1-6). Every
// platform's Tasks 2-3 scan compares each track aircraft against every
// other aircraft; a PairSource replaces that full scan with a candidate
// set that is provably a superset of the pairs that can influence the
// result, so detection output is bit-for-bit identical while the number
// of pair evaluations drops from O(n²) toward O(n).
//
// # Exactness argument
//
// The per-track scan (tasks.Scan, every executor's scan) initializes
// its running minimum to airspace.SafeTime and only records conflicts
// whose window start tmin is strictly below it; since SafeTime equals
// the criticality threshold airspace.CriticalTime, a pair whose
// earliest conflict lies at or beyond CriticalTime periods can never
// change the scan's earliest time, its conflict partner, or the
// critical verdict. A conflict with tmin < CriticalTime requires both
// axis separations to be within airspace.SepTotal at some instant
// t ∈ [0, CriticalTime); at that instant each aircraft sits inside its
// own reach envelope — the axis-aligned box of every position the
// aircraft can occupy within CriticalTime periods at its current
// *speed*, under any heading, expanded by half the separation bound
// (Reach). Two aircraft can therefore only matter to each other if
// their reach envelopes overlap on both axes.
//
// The envelope deliberately uses the speed ball rather than the
// committed course: collision resolution probes headings rotated up to
// ±30° and the sequential reference commits a successful rotation in
// place, mid-run. Rotation preserves speed, so a speed-ball envelope
// built once per Detect/DetectResolve invocation stays valid for every
// probed and every committed heading — no index maintenance, no
// ordering sensitivity. (The paper's full 20-minute look-ahead horizon
// would be useless as a pruning bound: at 600 knots an aircraft crosses
// 200 nm in 20 minutes, most of the 256 nm field; the critical window
// is the bound that actually prunes, and it is the exact one.)
//
// Candidate sets are returned in ascending aircraft-index order so that
// the scan's first-wins tie-break on equal conflict times matches the
// full scan exactly. Sets may include the track aircraft itself;
// callers already skip it.
package broadphase

import (
	"fmt"
	"math"

	"repro/internal/airspace"
)

// PruneHorizon is the look-ahead, in periods, that bounds which pairs
// can influence collision detection: conflicts first entering the
// separation band at or beyond this time never alter the scan result
// (see the package comment).
const PruneHorizon = airspace.CriticalTime

// slack widens every envelope by a hair so that exact floating-point
// boundary cases (a window starting exactly where an envelope ends)
// land inside rather than outside. Pruning only ever errs toward more
// candidates.
const slack = 1e-9

// PairSource yields, for one track aircraft, the indices of the
// aircraft it could possibly be in critical conflict with.
//
// Contract:
//   - Prepare must be called once per Detect/DetectResolve invocation,
//     before the first Candidates call, with the world in its
//     post-Task-1 (committed, wrapped) state. Prepare is not safe for
//     concurrent use.
//   - Candidates must return a superset of every aircraft whose
//     conflict with track can start before PruneHorizon under any
//     heading of the track's current speed, in ascending index order.
//     The track itself may be included; callers skip it. After Prepare
//     returns, Candidates is safe for concurrent use from multiple
//     goroutines (the platform executors scan in parallel).
//   - Returned slices must be treated as read-only and are only valid
//     until the next Prepare.
//   - AppendCandidates appends the same candidate set to dst and
//     returns the extended slice. It never retains dst and writes only
//     through it, so a caller that keeps one buffer per worker
//     goroutine performs zero allocations per query in steady state.
//     Like Candidates, it is safe for concurrent use after Prepare.
type PairSource interface {
	// Name returns the registry name of the source.
	Name() string
	// Prepare builds the index for the world's current snapshot.
	Prepare(w *airspace.World)
	// Candidates returns the candidate trial indices for track.
	Candidates(w *airspace.World, track *airspace.Aircraft) []int32
	// AppendCandidates appends the candidate trial indices for track to
	// dst and returns the extended slice.
	AppendCandidates(dst []int32, w *airspace.World, track *airspace.Aircraft) []int32
}

// Reach returns the per-axis half-width of the aircraft's critical-
// window envelope: the farthest it can travel along one axis within
// PruneHorizon at its current speed under any heading, plus half the
// pairwise separation bound (each member of a pair contributes half of
// airspace.SepTotal).
//
//atm:inline
func Reach(a *airspace.Aircraft) float64 {
	return ReachAt(a.DX, a.DY)
}

// ReachAt is Reach on a scalar velocity, for callers holding the world
// in column (SoA) form. Same expression, bit-identical result.
//
//atm:inline
func ReachAt(dx, dy float64) float64 {
	return math.Hypot(dx, dy)*PruneHorizon + airspace.SepTotal/2 + slack
}

// Registry names of the two sources.
const (
	BruteName = "brute"
	SweepName = "sweep"
)

// Names returns the registry names in presentation order (the oracle
// first).
func Names() []string { return []string{BruteName, SweepName} }

// New constructs the named pair source with default parameters.
func New(name string) (PairSource, error) {
	switch name {
	case BruteName:
		return NewBrute(), nil
	case SweepName:
		return newBinnedSweep(), nil
	}
	return nil, fmt.Errorf("broadphase: unknown pair source %q (known: %v)", name, Names())
}

// MustNew is New that panics on error, for tables of known-good names.
func MustNew(name string) PairSource {
	s, err := New(name)
	if err != nil {
		panic(err)
	}
	return s
}

// Brute is the all-pairs oracle: every aircraft is a candidate for
// every track. It reproduces the unpruned scan exactly and costs
// nothing to prepare; the other sources are tested against it.
type Brute struct {
	all []int32
}

// NewBrute returns the all-pairs source.
func NewBrute() *Brute { return &Brute{} }

// Name returns "brute".
func (b *Brute) Name() string { return BruteName }

// Prepare sizes the shared candidate list to the world.
func (b *Brute) Prepare(w *airspace.World) {
	n := w.N()
	if len(b.all) == n {
		return
	}
	b.all = make([]int32, n)
	for i := range b.all {
		b.all[i] = int32(i)
	}
}

// Candidates returns every aircraft index (including the track; the
// scan skips it). The returned slice is shared across calls.
func (b *Brute) Candidates(w *airspace.World, track *airspace.Aircraft) []int32 {
	return b.all
}

// AppendCandidates appends every aircraft index to dst.
//
//atm:noalloc
func (b *Brute) AppendCandidates(dst []int32, w *airspace.World, track *airspace.Aircraft) []int32 {
	return append(dst, b.all...)
}
