// The one Tasks 2-3 pair scan, Scan, the in-place step of Algorithm 2,
// ResolveInPlace, and the Tasks 2-3 runner built on them: Detect and
// DetectResolve for every pair source.
//
// Scan is the pair fold of every executor: the runner here and the
// AP's detection program call it per track and probe, and cuda's
// CheckCollisionPath and the mimd and vector machines through the
// snapshot step (snapshot.go). Each executor keeps only its own
// control flow and modeled charges, which it computes from the scan's
// candidate and check counts. The AP, whose control flow is the
// runner's serial one, shares ResolveInPlace too.
// Every source runs the same scan; only the candidate list of a track
// differs. The broadphase.View serves it: the identity list [0, n)
// with no source, the row of the candidate table where the source
// builds one, a per-track query otherwise. Three things make the
// runner bit-identical to the reference scan of Algorithm 2 over the
// aircraft records (kept as the scalar reference in the tests):
//
//   - Every value the scan reads — positions, velocities, altitudes —
//     comes from an airspace.Columns snapshot that FillFrom copies out
//     of the aircraft records at invocation start and that every
//     heading commit updates in lockstep (SetVel), so each comparison
//     evaluates on exactly the float64 the record holds. The altitude
//     filter rejects ~95% of a per-track query's candidates, and in
//     column form that rejection touches one dense 8-byte element
//     instead of a whole Aircraft record; a table row holds only the
//     candidates inside the band already, filtered by the same
//     airspace.AltOverlap on the same altitudes, so there the filter
//     rejects none. The self-skip compares indices where the reference
//     compares IDs; these are equivalent by the ID == index invariant
//     (SetupFlight assigns ID = index and no task reassigns it), which
//     the sweep's envelope arrays already rely on.
//
//   - A track's candidate set depends only on positions and speeds,
//     heading commits preserve speed, and the index is never
//     re-prepared within an invocation, so every rotation probe and
//     every dirty-replay rescan is served exactly the set a fresh
//     query would emit — from the table row when there is one.
//
//   - The pair loop is branch-free: a compaction pass applies the
//     self-skip and altitude filters, then the survivors are evaluated
//     in unrolled blocks of 8 with branch-free min/max time-band
//     intersection. The equivalence argument is spelled out at Scan.
//
// DetectResolve has two forms: at one worker the serial in-place
// Algorithm 2; above that a parallel scan of every track against the
// pre-resolution snapshot, then a serial replay that rescans only the
// tracks a committed heading can reach (see parallel.go). Every scan —
// scan phase, probes, rescans — is one Scan call over the track's
// full candidate list in both forms and at every worker count, so the
// drained batch counter is as worker-invariant as the results
// themselves.
package tasks

import (
	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
)

// kernelBatch is the scan's block width: 8 candidate pairs per
// unrolled iteration, the natural SIMD shape for float64 lanes.
const kernelBatch = 8

// ScanBuf is one worker's scan buffers, padded so neighbouring
// workers' slice headers don't share a cache line: cand receives
// per-track queries, keep is the scan's compaction buffer (Task 1 uses
// cand alone). The zero value is ready to use.
type ScanBuf struct {
	cand []int32
	keep []int32
	_    [16]byte
}

// ScanResult is one scan's outcome: the earliest conflict start
// (airspace.SafeTime if none), the partner that achieved it (first
// wins on ties; airspace.NoConflict if none), the pair checks — the
// candidates that passed the self-skip and the altitude band — and the
// size of the track's full candidate set, the track itself included:
// the length of the list a per-track query or the identity list hands
// the scan, and the count a table row carries beside its in-band part.
// Executors charge a scan from Checks and Cands alone.
type ScanResult struct {
	Tmin   float64
	With   int32
	Checks int32
	Cands  int32
}

// Critical reports whether the scan found a conflict starting before
// airspace.CriticalTime, the one Algorithm 2 must resolve.
//
//atm:inline
func (r ScanResult) Critical() bool { return r.Tmin < airspace.CriticalTime }

// Scan is the fused Task 2+3 pair kernel, the one pair scan of every
// executor. It folds the candidates v serves for the track
// at index i of the column snapshot c — at its snapshot position and
// altitude, probing velocity (vx, vy) — using b's buffers; w is the
// world v was prepared on, which a per-track query reads.
//
// Stage 1 compacts the candidates that survive the self-skip and the
// altitude band (the ~95% reject of a full set) into b.keep; the
// survivor count is the pair-check tally, exactly as the scalar
// reference counts before its window test. Stage 2 consumes survivors
// in blocks of kernelBatch SoA lanes with hoisted track scalars and no
// branches in the window math, then a scalar tail finishes the
// remainder in the same arithmetic.
//
// Equivalence to PairConflict + the scalar fold, case by case: with
// d = trial - track and dv relative velocity per axis, the unconditional
// quotients t1 = (-sep-d)/dv, t2 = (sep-d)/dv reproduce
// geom.AxisConflictWindow exactly. For dv != 0 they are its finite
// window (min/max replaces the swap). For dv == 0 with |d| < sep the
// numerators straddle zero, so t1, t2 = ∓Inf — the unbounded window.
// For |d| > sep both numerators share a sign, the window collapses to
// [±Inf, ±Inf], and the [0, HorizonPeriods] clip empties it. For
// |d| == sep one numerator is zero, 0/0 = NaN poisons the builtin
// min/max chain (they propagate NaN like math.Min/math.Max), and the
// final tmin < tmax predicate is false — the scalar path's empty
// window. The fold order max(max(xLo, yLo), 0), min(min(xHi, yHi), H)
// is geom.Interval.Intersect's own composition on the same values, so
// every stored tmin is bit-identical to the scalar reference's, and the
// in-order strict-< fold preserves its first-wins tie-break.
//
// Bounds checks: the length guards over the hoisted column locals
// teach the prove pass that every column covers [0, n), n the altitude
// column's length (fillColumns' idiom), and that i indexes them,
// candidate IDs are range-checked with a single never-taken uint
// compare per lane (an out-of-range ID gets the empty window, the same
// verdict an impossible candidate would earn), and blocks are consumed
// by reslicing rest so the constant block length is visible to the
// prover. The gate holds the whole kernel bounds-check-free. The
// position and velocity columns are loaded after stage 1, so that they
// and the candidate count do not crowd its loop's registers.
//
//atm:noalloc
//atm:noescape
//atm:nobce
func Scan(c *airspace.Columns, v *broadphase.View, w *airspace.World, b *ScanBuf, i int, vx, vy float64) ScanResult {
	r := ScanResult{Tmin: airspace.SafeTime, With: airspace.NoConflict}
	alts := c.Alt
	n := len(alts)
	if uint(i) >= uint(n) {
		return r // i always indexes the columns
	}
	cand, count := v.Candidates(&b.cand, w, i)
	r.Cands = int32(count)
	talt := alts[i]
	keep := b.keep[:0]
	for _, p := range cand {
		q := int(p)
		if uint(q) < uint(n) && q != i && airspace.AltOverlap(talt, alts[q]) {
			keep = append(keep, p)
		}
	}
	b.keep = keep
	r.Checks = int32(len(keep))
	xs, ys, dxs, dys := c.X, c.Y, c.DX, c.DY
	if len(xs) < n || len(ys) < n || len(dxs) < n || len(dys) < n {
		return r // columns are always filled to equal length
	}
	tx, ty := xs[i], ys[i]
	const sep = airspace.SepTotal
	var blo, bhi [kernelBatch]float64
	rest := keep
	for len(rest) >= kernelBatch {
		blk := rest[:kernelBatch]
		for l := 0; l < kernelBatch; l++ {
			q := int(blk[l])
			if uint(q) >= uint(n) {
				blo[l], bhi[l] = 0, 0 // empty window; unreachable for real candidates
				continue
			}
			dx := xs[q] - tx
			dvx := dxs[q] - vx
			x1 := (-sep - dx) / dvx
			x2 := (sep - dx) / dvx
			dy := ys[q] - ty
			dvy := dys[q] - vy
			y1 := (-sep - dy) / dvy
			y2 := (sep - dy) / dvy
			blo[l] = max(max(min(x1, x2), min(y1, y2)), 0)
			bhi[l] = min(min(max(x1, x2), max(y1, y2)), airspace.HorizonPeriods)
		}
		for l := 0; l < kernelBatch; l++ {
			if blo[l] < bhi[l] && blo[l] < r.Tmin {
				r.Tmin = blo[l]
				r.With = blk[l]
			}
		}
		rest = rest[kernelBatch:]
	}
	for _, p := range rest {
		q := int(p)
		if uint(q) >= uint(n) {
			continue
		}
		dx := xs[q] - tx
		dvx := dxs[q] - vx
		x1 := (-sep - dx) / dvx
		x2 := (sep - dx) / dvx
		dy := ys[q] - ty
		dvy := dys[q] - vy
		y1 := (-sep - dy) / dvy
		y2 := (sep - dy) / dvy
		tlo := max(max(min(x1, x2), min(y1, y2)), 0)
		thi := min(min(max(x1, x2), max(y1, y2)), airspace.HorizonPeriods)
		if tlo < thi && tlo < r.Tmin {
			r.Tmin = tlo
			r.With = p
		}
	}
	return r
}

// kernelBatches is the number of kernelBatch-wide iterations, tail
// included, a scan with the given pair checks runs: the runner's
// kernel.batches tally.
func kernelBatches(checks int32) int64 {
	return int64((checks + kernelBatch - 1) / kernelBatch)
}

// beginDetect takes the scratch of one Detect/DetectResolve invocation:
// it snapshots the world into the scratch columns and prepares the
// candidate view over them.
func beginDetect(w *airspace.World, src broadphase.PairSource, p *parexec.Pool) *detectScratch {
	sc := getDetectScratch(w.N(), p.Workers())
	sc.cols.FillFrom(w)
	sc.view.Prepare(src, w, &sc.cols, p)
	return sc
}

// scanJob is the parallel scan phase's persistent body: one chunk of
// tracks, each scanned once against the pre-resolution snapshot. Held
// in detectScratch so RunBody dispatch allocates nothing.
type scanJob struct {
	sc        *detectScratch
	w         *airspace.World
	wantReach bool
}

//atm:noalloc
func (j *scanJob) Chunk(worker, lo, hi int) {
	sc := j.sc
	c := &sc.cols
	b := &sc.bufs[worker]
	for i := lo; i < hi; i++ {
		if j.wantReach {
			sc.reach[i] = broadphase.ReachAt(c.DX[i], c.DY[i])
		}
		sc.res[i] = Scan(c, &sc.view, j.w, b, i, c.DX[i], c.DY[i])
	}
}

// DetectExec is DetectWith on an explicit engine pool; nil means the
// process default. Every track's scan runs against state Detect never
// mutates, fanned out over the pool; the marks are then applied in
// index order. Results are identical at any worker count.
//
//atm:ordered-merge
func DetectExec(w *airspace.World, src broadphase.PairSource, pool *parexec.Pool) DetectStats {
	p := parexec.Resolve(pool)
	sc := beginDetect(w, src, p)
	defer putDetectScratch(sc)
	sc.job = scanJob{sc: sc, w: w}
	p.RunBody(w.N(), scanGrain, &sc.job)

	var st DetectStats
	var batches int64
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		track.ResetConflict()
		r := sc.res[i]
		st.PairChecks += int(r.Checks)
		batches += kernelBatches(r.Checks)
		if r.Critical() {
			st.Conflicts++
			markConflict(w, track, r.With, r.Tmin)
		}
	}
	sc.view.AddKernelBatches(batches)
	return st
}

// DetectResolveExec is DetectResolveWith on an explicit engine pool;
// nil means the process default. Results are identical at any worker
// count.
//
//atm:ordered-merge
func DetectResolveExec(w *airspace.World, src broadphase.PairSource, pool *parexec.Pool) DetectStats {
	p := parexec.Resolve(pool)
	sc := beginDetect(w, src, p)
	defer putDetectScratch(sc)
	replay := p.Workers() > 1
	if replay {
		// Parallel phase: scan every track against the pre-resolution
		// snapshot, and, where the replay tests envelopes rather than
		// table rows, record its reach envelope (a function of
		// position and speed only, both invariant across heading
		// commits).
		sc.job = scanJob{sc: sc, w: w, wantReach: sc.view.Table() == nil}
		p.RunBody(w.N(), scanGrain, &sc.job)
	}

	// Serial pass in index order: Algorithm 2 in place at one worker;
	// above that, the replay, which keeps a precomputed scan unless a
	// dirty aircraft (one whose heading has been committed) can reach
	// it (see stale).
	var st DetectStats
	var batches int64
	c := &sc.cols
	b := &sc.bufs[0]
	dirty := sc.dirty[:0]
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		r := sc.res[i]
		if !replay || sc.stale(w, i, dirty) {
			r = Scan(c, &sc.view, w, b, i, track.DX, track.DY)
		}
		probes, resolved := ResolveInPlace(c, &sc.view, w, b, i, r, &st)
		batches += int64(1+probes) * kernelBatches(r.Checks)
		if resolved {
			dirty = append(dirty, int32(i))
			sc.dirtyBits[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	for _, j := range dirty {
		sc.dirtyBits[j>>6] = 0
	}
	sc.dirty = dirty[:0]
	sc.view.AddKernelBatches(batches)
	return st
}

// ResolveInPlace is Algorithm 2's step for the track at index i once
// r, its scan on its committed course, is known: it clears the track's
// conflict fields and, if r is critical, marks the conflict and probes
// the rotation schedule with one Scan per trial heading, committing the
// first conflict-free heading in place — to the record and, through
// SetVel, to the column snapshot c. It accounts the track in st and
// returns the number of headings it probed and whether it committed
// one. The tasks runner and the AP's detection program both run it.
//
// Every probe is handed the candidate list of r: candidate sets depend
// only on positions and speeds, rotation keeps speed, and v is prepared
// once per invocation. So every probe has r's Cands and Checks, and a
// caller charges the track's 1+probes scans from r alone.
//
//atm:noalloc
func ResolveInPlace(c *airspace.Columns, v *broadphase.View, w *airspace.World, b *ScanBuf, i int, r ScanResult, st *DetectStats) (probes int, resolved bool) {
	track := &w.Aircraft[i]
	track.ResetConflict()
	st.PairChecks += int(r.Checks)
	if !r.Critical() {
		return 0, false
	}
	st.Conflicts++
	markConflict(w, track, r.With, r.Tmin)

	base := geom.Vec2{X: track.DX, Y: track.DY}
	for _, deg := range rotationSchedule {
		probes++
		st.Rotations++
		h := base.Rotate(deg)
		track.BatX, track.BatY = h.X, h.Y
		pr := Scan(c, v, w, b, i, h.X, h.Y)
		st.PairChecks += int(pr.Checks)
		if !pr.Critical() {
			track.DX, track.DY = h.X, h.Y
			c.SetVel(i, h.X, h.Y)
			track.ResetConflict()
			st.Resolved++
			return probes, true
		}
		markConflict(w, track, pr.With, pr.Tmin)
	}
	st.Unresolved++
	return probes, false
}
