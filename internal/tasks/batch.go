// Table-path execution of Detect/DetectResolve: a pair source that
// builds a candidate table (the production sweep) feeding the
// branch-free batched pair kernel.
//
// The control flow mirrors the record path in parallel.go statement
// for statement; three things change, all bit-identical to it:
//
//   - Every value the scan reads — positions, velocities, altitudes —
//     comes from an airspace.Columns snapshot that FillFrom copies out
//     of the aircraft records at invocation start and that every
//     heading commit updates in lockstep (SetVel), so each comparison
//     evaluates on exactly the float64 the record path would read. The
//     altitude filter rejects ~95% of candidates, and in column form
//     that rejection touches one dense 8-byte element instead of a
//     whole Aircraft record. The self-skip compares indices where the
//     record path compares IDs; these are equivalent by the ID == index
//     invariant (SetupFlight assigns ID = index and no task reassigns
//     it), which the sweep's envelope arrays already rely on.
//
//   - Candidates come from a broadphase.PairTable the source builds
//     once per invocation with a worker-parallel walk of its sorted
//     order, instead of a bitmap query per scan. Reuse is exact: a
//     track's candidate set depends only on positions and speeds,
//     heading commits preserve speed, and the index is never
//     re-prepared within an invocation, so every rotation probe and
//     every dirty-replay rescan reads exactly the slice a fresh
//     AppendCandidates call would emit.
//
//   - The pair loop is scanTableBatch: a compaction pass applies the
//     self-skip and altitude filters, then the survivors are evaluated
//     in unrolled blocks of 8 with branch-free min/max time-band
//     intersection. The equivalence argument is spelled out at the
//     kernel.
//
// Every scan — scan phase, probes, rescans — is one kernel call over
// the track's full candidate slice in every discipline and at every
// worker count, so the drained batch counter is as worker-invariant as
// the results themselves.
package tasks

import (
	"repro/internal/airspace"
	"repro/internal/broadphase"
	"repro/internal/geom"
	"repro/internal/parexec"
)

// kernelBatch is the batched kernel's block width: 8 candidate pairs
// per unrolled iteration, the natural SIMD shape for float64 lanes.
const kernelBatch = 8

// scanTableBatch is the branch-free batched form of the fused Task 2+3
// pair kernel. It folds the candidates cand of the track at index ti —
// at (tx, ty, talt), probing velocity (vx, vy) — into r, using keep as
// the compaction buffer (returned so the caller can retain its growth).
//
// Stage 1 compacts the candidates that survive the self-skip and the
// altitude band (the ~95% reject) into keep; the survivor count is the
// pair-check tally, exactly as the scalar kernel counts before its
// window test. Stage 2 consumes survivors in blocks of kernelBatch SoA
// lanes with hoisted track scalars and no branches in the window math,
// then a scalar tail finishes the remainder in the same arithmetic.
//
// Equivalence to PairConflictAt + the scalar fold, case by case: with
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
// every stored tmin is bit-identical to the scalar kernel's, and the
// in-order strict-< fold preserves its first-wins tie-break.
//
// Bounds checks: the length guard over the hoisted column locals
// teaches the prove pass that every column covers [0, n) (fillColumns'
// idiom), candidate IDs are range-checked with a single never-taken
// uint compare per lane (an out-of-range ID gets the empty window, the
// same verdict an impossible candidate would earn), and blocks are
// consumed by reslicing rest so the constant block length is visible
// to the prover. The gate holds the whole kernel bounds-check-free.
//
//atm:noalloc
//atm:noescape
//atm:nobce
func scanTableBatch(c *airspace.Columns, keep []int32, ti int, tx, ty, vx, vy, talt float64, cand []int32, r *scanResult) []int32 {
	keep = keep[:0]
	xs, ys, dxs, dys, alts := c.X, c.Y, c.DX, c.DY, c.Alt
	n := len(xs)
	if len(ys) < n || len(dxs) < n || len(dys) < n || len(alts) < n {
		return keep // columns are always filled to equal length
	}
	for _, p := range cand {
		q := int(p)
		if uint(q) < uint(n) && q != ti && AltOverlapAt(talt, alts[q]) {
			keep = append(keep, p)
		}
	}
	nk := len(keep)
	r.checks += int32(nk)
	if nk == 0 {
		return keep
	}
	r.batches += int32((nk + kernelBatch - 1) / kernelBatch)
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
			if blo[l] < bhi[l] && blo[l] < r.tmin {
				r.tmin = blo[l]
				r.with = blk[l]
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
		if tlo < thi && tlo < r.tmin {
			r.tmin = tlo
			r.with = p
		}
	}
	return keep
}

// scanTableOne runs one full scan of the track at index ti with probe
// velocity (vx, vy), serving candidates from the table. Probe scans are
// deliberately never fanned out: table candidate sets are short (the
// broad phase has already pruned), so one kernel call is both the fast
// path and the reason the batch tally cannot depend on worker count.
//
//atm:noalloc
//atm:noescape
func scanTableOne(c *airspace.Columns, tab *broadphase.PairTable, ti int, vx, vy float64, sc *detectScratch) scanResult {
	r := scanResult{tmin: airspace.SafeTime, with: airspace.NoConflict}
	sc.bufs[0].cand = scanTableBatch(c, sc.bufs[0].cand, ti, c.X[ti], c.Y[ti], vx, vy, c.Alt[ti], tab.Candidates(ti), &r)
	return r
}

// tableScanJob is the parallel scan phase's persistent body: one chunk
// of tracks, each scanned once against the pre-resolution snapshot via
// the batched kernel. Held in detectScratch so RunBody dispatch
// allocates nothing.
type tableScanJob struct {
	sc        *detectScratch
	w         *airspace.World
	tab       *broadphase.PairTable
	wantReach bool
}

//atm:noalloc
func (j *tableScanJob) Chunk(worker, lo, hi int) {
	sc := j.sc
	c := &sc.cols
	for i := lo; i < hi; i++ {
		track := &j.w.Aircraft[i]
		if j.wantReach {
			sc.reach[i] = broadphase.ReachAt(c.DX[i], c.DY[i])
		}
		r := scanResult{tmin: airspace.SafeTime, with: airspace.NoConflict}
		sc.bufs[worker].cand = scanTableBatch(c, sc.bufs[worker].cand, i, c.X[i], c.Y[i], track.DX, track.DY, c.Alt[i], j.tab.Candidates(i), &r)
		sc.res[i] = r
	}
}

// prepareTableCols refreshes the scratch columns, builds the pair-source
// index (from the columns when the source supports it), hands the
// engine pool to the source, and materializes the candidate table —
// nil when it would pass the source's size limit.
func prepareTableCols(w *airspace.World, src broadphase.PairSource, ts broadphase.TableSource, p *parexec.Pool, sc *detectScratch) *broadphase.PairTable {
	sc.cols.FillFrom(w)
	ts.SetPool(p)
	if m := broadphase.MaintainerOf(src); m != nil {
		if cp, ok := m.(broadphase.ColumnsPreparer); ok {
			cp.PrepareColumns(&sc.cols)
			return ts.PrepareTable()
		}
	}
	src.Prepare(w)
	return ts.PrepareTable()
}

// detectTable is DetectExec's table path.
//
//atm:ordered-merge
func detectTable(w *airspace.World, ts broadphase.TableSource, tab *broadphase.PairTable, p *parexec.Pool, sc *detectScratch) DetectStats {
	var st DetectStats
	n := w.N()
	c := &sc.cols
	var batches int64

	if p.Workers() > 1 {
		sc.tjob = tableScanJob{sc: sc, w: w, tab: tab}
		p.RunBody(n, scanGrain, &sc.tjob)
	} else {
		for i := range w.Aircraft {
			track := &w.Aircraft[i]
			sc.res[i] = scanTableOne(c, tab, i, track.DX, track.DY, sc)
		}
	}
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		track.ResetConflict()
		r := sc.res[i]
		st.PairChecks += int(r.checks)
		batches += int64(r.batches)
		if r.tmin < airspace.CriticalTime {
			st.Conflicts++
			MarkConflict(w, track, r.with, r.tmin)
		}
	}
	ts.AddKernelBatches(batches)
	return st
}

// detectResolveTable is DetectResolveExec's table path. Control flow
// is DetectResolveExec's — snapshot scan phase, serial replay with the
// dirty-envelope rescan rule — with heading commits written through to
// the columns and every scan served from the table through the batched
// kernel.
//
//atm:ordered-merge
func detectResolveTable(w *airspace.World, ts broadphase.TableSource, tab *broadphase.PairTable, p *parexec.Pool, sc *detectScratch) DetectStats {
	var st DetectStats
	n := w.N()
	c := &sc.cols
	var batches int64

	if p.Workers() == 1 {
		for i := range w.Aircraft {
			resolveOneSerialTable(w, c, tab, &w.Aircraft[i], &st, &batches, sc)
		}
		ts.AddKernelBatches(batches)
		return st
	}

	sc.tjob = tableScanJob{sc: sc, w: w, tab: tab, wantReach: true}
	p.RunBody(n, scanGrain, &sc.tjob)

	dirty := sc.dirty[:0]
	for i := range w.Aircraft {
		track := &w.Aircraft[i]
		r := sc.res[i]
		if dirtyInteracts(w, sc, track, dirty) {
			r = scanTableOne(c, tab, i, track.DX, track.DY, sc)
		}
		track.ResetConflict()
		st.PairChecks += int(r.checks)
		batches += int64(r.batches)
		if !(r.tmin < airspace.CriticalTime) {
			continue
		}
		st.Conflicts++
		MarkConflict(w, track, r.with, r.tmin)

		base := geom.Vec2{X: track.DX, Y: track.DY}
		resolved := false
		for _, deg := range rotationSchedule {
			st.Rotations++
			v := base.Rotate(deg)
			track.BatX, track.BatY = v.X, v.Y
			pr := scanTableOne(c, tab, i, v.X, v.Y, sc)
			st.PairChecks += int(pr.checks)
			batches += int64(pr.batches)
			if !(pr.tmin < airspace.CriticalTime) {
				track.DX, track.DY = v.X, v.Y
				c.SetVel(i, v.X, v.Y)
				track.ResetConflict()
				st.Resolved++
				resolved = true
				dirty = append(dirty, int32(i))
				break
			}
			MarkConflict(w, track, pr.with, pr.tmin)
		}
		if !resolved {
			st.Unresolved++
		}
	}
	sc.dirty = dirty[:0]
	ts.AddKernelBatches(batches)
	return st
}

// resolveOneSerialTable is resolveOneSerial on the columns, serving
// candidates from the table.
//
//atm:noalloc
func resolveOneSerialTable(w *airspace.World, c *airspace.Columns, tab *broadphase.PairTable, track *airspace.Aircraft, st *DetectStats, batches *int64, sc *detectScratch) {
	ti := int(track.ID)
	track.ResetConflict()
	r := scanTableOne(c, tab, ti, track.DX, track.DY, sc)
	st.PairChecks += int(r.checks)
	*batches += int64(r.batches)
	if !(r.tmin < airspace.CriticalTime) {
		return
	}
	st.Conflicts++
	MarkConflict(w, track, r.with, r.tmin)

	base := geom.Vec2{X: track.DX, Y: track.DY}
	for _, deg := range rotationSchedule {
		st.Rotations++
		v := base.Rotate(deg)
		track.BatX, track.BatY = v.X, v.Y
		pr := scanTableOne(c, tab, ti, v.X, v.Y, sc)
		st.PairChecks += int(pr.checks)
		*batches += int64(pr.batches)
		if !(pr.tmin < airspace.CriticalTime) {
			track.DX, track.DY = v.X, v.Y
			c.SetVel(ti, v.X, v.Y)
			track.ResetConflict()
			st.Resolved++
			return
		}
		MarkConflict(w, track, pr.with, pr.tmin)
	}
	st.Unresolved++
}
