// Task 1's bounding-box search, the one box search of every executor.

package tasks

import (
	"slices"

	"repro/internal/airspace"
	"repro/internal/parexec"
	"repro/internal/radar"
)

// BoxHits is one pass of Task 1's bounding-box search: for each radar,
// the ascending indices of the aircraft whose boxHalf box around the
// expected position (ExpX, ExpY) strictly contains the radar fix. The
// rows are geometry only. Expected positions and the box size are
// fixed for a pass, so a row cannot go stale within it; which row
// members are still eligible (matched, withdrawn) is each caller's own
// rule, applied as it walks the row. The tasks replay, cuda's census
// launch, vector's census phase, mimd's census and the AP's per-radar
// control-unit loop all read these rows and charge their modeled cost
// from what they walk.
//
// A BoxHits is owned by one engine and reused across passes and
// calls; once its buffers have grown, Prepare and Row allocate
// nothing. It holds no reference to a world or frame between calls.
// It is not safe for concurrent Prepare calls.
type BoxHits struct {
	// Per radar: offset of its row in its owner worker's buffer, or -1
	// for a radar that was not Unmatched at Prepare; the row's length;
	// and the worker whose buffer holds it.
	start, length, owner []int32
	bufs                 []ScanBuf
	// job is Prepare's persistent body; its box size serves Row's
	// on-demand rows.
	job boxJob
}

// Prepare computes this pass's rows for every radar of f that is
// Unmatched now, fanned out per radar over pool (nil means the process
// default), and returns how many radars that is. w's expected
// positions must be current.
func (b *BoxHits) Prepare(w *airspace.World, f *radar.Frame, boxHalf float64, pool *parexec.Pool) (pending int) {
	p := parexec.Resolve(pool)
	nr := f.N()
	if cap(b.start) < nr {
		b.start = make([]int32, nr)
		b.length = make([]int32, nr)
		b.owner = make([]int32, nr)
	}
	b.start, b.length, b.owner = b.start[:nr], b.length[:nr], b.owner[:nr]
	if nw := p.Workers(); len(b.bufs) < nw {
		b.bufs = slices.Grow(b.bufs, nw-len(b.bufs))[:nw]
	}
	for k := range b.bufs {
		b.bufs[k].cand = b.bufs[k].cand[:0]
	}
	b.job = boxJob{b: b, ac: w.Aircraft, reps: f.Reports, boxHalf: boxHalf}
	for j := range f.Reports {
		if f.Reports[j].MatchWith == radar.Unmatched {
			pending++
		}
	}
	p.RunBody(nr, radarGrain, &b.job)
	b.job.ac, b.job.reps = nil, nil
	return pending
}

// Row returns radar j's row for the pass prepared on w and f. A radar
// that was not Unmatched at Prepare (one released by a withdrawal
// since) has no stored row; its row is computed into buf and stays
// valid until buf's next use. The returned slice must not be modified.
//
//atm:noalloc
func (b *BoxHits) Row(w *airspace.World, f *radar.Frame, buf *ScanBuf, j int) []int32 {
	if s := b.start[j]; s >= 0 {
		return b.bufs[b.owner[j]].cand[s : s+b.length[j]]
	}
	buf.cand = appendBoxRow(buf.cand[:0], w.Aircraft, &f.Reports[j], b.job.boxHalf)
	return buf.cand
}

// boxJob is Prepare's persistent RunBody body: the rows of a chunk of
// radars, appended to the worker's buffer.
type boxJob struct {
	b       *BoxHits
	ac      []airspace.Aircraft
	reps    []radar.Report
	boxHalf float64
}

//atm:noalloc
func (j *boxJob) Chunk(worker, lo, hi int) {
	b := j.b
	buf := b.bufs[worker].cand
	for r := lo; r < hi; r++ {
		if j.reps[r].MatchWith != radar.Unmatched {
			b.start[r] = -1
			continue
		}
		s := int32(len(buf))
		buf = appendBoxRow(buf, j.ac, &j.reps[r], j.boxHalf)
		b.start[r] = s
		b.length[r] = int32(len(buf)) - s
		b.owner[r] = int32(worker)
	}
	b.bufs[worker].cand = buf
}

// appendBoxRow appends to dst, in ascending order, the index of every
// aircraft whose box contains rep.
//
//atm:noalloc
func appendBoxRow(dst []int32, ac []airspace.Aircraft, rep *radar.Report, boxHalf float64) []int32 {
	for q := range ac {
		if inBox(rep, &ac[q], boxHalf) {
			dst = append(dst, int32(q))
		}
	}
	return dst
}
