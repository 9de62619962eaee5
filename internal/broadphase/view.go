package broadphase

import (
	"repro/internal/airspace"
	"repro/internal/parexec"
)

// View is one Tasks 2-3 invocation's candidate view, set up by
// Prepare. Its per-track lookup serves the identity list [0, n) when
// no pair source is installed (the paper's all-pairs scan), the row of
// the candidate table when the source built one, and a per-track query
// otherwise; all three yield an ascending set. A View is valid until
// its next Prepare or the source's next Prepare. Consumers keep one
// View across invocations: it holds the identity list, so a steady-
// state Prepare allocates nothing.
type View struct {
	src PairSource
	ts  TableSource
	tab *PairTable
	// all is the identity list. Every element up to its capacity is
	// filled, so reslicing it to any n within capacity serves [0, n).
	all []int32
}

// Prepare is every consumer's broad-phase set-up for one Tasks 2-3
// invocation. With a nil src the view serves every aircraft. Otherwise
// it prepares src for the world's current state — from cols when the
// caller holds a column snapshot of that state and the source builds
// from columns, from the records otherwise — and, when src builds a
// candidate table (the production sweep), hands it pool for the build
// and builds the table. nil pool keeps the build serial. Both
// capabilities are discovered along src's Unwrap chain as installed,
// so decorators such as Counted see every call they implement.
func (v *View) Prepare(src PairSource, w *airspace.World, cols *airspace.Columns, pool *parexec.Pool) {
	v.src, v.ts, v.tab = src, nil, nil
	if src == nil {
		n := w.N()
		if cap(v.all) < n {
			v.all = make([]int32, n)
			for i := range v.all {
				v.all[i] = int32(i)
			}
		}
		v.all = v.all[:n]
		return
	}
	if cp, ok := find[ColumnsPreparer](src); ok && cols != nil {
		cp.PrepareColumns(cols)
	} else {
		src.Prepare(w)
	}
	if ts := TableOf(src); ts != nil {
		v.ts = ts
		ts.SetPool(pool)
		v.tab = ts.PrepareTable()
	}
}

// Maintained reports whether the source builds the candidate table,
// whichever side of the table's size limit this invocation fell on.
// Executors name their index-build spans after it.
func (v *View) Maintained() bool { return v.ts != nil }

// Candidates returns track i's candidate set, ascending: the identity
// list with no source, the table row when there is a table, else a
// per-track query appended to *buf[:0], whose growth *buf keeps. The
// result is read-only and valid until the next call with the same buf.
// Safe for concurrent use with distinct bufs.
//
//atm:noalloc
func (v *View) Candidates(buf *[]int32, w *airspace.World, i int) []int32 {
	switch {
	case v.src == nil:
		return v.all
	case v.tab != nil:
		return v.tab.Candidates(i)
	}
	*buf = v.src.AppendCandidates((*buf)[:0], w, &w.Aircraft[i])
	return *buf
}

// AddKernelBatches forwards a consumer's batched-kernel iteration count
// to a maintained source's telemetry; other sources have none.
func (v *View) AddKernelBatches(n int64) {
	if v.ts != nil {
		v.ts.AddKernelBatches(n)
	}
}
