package broadphase

import (
	"repro/internal/airspace"
	"repro/internal/parexec"
)

// View is one Tasks 2-3 invocation's candidate view of a pair source,
// returned by PrepareView. Its per-track lookup serves the row of the
// candidate table when the source built one and a per-track query
// otherwise; both yield the same ascending set. It is valid until the
// source's next Prepare.
type View struct {
	src PairSource
	ts  TableSource
	tab *PairTable
}

// PrepareView is every consumer's broad-phase set-up for one Tasks 2-3
// invocation. It prepares src for the world's current state — from
// cols when the caller holds a column snapshot of that state and the
// source builds from columns, from the records otherwise — and, when
// src builds a candidate table (the production sweep), hands it pool
// for the build and builds the table. nil pool keeps the build serial.
// Both capabilities are discovered along src's Unwrap chain as
// installed, so decorators such as Counted see every call they
// implement.
// A nil src yields the zero View; callers run their all-pairs scan
// instead of looking it up.
func PrepareView(src PairSource, w *airspace.World, cols *airspace.Columns, pool *parexec.Pool) View {
	v := View{src: src}
	if src == nil {
		return v
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
	return v
}

// Maintained reports whether the source builds the candidate table,
// whichever side of the table's size limit this invocation fell on.
// Executors name their index-build spans after it.
func (v *View) Maintained() bool { return v.ts != nil }

// Candidates returns track i's candidate set, ascending: the table row
// when there is a table, else a per-track query appended to *buf[:0],
// whose growth *buf keeps. The result is read-only and valid until the
// next call with the same buf. Safe for concurrent use with distinct
// bufs.
//
//atm:noalloc
func (v *View) Candidates(buf *[]int32, w *airspace.World, i int) []int32 {
	if v.tab != nil {
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
