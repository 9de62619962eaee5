package broadphase

import "repro/internal/airspace"

// UpdateStats counts the work of an index maintained incrementally
// across Prepare calls. No source maintains one; the sweep reports zero
// counts.
//
// Deprecated: kept for callers that drain it.
type UpdateStats struct {
	// Updates counts Prepare calls that updated the index in place;
	// Rebuilds those that built it from scratch.
	Updates, Rebuilds int64
	// Moved and Resorted describe the update effort.
	Moved, Resorted int64
}

// Maintainer is implemented by pair sources that report incremental
// index maintenance. The sweep implements it with stubs: it builds its
// index from the current envelopes on every Prepare.
//
// Deprecated: kept for callers that drain UpdateStats.
type Maintainer interface {
	PairSource
	// Incremental reports whether incremental maintenance is enabled on
	// this instance.
	Incremental() bool
	// LastPrepareIncremental reports whether the most recent Prepare
	// updated the index in place rather than rebuilding it.
	LastPrepareIncremental() bool
	// TakeUpdateStats drains the maintenance counters. Sequential, like
	// Prepare.
	TakeUpdateStats() UpdateStats
}

// ColumnsPreparer is implemented by pair sources whose index can be
// built from a column (SoA) snapshot of the world. PrepareColumns is
// Prepare on the same world state: bit-identical candidates, but the
// build shares the dense arrays the caller's scan loops already use.
type ColumnsPreparer interface {
	PrepareColumns(c *airspace.Columns)
}

// Options is ignored: NewWith builds what New builds.
//
// Deprecated: the sweep has one behaviour; use New.
type Options struct {
	// Deprecated: ignored.
	Incremental bool
	// Deprecated: ignored; the sweep always builds its candidate table.
	Sharded bool
}

// NewWith returns New(name); the options are ignored.
//
// Deprecated: use New.
func NewWith(name string, _ Options) (PairSource, error) { return New(name) }

// MaintainerOf returns the Maintainer behind src, unwrapping decorators
// such as Counted, or nil if the underlying source has none.
//
// Deprecated: no source maintains its index incrementally.
func MaintainerOf(src PairSource) Maintainer {
	m, _ := find[Maintainer](src)
	return m
}

// find returns the first source along src's Unwrap chain, src itself
// first, that implements T.
func find[T any](src PairSource) (T, bool) {
	for src != nil {
		if t, ok := src.(T); ok {
			return t, true
		}
		u, ok := src.(interface{ Unwrap() PairSource })
		if !ok {
			break
		}
		src = u.Unwrap()
	}
	var zero T
	return zero, false
}
