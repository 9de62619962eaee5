package broadphase

import "repro/internal/airspace"

// UpdateStats counts the index-maintenance work an incremental pair
// source performed since the last drain. The counters make temporal
// coherence observable: a healthy steady state shows Updates climbing
// with Rebuilds stuck at the initial build, and Moved staying well
// under the repair budget.
type UpdateStats struct {
	// Updates counts Prepare calls that repaired the previous order in
	// place; Rebuilds counts Prepare calls that ran a full sort (the
	// initial build, a world-size change, or a budget-exceeded
	// fallback).
	Updates, Rebuilds int64
	// Moved is the total insertion shifts spent by repairs; Resorted is
	// the number of elements found out of place.
	Moved, Resorted int64
}

// Maintainer is implemented by pair sources that can maintain their
// index incrementally across Prepare calls. Sources that always rebuild
// simply do not implement it.
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
	// Deprecated: ignored; the sweep always repairs its order in place.
	Incremental bool
	// Deprecated: ignored; the sweep always builds its candidate table.
	Sharded bool
}

// NewWith returns New(name); the options are ignored.
//
// Deprecated: use New.
func NewWith(name string, _ Options) (PairSource, error) { return New(name) }

// MaintainerOf returns the Maintainer behind src, unwrapping decorators
// such as Counted, or nil if the underlying source has none. Callers
// use it both to branch telemetry (update vs rebuild spans) and to
// drain UpdateStats.
func MaintainerOf(src PairSource) Maintainer {
	for src != nil {
		if m, ok := src.(Maintainer); ok {
			return m
		}
		u, ok := src.(interface{ Unwrap() PairSource })
		if !ok {
			return nil
		}
		src = u.Unwrap()
	}
	return nil
}
