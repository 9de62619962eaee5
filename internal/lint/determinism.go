package lint

import (
	"go/ast"
	"go/types"
)

// DeterministicPackages lists the packages whose results must be a
// pure function of (workload, seed): the reference tasks, the host
// execution engine, broad-phase pruning, all four platform executors
// and the multicore model two of them share, and the seeded generator
// itself. The determinism analyzer is a no-op elsewhere.
var DeterministicPackages = map[string]bool{
	"repro/internal/tasks":      true,
	"repro/internal/parexec":    true,
	"repro/internal/broadphase": true,
	"repro/internal/cuda":       true,
	"repro/internal/ap":         true,
	"repro/internal/mimd":       true,
	"repro/internal/vector":     true,
	"repro/internal/cores":      true,
	"repro/internal/rng":        true,
	// Scenario generation is a pure function of (spec, n, rng state);
	// any time/map/goroutine dependence would break the conformance
	// harness's cross-platform world fixtures.
	"repro/internal/scenario": true,
	// The telemetry recorder feeds from deterministic packages and its
	// stream must be worker-invariant; the live subpackage (HTTP
	// snapshots, outside the contract) is deliberately not listed.
	"repro/internal/telemetry": true,
}

// parexecPath is the one package allowed to own goroutines and
// synchronization: every other deterministic package must route host
// parallelism through it.
const parexecPath = "repro/internal/parexec"

// wallClockFuncs are the time-package functions that read or schedule
// against the host's wall clock. time.Duration arithmetic is fine —
// modeled time is represented as time.Duration throughout.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
}

// Determinism flags constructs whose behaviour depends on runtime
// scheduling, global process state, or Go-release-specific algorithms
// inside the designated deterministic packages.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc: "flag nondeterministic constructs (map iteration, global math/rand, wall-clock reads, " +
		"raw goroutines and sync primitives outside internal/parexec, multi-case selects) in deterministic packages",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !DeterministicPackages[pass.PkgPath] {
		return nil
	}
	inParexec := pass.PkgPath == parexecPath
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		WalkFuncStack(f, func(n ast.Node, stack []ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				tv, ok := pass.TypesInfo.Types[n.X]
				if ok && tv.Type != nil {
					if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
						if !pass.Dirs.Allowed(RuleMapRange, n.Pos(), stack) {
							pass.Reportf(n.Pos(), "range over a map iterates in nondeterministic order; iterate indices or a sorted key slice instead (waive with //atm:allow maprange -- why)")
						}
					}
				}
			case *ast.GoStmt:
				if !inParexec && !pass.Dirs.Allowed(RuleGoStmt, n.Pos(), stack) {
					pass.Reportf(n.Pos(), "raw go statement outside internal/parexec; route host parallelism through the parexec engine so chunking and merge order stay deterministic (waive with //atm:allow gostmt -- why)")
				}
			case *ast.SelectStmt:
				comm := 0
				for _, cl := range n.Body.List {
					if c, ok := cl.(*ast.CommClause); ok && c.Comm != nil {
						comm++
					}
				}
				if comm >= 2 && !pass.Dirs.Allowed(RuleMultiSelect, n.Pos(), stack) {
					pass.Reportf(n.Pos(), "select with %d comm cases picks pseudo-randomly among ready cases; restructure so at most one case can be ready (waive with //atm:allow multiselect -- why)", comm)
				}
			case *ast.SelectorExpr:
				// Methods on sync/atomic value types (atomic.Int64.Add,
				// ...) are the same scheduler-dependent primitive as the
				// package-level funcs; the qualifier switch below cannot
				// see them because the receiver is a field or local, so
				// they are matched through the selection's method object.
				if !inParexec {
					if sel, ok := pass.TypesInfo.Selections[n]; ok && sel.Kind() == types.MethodVal {
						if m, ok := sel.Obj().(*types.Func); ok && m.Pkg() != nil && m.Pkg().Path() == "sync/atomic" {
							if !pass.Dirs.Allowed(RuleAtomic, n.Pos(), stack) {
								pass.Reportf(n.Pos(), "sync/atomic method %s.%s outside internal/parexec: atomic update order is scheduler-dependent; only order-independent reductions (sums, maxima) are safe, and those belong in per-chunk partials (waive with //atm:allow atomic -- why)", sel.Recv().String(), n.Sel.Name)
							}
						}
					}
				}
				switch pkg := pkgNameOf(pass.TypesInfo, n.X); pkg {
				case "math/rand", "math/rand/v2":
					if !pass.Dirs.Allowed(RuleGlobalRand, n.Pos(), stack) {
						pass.Reportf(n.Pos(), "%s.%s: math/rand is globally seeded and its algorithms change across Go releases; use the pinned internal/rng generator (waive with //atm:allow globalrand -- why)", pkg, n.Sel.Name)
					}
				case "time":
					if wallClockFuncs[n.Sel.Name] && !pass.Dirs.Allowed(RuleWallClock, n.Pos(), stack) {
						pass.Reportf(n.Pos(), "time.%s reads the host wall clock inside a deterministic package; modeled time must derive from operation tallies only (waive with //atm:allow wallclock -- why)", n.Sel.Name)
					}
				case "sync":
					// sync.Pool is exempt: pooled scratch is
					// content-agnostic, so reuse order cannot leak into
					// results.
					if !inParexec && n.Sel.Name != "Pool" && !pass.Dirs.Allowed(RuleSync, n.Pos(), stack) {
						pass.Reportf(n.Pos(), "sync.%s outside internal/parexec: lock acquisition order is scheduler-dependent; use parexec chunking with per-chunk partials (waive with //atm:allow sync -- why)", n.Sel.Name)
					}
				case "sync/atomic":
					if !inParexec && !pass.Dirs.Allowed(RuleAtomic, n.Pos(), stack) {
						pass.Reportf(n.Pos(), "sync/atomic.%s outside internal/parexec: atomic update order is scheduler-dependent; only order-independent reductions (sums, maxima) are safe, and those belong in per-chunk partials (waive with //atm:allow atomic -- why)", n.Sel.Name)
					}
				}
			}
			return true
		})
	}
	return nil
}
