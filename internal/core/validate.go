package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/broadphase"
	"repro/internal/platform"
	"repro/internal/scenario"
)

// ValidationError reports a front-end configuration rejected before any
// simulation work ran. Command-line front ends map it to exit code 2
// (usage error, distinct from runtime failures), the HTTP front end to
// 400 Bad Request.
type ValidationError struct {
	Msg string
}

func (e *ValidationError) Error() string { return e.Msg }

func validationErrorf(format string, args ...any) *ValidationError {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// RunParams carries the front-end knobs shared by atmsim, atmbench and
// atmserve, so the three binaries reject bad configurations through one
// helper with one set of messages. A front end that does not expose a
// knob pins it to a known-good value at the call site (atmbench fixes
// its own platforms and aircraft counts, for example) so Validate
// checks exactly the flags that are real.
type RunParams struct {
	// Platform is the machine registry key. Empty is skipped: it means
	// the front end selects platforms itself rather than "no platform".
	Platform string
	// N is the aircraft count; it must be positive.
	N int
	// Periods is the number of half-second scheduling periods to run;
	// it must be positive. Front ends whose knob is major cycles pass
	// cycles * sched.PeriodsPerMajorCycle, which rejects non-positive
	// cycle counts too.
	Periods int
	// Workers is the host worker-pool size. 0 selects the host default
	// (GOMAXPROCS) and is valid; negative counts are not.
	Workers int
	// Scenario is empty (the paper's uniform random setup) or a
	// scenario spec string ("family" or "family:key=val,...").
	Scenario string
	// PairSource is empty (the paper's all-pairs kernels) or a
	// registered broad-phase source name.
	PairSource string
}

// Validate checks every knob and returns a *ValidationError describing
// the first problem, or nil.
func (p RunParams) Validate() error {
	if p.N <= 0 {
		return validationErrorf("need a positive aircraft count (-n), got %d", p.N)
	}
	if p.Periods <= 0 {
		return validationErrorf("need a positive number of scheduling periods (non-positive -periods/-cycles), got %d", p.Periods)
	}
	if p.Workers < 0 {
		return validationErrorf("need a non-negative worker count (-workers; 0 = host default), got %d", p.Workers)
	}
	if p.Platform != "" && !KnownPlatform(p.Platform) {
		known := append(platform.Names(), platform.ExtensionNames()...)
		sort.Strings(known)
		return validationErrorf("unknown platform %q (known: %s)", p.Platform, strings.Join(known, ", "))
	}
	if p.PairSource != "" {
		if _, err := broadphase.New(p.PairSource); err != nil {
			return validationErrorf("unknown pair source %q (known: %s; empty = all-pairs)",
				p.PairSource, strings.Join(broadphase.Names(), ", "))
		}
	}
	if p.Scenario != "" {
		spec, err := scenario.ParseSpec(p.Scenario)
		if err != nil {
			return validationErrorf("bad scenario (-scenario): %v", err)
		}
		if err := spec.Validate(p.N); err != nil {
			return validationErrorf("bad scenario (-scenario): %v", err)
		}
	}
	return nil
}

// KnownPlatform reports whether name is a registered machine key
// (paper set or extension set).
func KnownPlatform(name string) bool {
	for _, n := range platform.Names() {
		if n == name {
			return true
		}
	}
	for _, n := range platform.ExtensionNames() {
		if n == name {
			return true
		}
	}
	return false
}
