package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the atmsim executable:
// with ATMSIM_RUN_MAIN set the process runs main() instead of the
// tests, so exit-code tests below need no separate build step.
func TestMain(m *testing.M) {
	if os.Getenv("ATMSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func runSelf(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "ATMSIM_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("running %v: %v\n%s", args, err, out)
	}
	return string(out), ee.ExitCode()
}

// TestBadFlagsAreUsageErrors: configurations rejected by
// core.RunParams.Validate exit with status 2 before any simulation
// work, with the validation message on stderr.
func TestBadFlagsAreUsageErrors(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantSub string
	}{
		{"unknown scenario family", []string{"-scenario", "warp"}, "unknown family"},
		{"bad scenario value", []string{"-scenario", "circle:radius=-4"}, "radius must be"},
		{"scenario over capacity", []string{"-scenario", "streams", "-n", "30000"}, "lanes"},
		{"zero aircraft", []string{"-n", "0"}, "positive aircraft count"},
		{"unknown platform", []string{"-platform", "cray1"}, "unknown platform"},
		{"removed grid source", []string{"-pairsource", "grid"}, "known: brute, sweep"},
	}
	for _, tc := range cases {
		out, code := runSelf(t, tc.args...)
		if code != 2 {
			t.Errorf("%s: exit %d, want 2\n%s", tc.name, code, out)
		}
		if !strings.Contains(out, tc.wantSub) {
			t.Errorf("%s: output %q does not mention %q", tc.name, out, tc.wantSub)
		}
	}
}

// TestScenarioRunSucceeds: a tiny structured-traffic run completes with
// exit 0 and reports the canonical scenario spec.
func TestScenarioRunSucceeds(t *testing.T) {
	out, code := runSelf(t, "-platform", "titanx", "-n", "40", "-cycles", "1", "-scenario", "circle:radius=20")
	if code != 0 {
		t.Fatalf("exit %d, want 0\n%s", code, out)
	}
	if !strings.Contains(out, "scenario : circle:") {
		t.Errorf("output missing the canonical scenario line:\n%s", out)
	}
}
