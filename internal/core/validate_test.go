package core

import (
	"errors"
	"strings"
	"testing"
)

func validParams() RunParams {
	return RunParams{Platform: "titanx", N: 1000, Periods: 16, Workers: 0, PairSource: "sweep"}
}

func TestValidateAccepts(t *testing.T) {
	cases := []func(*RunParams){
		func(p *RunParams) {},                      // fully specified
		func(p *RunParams) { p.Platform = "" },     // front end without a platform knob
		func(p *RunParams) { p.PairSource = "" },   // all-pairs
		func(p *RunParams) { p.Workers = 8 },       // pinned pool
		func(p *RunParams) { p.Platform = "avx2" }, // extension machine
		func(p *RunParams) { p.Platform = "xeon16" },
		func(p *RunParams) { p.Scenario = "circle" },
		func(p *RunParams) { p.Scenario = "burst:waves=2,interval=30" },
		func(p *RunParams) { p.Scenario = "uniform" },
	}
	for i, mutate := range cases {
		p := validParams()
		mutate(&p)
		if err := p.Validate(); err != nil {
			t.Errorf("case %d: Validate(%+v) = %v, want nil", i, p, err)
		}
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*RunParams)
		want   string
	}{
		{"zero n", func(p *RunParams) { p.N = 0 }, "positive aircraft count"},
		{"negative n", func(p *RunParams) { p.N = -5 }, "positive aircraft count"},
		{"zero periods", func(p *RunParams) { p.Periods = 0 }, "scheduling periods"},
		{"negative periods", func(p *RunParams) { p.Periods = -16 }, "scheduling periods"},
		{"negative workers", func(p *RunParams) { p.Workers = -1 }, "worker count"},
		{"unknown platform", func(p *RunParams) { p.Platform = "cray1" }, `unknown platform "cray1"`},
		{"unknown pair source", func(p *RunParams) { p.PairSource = "octree" }, `unknown pair source "octree"`},
		{"unknown scenario family", func(p *RunParams) { p.Scenario = "warp" }, "bad scenario (-scenario)"},
		{"bad scenario key", func(p *RunParams) { p.Scenario = "circle:waves=3" }, "unknown key"},
		{"bad scenario value", func(p *RunParams) { p.Scenario = "circle:radius=-4" }, "radius must be"},
		{"malformed scenario", func(p *RunParams) { p.Scenario = "circle:radius" }, "want key=value"},
		{"scenario over capacity", func(p *RunParams) { p.Scenario = "streams"; p.N = 30000 }, "lanes"},
	}
	for _, tc := range cases {
		p := validParams()
		tc.mutate(&p)
		err := p.Validate()
		if err == nil {
			t.Errorf("%s: Validate(%+v) = nil, want error", tc.name, p)
			continue
		}
		var verr *ValidationError
		if !errors.As(err, &verr) {
			t.Errorf("%s: error %v is not a *ValidationError", tc.name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateListsKnownNames(t *testing.T) {
	p := validParams()
	p.Platform = "nope"
	err := p.Validate()
	if err == nil {
		t.Fatal("want error")
	}
	for _, name := range []string{"titanx", "staran", "xeon16", "avx2"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("platform error %q should list %q", err, name)
		}
	}
}

func TestKnownPlatform(t *testing.T) {
	for _, name := range []string{"9800gt", "gtx880m", "titanx", "staran", "clearspeed", "xeon16", "xeonphi", "avx2"} {
		if !KnownPlatform(name) {
			t.Errorf("KnownPlatform(%q) = false, want true", name)
		}
	}
	if KnownPlatform("") || KnownPlatform("cray1") {
		t.Error("KnownPlatform accepted an unknown name")
	}
}
