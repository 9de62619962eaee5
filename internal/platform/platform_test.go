package platform

import (
	"testing"

	"repro/internal/airspace"
	"repro/internal/radar"
	"repro/internal/rng"
)

func TestRegistryCoversAllNames(t *testing.T) {
	for _, name := range Names() {
		p, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Fatalf("platform %q has empty name", name)
		}
	}
}

func TestUnknownName(t *testing.T) {
	if _, err := New("cray-1", 1); err == nil {
		t.Fatal("unknown platform did not error")
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew with bad name did not panic")
		}
	}()
	MustNew("nope", 1)
}

func TestNVIDIANamesSubset(t *testing.T) {
	all := map[string]bool{}
	for _, n := range Names() {
		all[n] = true
	}
	nv := NVIDIANames()
	if len(nv) != 3 {
		t.Fatalf("NVIDIANames = %v", nv)
	}
	for _, n := range nv {
		if !all[n] {
			t.Fatalf("NVIDIA name %q not in registry", n)
		}
	}
}

func TestDeterminismFlags(t *testing.T) {
	// The paper's taxonomy: CUDA and AP timing is deterministic, the
	// multicore's is not.
	want := map[string]bool{
		GeForce9800GT: true, GTX880M: true, TitanXPascal: true,
		STARAN: true, ClearSpeed: true,
		Xeon16: false,
	}
	for name, det := range want {
		if got := MustNew(name, 1).Deterministic(); got != det {
			t.Errorf("%s: Deterministic = %v, want %v", name, got, det)
		}
	}
}

// Every platform must be able to run both tasks end to end on the same
// traffic without corrupting it.
func TestAllPlatformsRunBothTasks(t *testing.T) {
	base := airspace.NewWorld(300, rng.New(3))
	baseFrame := radar.Generate(base, radar.DefaultNoise, rng.New(4))
	for _, name := range Names() {
		p := MustNew(name, 7)
		w := base.Clone()
		f := baseFrame.Clone()
		if d := p.Track(w, f); d <= 0 {
			t.Errorf("%s: Track returned %v", name, d)
		}
		if d := p.DetectResolve(w); d <= 0 {
			t.Errorf("%s: DetectResolve returned %v", name, d)
		}
		if w.N() != base.N() {
			t.Errorf("%s: world size changed", name)
		}
		for i := range w.Aircraft {
			if !airspace.InField(w.Aircraft[i].X, w.Aircraft[i].Y) {
				// One period of travel beyond the edge is legal before
				// the next wrap; anything further is corruption.
				maxStep := airspace.SpeedMax / airspace.PeriodsPerHour
				if w.Aircraft[i].X < -airspace.FieldHalf-maxStep ||
					w.Aircraft[i].X > airspace.FieldHalf+maxStep ||
					w.Aircraft[i].Y < -airspace.FieldHalf-maxStep ||
					w.Aircraft[i].Y > airspace.FieldHalf+maxStep {
					t.Errorf("%s: aircraft %d at (%v,%v)", name, i, w.Aircraft[i].X, w.Aircraft[i].Y)
				}
			}
		}
	}
}

// TestTrackResetsReusedFrame: Frame.Reset's contract lets a frame be
// reused across calls and platforms, so every platform's Track must
// start from an unmatched frame. A frame already correlated once gives
// the same world, frame and modeled time as a fresh clone. The two
// platforms are built from one seed and issue the same calls at one
// worker, so xeon16's jitter and arbitration line up too.
func TestTrackResetsReusedFrame(t *testing.T) {
	base := airspace.NewWorld(1000, rng.New(7))
	frame := radar.Generate(base, radar.DefaultNoise, rng.New(8))
	for _, name := range append(Names(), ExtensionNames()...) {
		reused, fresh := MustNew(name, 7), MustNew(name, 7)
		reused.(Workered).SetWorkers(1)
		fresh.(Workered).SetWorkers(1)
		usedF := frame.Clone()
		reused.Track(base.Clone(), usedF)
		fresh.Track(base.Clone(), frame.Clone())

		usedW, freshW, freshF := base.Clone(), base.Clone(), frame.Clone()
		usedD := reused.Track(usedW, usedF)
		freshD := fresh.Track(freshW, freshF)
		if usedD != freshD {
			t.Errorf("%s: Track on a reused frame took %v, on a fresh one %v", name, usedD, freshD)
		}
		for i := range freshW.Aircraft {
			if usedW.Aircraft[i] != freshW.Aircraft[i] {
				t.Errorf("%s: aircraft %d differs after Track on a reused frame", name, i)
				break
			}
		}
		for j := range freshF.Reports {
			if usedF.Reports[j] != freshF.Reports[j] {
				t.Errorf("%s: report %d differs after Track on a reused frame", name, j)
				break
			}
		}
	}
}

// Fig. 4/6 ordering at a mid-sweep point: every NVIDIA device model
// must beat the AP, the ClearSpeed emulation and the Xeon on both
// tasks.
func TestNVIDIAFasterThanOthers(t *testing.T) {
	base := airspace.NewWorld(4000, rng.New(9))
	baseFrame := radar.Generate(base, radar.DefaultNoise, rng.New(10))
	times := map[string]float64{}
	for _, name := range Names() {
		p := MustNew(name, 11)
		w := base.Clone()
		f := baseFrame.Clone()
		times[name] = p.Track(w, f).Seconds()
	}
	for _, nv := range NVIDIANames() {
		for _, other := range []string{STARAN, ClearSpeed, Xeon16} {
			if times[nv] >= times[other] {
				t.Errorf("Task 1 at 4000 aircraft: %s (%vs) not faster than %s (%vs)",
					nv, times[nv], other, times[other])
			}
		}
	}
}
