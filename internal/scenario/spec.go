// Package scenario generates named traffic workloads for the simulated
// airfield. Every experiment before this package ran the paper's single
// workload — N uniform-random aircraft on the 256 x 256 nm torus — but
// conflict detection and resolution are stressed very differently by
// structured traffic: converging circle flows, crossing streams, dense
// sectors, altitude-banded layers and periodic arrival waves (the
// pattern families of conflict-resolution benchmark generators).
//
// A workload is selected by a compact spec string,
//
//	family:key=val,key=val
//
// parsed into a validated Spec. The empty spec and "uniform" reproduce
// the paper's random setup bit-exactly: generation draws from the same
// rng stream in the same order as airspace.NewWorld, so every golden
// measurement recorded before this package existed is unchanged.
//
// Generation is a pure function of (spec, n, rng state): the same spec
// and seed yield byte-identical worlds on every platform and Go
// version, which is what lets the conformance harness treat scenario
// worlds as cross-platform differential-test fixtures.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/airspace"
)

// Family names the built-in scenario generators.
type Family string

// The six scenario families.
const (
	// Uniform is the paper's Section 4.1 random setup (the default).
	Uniform Family = "uniform"
	// Circle places all aircraft on a circle converging on its center:
	// every aircraft is in conflict, the benchmark-generator classic.
	Circle Family = "circle"
	// Streams builds K crossing flows with fixed in-trail spacing.
	Streams Family = "streams"
	// Dense clusters traffic into tight sectors sharing one altitude
	// band, maximizing broad-phase candidate pairs.
	Dense Family = "dense"
	// Layers stacks altitude bands of parallel traffic with controlled
	// vertical gaps, exercising the altitude filter on both sides.
	Layers Family = "layers"
	// Burst launches opposed arrival waves timed so conflict load
	// arrives in periodic spikes — deadline stress.
	Burst Family = "burst"
)

// Families lists every family name in presentation order.
func Families() []Family {
	return []Family{Uniform, Circle, Streams, Dense, Layers, Burst}
}

// FamilyNames renders the family list for flag help and error text.
func FamilyNames() string {
	names := make([]string, len(Families()))
	for i, f := range Families() {
		names[i] = string(f)
	}
	return strings.Join(names, ", ")
}

// burstAltStep is the vertical separation between consecutive burst
// waves: each wave flies its own altitude band, well clear of
// airspace.AltBandFeet, so wave w only ever conflicts with its own
// opposing wave and conflict load stays periodic.
const burstAltStep = 2000.0

// maxTrailNM bounds in-trail spacing and lane gaps: beyond this the
// layout degenerates (rows stop fitting the field and the capacity
// arithmetic below loses meaning).
const maxTrailNM = 30.0

// Spec is a parsed, validated scenario description. Fields are shared
// across families; each family reads only its own keys (see the
// per-family key tables in ParseSpec) and Validate checks only those.
type Spec struct {
	Family Family

	// Radius is the circle radius (circle) or the cluster half-extent
	// (dense), in nautical miles.
	Radius float64
	// Speed is the common ground speed in knots (circle, streams,
	// burst).
	Speed float64
	// Alt is the base altitude in feet (all structured families).
	Alt float64
	// AltSpread scatters altitudes uniformly in [Alt-AltSpread,
	// Alt+AltSpread] (circle, dense).
	AltSpread float64
	// PhaseDeg rotates the circle's starting positions (circle).
	PhaseDeg float64
	// Streams is the number of crossing flows (streams).
	Streams int
	// AngleDeg is the heading increment between consecutive streams in
	// degrees (streams).
	AngleDeg float64
	// Spacing is the in-trail distance between consecutive aircraft of
	// one lane (streams) or between ranks and rows of a wave (burst),
	// in nautical miles.
	Spacing float64
	// LaneGap is the lateral distance between parallel lanes of one
	// stream (streams), in nautical miles.
	LaneGap float64
	// Clusters is the number of dense sectors (dense).
	Clusters int
	// Bands is the number of altitude bands (layers).
	Bands int
	// BandGap is the vertical distance between consecutive bands in
	// feet (layers). Below airspace.AltBandFeet adjacent bands conflict;
	// above it the vertical filter prunes them.
	BandGap float64
	// Waves is the number of opposed arrival waves (burst).
	Waves int
	// Interval is the arrival spacing between consecutive waves in
	// half-second periods (burst).
	Interval int
}

// DefaultSpec returns the family's spec with every parameter at its
// documented default.
func DefaultSpec(f Family) Spec {
	s := Spec{Family: f}
	switch f {
	case Uniform:
	case Circle:
		s.Radius, s.Speed, s.Alt, s.AltSpread, s.PhaseDeg = 100, 400, 20000, 0, 0
	case Streams:
		s.Streams, s.AngleDeg, s.Spacing, s.LaneGap, s.Speed, s.Alt = 4, 45, 6, 8, 400, 20000
	case Dense:
		s.Clusters, s.Radius, s.Alt, s.AltSpread = 8, 8, 20000, 400
	case Layers:
		s.Bands, s.BandGap, s.Alt = 6, 2000, 5000
	case Burst:
		s.Waves, s.Interval, s.Spacing, s.Speed, s.Alt = 4, 360, 6, 400, 10000
	}
	return s
}

// field describes one spec key of one family: a pointer into the Spec
// it was built for, float or integer.
type field struct {
	key string
	fl  *float64
	num *int // non-nil for integer keys; fl is nil then
}

// familyFields lists the accepted keys per family in canonical
// (String) order, bound to s's fields.
func familyFields(s *Spec) []field {
	switch s.Family {
	case Circle:
		return []field{
			{key: "radius", fl: &s.Radius},
			{key: "speed", fl: &s.Speed},
			{key: "alt", fl: &s.Alt},
			{key: "altspread", fl: &s.AltSpread},
			{key: "phase", fl: &s.PhaseDeg},
		}
	case Streams:
		return []field{
			{key: "streams", num: &s.Streams},
			{key: "angle", fl: &s.AngleDeg},
			{key: "spacing", fl: &s.Spacing},
			{key: "lanegap", fl: &s.LaneGap},
			{key: "speed", fl: &s.Speed},
			{key: "alt", fl: &s.Alt},
		}
	case Dense:
		return []field{
			{key: "clusters", num: &s.Clusters},
			{key: "radius", fl: &s.Radius},
			{key: "alt", fl: &s.Alt},
			{key: "altspread", fl: &s.AltSpread},
		}
	case Layers:
		return []field{
			{key: "bands", num: &s.Bands},
			{key: "gap", fl: &s.BandGap},
			{key: "alt", fl: &s.Alt},
		}
	case Burst:
		return []field{
			{key: "waves", num: &s.Waves},
			{key: "interval", num: &s.Interval},
			{key: "spacing", fl: &s.Spacing},
			{key: "speed", fl: &s.Speed},
			{key: "alt", fl: &s.Alt},
		}
	}
	return nil // uniform takes no keys
}

// knownFamily reports whether name is a registered family.
func knownFamily(name string) bool {
	for _, f := range Families() {
		if string(f) == name {
			return true
		}
	}
	return false
}

// familyNames returns the registered family names, sorted, for error
// messages.
func familyNames() string {
	fs := Families()
	names := make([]string, len(fs))
	for i, f := range fs {
		names[i] = string(f)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// ParseSpec parses "family" or "family:key=val,key=val" into a Spec
// with unspecified keys at their family defaults. The empty string
// selects the uniform family. ParseSpec checks syntax, key names and
// value ranges that do not depend on the aircraft count; callers that
// know n must also call Validate.
func ParseSpec(text string) (Spec, error) {
	if text == "" {
		return DefaultSpec(Uniform), nil
	}
	famName, params, hasParams := strings.Cut(text, ":")
	if famName == "" {
		return Spec{}, fmt.Errorf("scenario: empty family in spec %q (known: %s)", text, familyNames())
	}
	if !knownFamily(famName) {
		return Spec{}, fmt.Errorf("scenario: unknown family %q (known: %s)", famName, familyNames())
	}
	s := DefaultSpec(Family(famName))
	if !hasParams {
		return s, s.check()
	}
	fields := familyFields(&s)
	seen := make(map[string]bool, len(fields))
	for _, kv := range strings.Split(params, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || key == "" {
			return Spec{}, fmt.Errorf("scenario: %s: bad parameter %q (want key=value)", famName, kv)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("scenario: %s: duplicate key %q", famName, key)
		}
		seen[key] = true
		f, ok := lookupField(fields, key)
		if !ok {
			return Spec{}, fmt.Errorf("scenario: %s: unknown key %q (known: %s)", famName, key, fieldKeys(fields))
		}
		if f.num != nil {
			v, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("scenario: %s: key %q: bad integer %q", famName, key, val)
			}
			*f.num = v
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil || math.IsNaN(v) || math.IsInf(v, 0) {
			return Spec{}, fmt.Errorf("scenario: %s: key %q: bad number %q", famName, key, val)
		}
		*f.fl = v
	}
	return s, s.check()
}

func lookupField(fields []field, key string) (field, bool) {
	for _, f := range fields {
		if f.key == key {
			return f, true
		}
	}
	return field{}, false
}

func fieldKeys(fields []field) string {
	if len(fields) == 0 {
		return "none"
	}
	keys := make([]string, len(fields))
	for i, f := range fields {
		keys[i] = f.key
	}
	return strings.Join(keys, ", ")
}

// String renders the spec in canonical form: the family followed by
// every one of its keys in fixed order with shortest round-trip value
// formatting. Canonical strings are what atmserve caches key on, so
// "circle" and "circle:radius=100" collapse to the same entry.
// ParseSpec(s.String()) reproduces s exactly.
func (s Spec) String() string {
	fields := familyFields(&s)
	if len(fields) == 0 {
		return string(s.Family)
	}
	var b strings.Builder
	b.WriteString(string(s.Family))
	for i, f := range fields {
		if i == 0 {
			b.WriteByte(':')
		} else {
			b.WriteByte(',')
		}
		b.WriteString(f.key)
		b.WriteByte('=')
		if f.num != nil {
			b.WriteString(strconv.Itoa(*f.num))
		} else {
			b.WriteString(strconv.FormatFloat(*f.fl, 'g', -1, 64))
		}
	}
	return b.String()
}

// check verifies the n-independent parameter ranges. It is what
// ParseSpec enforces; Validate adds the capacity checks that need the
// aircraft count.
func (s *Spec) check() error {
	switch s.Family {
	case Uniform:
		return nil
	case Circle:
		if !(s.Radius > 0 && s.Radius <= airspace.SetupHalf) {
			return fmt.Errorf("scenario: circle: radius must be in (0, %g] nm, got %g", airspace.SetupHalf, s.Radius)
		}
		if math.Abs(s.PhaseDeg) > 360 {
			return fmt.Errorf("scenario: circle: phase must be in [-360, 360] degrees, got %g", s.PhaseDeg)
		}
		if err := s.checkSpeed(); err != nil {
			return err
		}
		return s.checkAltBand(s.AltSpread)
	case Streams:
		if s.Streams < 1 || s.Streams > 64 {
			return fmt.Errorf("scenario: streams: streams must be in [1, 64], got %d", s.Streams)
		}
		if !(s.AngleDeg > 0 && s.AngleDeg <= 180) {
			return fmt.Errorf("scenario: streams: angle must be in (0, 180] degrees, got %g", s.AngleDeg)
		}
		if s.Spacing < airspace.SepTotal || s.Spacing > maxTrailNM {
			return fmt.Errorf("scenario: streams: spacing must be in [%g, %g] nm, got %g", airspace.SepTotal, float64(maxTrailNM), s.Spacing)
		}
		if s.LaneGap < airspace.SepTotal || s.LaneGap > maxTrailNM {
			return fmt.Errorf("scenario: streams: lanegap must be in [%g, %g] nm, got %g", airspace.SepTotal, float64(maxTrailNM), s.LaneGap)
		}
		if err := s.checkSpeed(); err != nil {
			return err
		}
		return s.checkAltBand(0)
	case Dense:
		if s.Clusters < 1 || s.Clusters > 4096 {
			return fmt.Errorf("scenario: dense: clusters must be in [1, 4096], got %d", s.Clusters)
		}
		if !(s.Radius > 0 && s.Radius <= airspace.SetupHalf/2) {
			return fmt.Errorf("scenario: dense: radius must be in (0, %g] nm, got %g", airspace.SetupHalf/2, s.Radius)
		}
		return s.checkAltBand(s.AltSpread)
	case Layers:
		if s.Bands < 1 || s.Bands > 64 {
			return fmt.Errorf("scenario: layers: bands must be in [1, 64], got %d", s.Bands)
		}
		if s.BandGap <= 0 {
			return fmt.Errorf("scenario: layers: gap must be positive feet, got %g", s.BandGap)
		}
		if s.Alt < airspace.AltMin || s.Alt+float64(s.Bands-1)*s.BandGap > airspace.AltMax {
			return fmt.Errorf("scenario: layers: bands span [%g, %g] ft, outside [%g, %g]",
				s.Alt, s.Alt+float64(s.Bands-1)*s.BandGap, airspace.AltMin, airspace.AltMax)
		}
		return nil
	case Burst:
		if s.Waves < 1 || s.Waves > 16 {
			return fmt.Errorf("scenario: burst: waves must be in [1, 16], got %d", s.Waves)
		}
		if s.Interval < 1 {
			return fmt.Errorf("scenario: burst: interval must be at least 1 period, got %d", s.Interval)
		}
		if s.Spacing < airspace.SepTotal || s.Spacing > maxTrailNM {
			return fmt.Errorf("scenario: burst: spacing must be in [%g, %g] nm, got %g", airspace.SepTotal, float64(maxTrailNM), s.Spacing)
		}
		if err := s.checkSpeed(); err != nil {
			return err
		}
		if s.Alt < airspace.AltMin || s.Alt+float64(s.Waves-1)*burstAltStep > airspace.AltMax {
			return fmt.Errorf("scenario: burst: wave altitudes span [%g, %g] ft, outside [%g, %g]",
				s.Alt, s.Alt+float64(s.Waves-1)*burstAltStep, airspace.AltMin, airspace.AltMax)
		}
		return nil
	}
	return fmt.Errorf("scenario: unknown family %q (known: %s)", s.Family, familyNames())
}

func (s *Spec) checkSpeed() error {
	if s.Speed < airspace.SpeedMin || s.Speed > airspace.SpeedMax {
		return fmt.Errorf("scenario: %s: speed must be in [%g, %g] knots, got %g",
			s.Family, airspace.SpeedMin, airspace.SpeedMax, s.Speed)
	}
	return nil
}

func (s *Spec) checkAltBand(spread float64) error {
	if spread < 0 {
		return fmt.Errorf("scenario: %s: altspread must be non-negative feet, got %g", s.Family, spread)
	}
	if s.Alt-spread < airspace.AltMin || s.Alt+spread > airspace.AltMax {
		return fmt.Errorf("scenario: %s: altitudes span [%g, %g] ft, outside [%g, %g]",
			s.Family, s.Alt-spread, s.Alt+spread, airspace.AltMin, airspace.AltMax)
	}
	return nil
}

// Validate checks the spec's parameters and — where a family's layout
// depends on traffic volume — whether n aircraft fit the airfield. A
// nil error guarantees Generate(n, ...) succeeds and every generated
// position lies inside the field.
func (s *Spec) Validate(n int) error {
	if n < 0 {
		return fmt.Errorf("scenario: negative aircraft count %d", n)
	}
	if err := s.check(); err != nil {
		return err
	}
	switch s.Family {
	case Streams:
		perStream := (n + s.Streams - 1) / s.Streams
		if need, max := streamLanes(s, perStream), maxLaneIndex(s); need > max {
			return fmt.Errorf("scenario: streams: %d aircraft need %d lanes per stream but only %d fit the field; lower n or spacing/lanegap",
				n, need, max)
		}
	case Burst:
		if depth := burstDepth(s, n); depth > airspace.SetupHalf {
			return fmt.Errorf("scenario: burst: %d aircraft push the farthest wave to %.0f nm but the setup area ends at %g nm; lower n, waves or interval",
				n, depth, airspace.SetupHalf)
		}
	}
	return nil
}

// streamLanes returns how many parallel lanes one stream of m aircraft
// occupies. The centerline lane is longest; every lane at offset off
// holds floor((2*tLim(off)-stagger)/spacing)+1 aircraft, where tLim
// shrinks as lanes move outward (conservative bound keeping every
// position inside the setup square for any heading).
func streamLanes(s *Spec, m int) int {
	lanes := 0
	for m > 0 {
		tLim := airspace.SetupHalf - math.Abs(laneOffset(lanes, s.LaneGap))
		if tLim <= 0 {
			return lanes + 1 // beyond the field; caller compares with maxLaneIndex
		}
		fit := int((2*tLim-s.Spacing)/s.Spacing) + 1
		if fit < 1 {
			fit = 1
		}
		m -= fit
		lanes++
	}
	return lanes
}

// maxLaneIndex bounds lane fan-out: lateral offsets stay within half
// the setup area so streams remain recognizable flows rather than
// filling the field.
func maxLaneIndex(s *Spec) int {
	return 2*int((airspace.SetupHalf/2)/s.LaneGap) + 1
}

// burstDepth returns the field depth the farthest burst rank needs:
// wave placement distance plus in-trail ranks once the lateral rows
// are full.
func burstDepth(s *Spec, n int) float64 {
	perSide := (n + 2*s.Waves - 1) / (2 * s.Waves)
	rows := burstRows(s)
	ranks := (perSide + rows - 1) / rows
	v := s.Speed / airspace.PeriodsPerHour
	return v*float64(s.Interval)*float64(s.Waves) + float64(ranks-1)*s.Spacing
}

// burstRows is how many lateral rows fit between the top and bottom of
// the setup area at the configured spacing.
func burstRows(s *Spec) int {
	yMax := airspace.SetupHalf - s.Spacing
	return int(2*yMax/s.Spacing) + 1
}
