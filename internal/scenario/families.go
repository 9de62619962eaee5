package scenario

import (
	"math"

	"repro/internal/airspace"
	"repro/internal/rng"
)

// Generate builds a world of n aircraft following the spec, drawing
// every random quantity from r. It panics on a spec that fails
// Validate(n) — front ends validate through core.RunParams before any
// world is built, so reaching generation with a bad spec is a
// programming error, mirroring core's pair-source handling.
//
// For the uniform family the draws are exactly airspace.NewWorld's:
// the same (seed, call sequence) pair, hence bit-identical worlds.
func (s *Spec) Generate(n int, r *rng.Rand) *airspace.World {
	if err := s.Validate(n); err != nil {
		panic(err.Error())
	}
	w := &airspace.World{Aircraft: make([]airspace.Aircraft, n)}
	switch s.Family {
	case Uniform:
		fillUniform(w.Aircraft, r)
	case Circle:
		fillCircle(w.Aircraft, s, r)
	case Streams:
		fillStreams(w.Aircraft, s)
	case Dense:
		centers := clusterCenters(s, r)
		fillDense(w.Aircraft, s, centers, r)
	case Layers:
		fillLayers(w.Aircraft, s, r)
	case Burst:
		fillBurst(w.Aircraft, s)
	}
	return w
}

// place initializes one aircraft record with the standard bookkeeping
// defaults: expected position at the current position, no correlation
// match, no pending conflict.
//
//atm:noalloc
func place(a *airspace.Aircraft, id int32, x, y, alt, dx, dy float64) {
	a.ID = id
	a.X, a.Y = x, y
	a.Alt = alt
	a.DX, a.DY = dx, dy
	a.ExpX, a.ExpY = x, y
	a.RMatch = airspace.MatchNone
	a.ResetConflict()
}

// fillUniform is the paper's Section 4.1 setup, draw for draw.
//
//atm:noalloc
func fillUniform(air []airspace.Aircraft, r *rng.Rand) {
	for i := range air {
		airspace.SetupFlight(&air[i], int32(i), r)
	}
}

// fillCircle spaces the fleet evenly on a circle of radius Radius with
// every velocity pointing at the center at the common speed: all
// aircraft meet there, so every aircraft has a guaranteed conflict
// partner well inside the detection horizon at the defaults (radius
// 100 nm at 400 kt arrives in 1800 periods against a 2400-period
// horizon). AltSpread breaks the guarantee vertically when nonzero.
//
//atm:noalloc
func fillCircle(air []airspace.Aircraft, s *Spec, r *rng.Rand) {
	n := len(air)
	v := s.Speed / airspace.PeriodsPerHour
	phase := s.PhaseDeg * math.Pi / 180
	for i := range air {
		th := phase + 2*math.Pi*float64(i)/float64(n)
		cos, sin := math.Cos(th), math.Sin(th)
		alt := s.Alt
		if s.AltSpread > 0 {
			alt += r.Range(-s.AltSpread, s.AltSpread)
		}
		place(&air[i], int32(i), s.Radius*cos, s.Radius*sin, alt, -v*cos, -v*sin)
	}
}

// fillStreams builds K flows through the field center, stream k heading
// k*AngleDeg. Aircraft are dealt round-robin to streams; within a
// stream they queue in-trail at Spacing along the centerline lane,
// overflowing to parallel lanes LaneGap apart (center, then
// alternately left and right). Every member of a stream shares one
// velocity, so intra-stream separation is constant — never below
// min(Spacing, LaneGap) >= the separation minimum — while distinct
// streams cross at the center at the same altitude and conflict there.
// Stream k's queue is staggered by k/K of one spacing so crossings
// interleave instead of colliding in lockstep.
//
//atm:noalloc
func fillStreams(air []airspace.Aircraft, s *Spec) {
	v := s.Speed / airspace.PeriodsPerHour
	for k := 0; k < s.Streams; k++ {
		th := float64(k) * s.AngleDeg * math.Pi / 180
		ux, uy := math.Cos(th), math.Sin(th)
		px, py := -uy, ux
		// Conservative in-field bound for any heading: |t|+|off| <= 125
		// keeps both position components inside the setup square.
		lane, slot := 0, 0
		stagger := s.Spacing * float64(k) / float64(s.Streams)
		for i := k; i < len(air); i += s.Streams {
			off := laneOffset(lane, s.LaneGap)
			tLim := airspace.SetupHalf - math.Abs(off)
			t := -tLim + stagger + float64(slot)*s.Spacing
			if t > tLim {
				lane++
				slot = 0
				off = laneOffset(lane, s.LaneGap)
				tLim = airspace.SetupHalf - math.Abs(off)
				t = -tLim + stagger
			}
			place(&air[i], int32(i), t*ux+off*px, t*uy+off*py, s.Alt, v*ux, v*uy)
			slot++
		}
	}
}

// laneOffset maps lane index 0, 1, 2, 3, 4... to lateral offsets
// 0, +g, -g, +2g, -2g...: lanes fill outward from the centerline.
//
//atm:noalloc
func laneOffset(lane int, gap float64) float64 {
	k := float64((lane + 1) / 2)
	if lane%2 == 0 {
		return -k * gap
	}
	return k * gap
}

// clusterCenters draws the dense-sector centers. It runs outside the
// noalloc fill so the center slice is allocated per generation, not on
// a hot path.
func clusterCenters(s *Spec, r *rng.Rand) []float64 {
	centers := make([]float64, 2*s.Clusters)
	for c := 0; c < s.Clusters; c++ {
		centers[2*c] = r.Range(-0.7*airspace.SetupHalf, 0.7*airspace.SetupHalf)
		centers[2*c+1] = r.Range(-0.7*airspace.SetupHalf, 0.7*airspace.SetupHalf)
	}
	return centers
}

// fillDense deals aircraft round-robin to Clusters tight sectors:
// positions uniform within Radius of the sector center (clamped to the
// setup square), headings and speeds drawn like the paper's setup, and
// altitudes packed into one 2*AltSpread band so nearly every
// intra-cluster pair survives the vertical filter — the worst case for
// broad-phase candidate volume.
//
//atm:noalloc
func fillDense(air []airspace.Aircraft, s *Spec, centers []float64, r *rng.Rand) {
	for i := range air {
		c := i % s.Clusters
		x := clamp(centers[2*c]+r.Range(-s.Radius, s.Radius), -airspace.SetupHalf, airspace.SetupHalf)
		y := clamp(centers[2*c+1]+r.Range(-s.Radius, s.Radius), -airspace.SetupHalf, airspace.SetupHalf)
		alt := s.Alt
		if s.AltSpread > 0 {
			alt += r.Range(-s.AltSpread, s.AltSpread)
		}
		sp := r.Range(airspace.SpeedMin, airspace.SpeedMax)
		dx := r.Range(airspace.SpeedMin, sp)
		dy := math.Sqrt(sp*sp - dx*dx)
		place(&air[i], int32(i), x, y, alt,
			dx*r.Sign()/airspace.PeriodsPerHour, dy*r.Sign()/airspace.PeriodsPerHour)
	}
}

//atm:noalloc
func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// fillLayers deals aircraft round-robin to Bands altitude bands BandGap
// feet apart. Band b flies a common heading b*180/Bands degrees with
// per-aircraft random speeds and positions, so same-band traffic only
// conflicts through overtakes while cross-band geometry crosses at
// every angle: with BandGap below airspace.AltBandFeet those crossings
// are live conflicts, above it the altitude filter
// (airspace.AltOverlap) must prune every one of them.
//
//atm:noalloc
func fillLayers(air []airspace.Aircraft, s *Spec, r *rng.Rand) {
	for i := range air {
		b := i % s.Bands
		th := float64(b) * math.Pi / float64(s.Bands)
		x := r.Range(0, airspace.SetupHalf) * r.Sign()
		y := r.Range(0, airspace.SetupHalf) * r.Sign()
		sp := r.Range(airspace.SpeedMin, airspace.SpeedMax)
		v := sp / airspace.PeriodsPerHour
		place(&air[i], int32(i), x, y, s.Alt+float64(b)*s.BandGap,
			v*math.Cos(th), v*math.Sin(th))
	}
}

// fillBurst opposes eastbound and westbound walls of traffic: wave w
// holds its own altitude band (burstAltStep feet above wave w-1) and
// starts (w+1)*Interval flight-periods out from the meridian, so the
// two walls of wave w meet head-on — every row pair on a collision
// course at once — around period (w+1)*Interval, one conflict spike
// per wave. Within a wall all velocities are equal and rows/ranks sit
// Spacing apart, so no conflicts exist outside the spikes.
//
//atm:noalloc
func fillBurst(air []airspace.Aircraft, s *Spec) {
	v := s.Speed / airspace.PeriodsPerHour
	rows := burstRows(s)
	yBase := -(airspace.SetupHalf - s.Spacing)
	for i := range air {
		w := i % s.Waves
		j := i / s.Waves
		side := j % 2 // 0 = eastbound (from -x), 1 = westbound (from +x)
		m := j / 2
		row := m % rows
		rank := m / rows
		d := v*float64(s.Interval)*float64(w+1) + float64(rank)*s.Spacing
		x, dx := -d, v
		if side == 1 {
			x, dx = d, -v
		}
		place(&air[i], int32(i), x, yBase+float64(row)*s.Spacing,
			s.Alt+float64(w)*burstAltStep, dx, 0)
	}
}
