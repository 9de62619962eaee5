package broadphase

import "repro/internal/airspace"

// The production sweep's index: envelopes counting-sorted into square
// cells by centre, one grid per speed class.
//
// The reference's x window reads a full-height strip of the field —
// about 19M envelopes at N=8000 uniform to find 3.4M candidates. A
// binned query reads, per class, only the cells within the track's own
// envelope widened by the class's widest half-width, about a quarter of
// that, and applies the same exact comparisons to each. Classes keep
// the widening tight: an envelope's half-width grows with its speed
// (2.75 to 26.5 nm over the paper's speed range), and a query widened
// by the fastest aircraft's would read slow traffic from cells it
// cannot reach.
//
// Why no candidate is lost: a candidate j of the query envelope q has
// hix[j] ≥ q.lox, so its centre lies no further than its half-width —
// at most its class's widest — below q.lox, up to the rounding of the
// centre and half-width it was binned under; binSlack absorbs that
// rounding. The same holds on the other three sides. The cell of a
// coordinate is a monotone function of it, clamped to the grid, so a
// centre inside the widened range lies in a cell inside the block.
const (
	// binCell is the cell edge in nm.
	binCell = 8.0
	// binGrid is the number of cells per axis over the field
	// [−FieldHalf, FieldHalf]. Centres outside the field (envelopes
	// reach past it, and callers may place aircraft anywhere) fall into
	// the edge cells.
	binGrid = int(2 * airspace.FieldHalf / binCell)
	// binClasses splits the envelope widths [0, maxW] into that many
	// equal speed classes.
	binClasses = 4
	// binCells is the total cell count over every class.
	binCells = binClasses * binGrid * binGrid
	// binSlack widens every query block, in nm, by far more than the
	// rounding error of a centre or half-width at field-scale
	// coordinates.
	binSlack = 1e-6
)

// envelope is one aircraft's reach box and altitude. It is stored with
// the aircraft index in cell order so a query reads one dense stream
// per cell row.
type envelope struct {
	lox, hix, loy, hiy float64
	alt                float64
	id                 int32
}

// binIndex is the production sweep's binned envelope index, rebuilt on
// every Prepare.
type binIndex struct {
	// start[k] is the position in env of cell k's first envelope, for
	// cell k = (class·binGrid + cy)·binGrid + cx, so one cell row of one
	// class is a contiguous run; start[binCells] is n.
	start []int32
	// key holds every aircraft's cell, by aircraft index.
	key []int32
	// env holds the envelopes in cell order, ascending aircraft index
	// within a cell.
	env []envelope
	// half is each class's widest half-width.
	half [binClasses]float64
}

// binOf returns the cell coordinate of v on one axis, clamped to the
// grid. It is monotone in v: for u ≤ v, binOf(u) ≤ binOf(v).
//
//atm:inline
func binOf(v float64) int {
	f := (v + airspace.FieldHalf) * (1 / binCell)
	if !(f >= 0) {
		return 0
	}
	if f >= float64(binGrid) {
		return binGrid - 1
	}
	return int(f)
}

// build bins the n envelopes given as edge columns, with the aircraft
// altitudes alt; maxW is the widest x width among them.
func (b *binIndex) build(lox, hix, loy, hiy, alt []float64, maxW float64) {
	n := len(lox)
	if b.start == nil {
		b.start = make([]int32, binCells+1)
	}
	if cap(b.key) < n {
		b.key = make([]int32, n)
		b.env = make([]envelope, n)
	}
	b.key, b.env = b.key[:n], b.env[:n]
	start := b.start
	clear(start)
	b.half = [binClasses]float64{}
	scale := 0.0
	if maxW > 0 {
		scale = binClasses / maxW
	}
	for i := range b.key {
		w := hix[i] - lox[i]
		c := min(int(w*scale), binClasses-1)
		b.half[c] = max(b.half[c], w/2)
		k := (c*binGrid+binOf((loy[i]+hiy[i])/2))*binGrid + binOf((lox[i]+hix[i])/2)
		b.key[i] = int32(k)
		start[k+1]++
	}
	for k := 1; k <= binCells; k++ {
		start[k] += start[k-1]
	}
	// Scatter with start[k] as cell k's cursor, which leaves it at the
	// cell's end; shifting by one cell restores the starts.
	for i, k := range b.key {
		b.env[start[k]] = envelope{lox: lox[i], hix: hix[i], loy: loy[i], hiy: hiy[i], alt: alt[i], id: int32(i)}
		start[k]++
	}
	copy(start[1:], start[:binCells])
	start[0] = 0
}

// block returns the query block of q in speed class c: the cell
// columns x0..x1 and rows y0..y1 that q's envelope, widened by the
// class's widest half-width and binSlack, covers. It holds every
// class-c envelope that overlaps q's on both axes.
func (b *binIndex) block(q *envelope, c int) (x0, x1, y0, y1 int) {
	h := b.half[c] + binSlack
	return binOf(q.lox - h), binOf(q.hix + h), binOf(q.loy - h), binOf(q.hiy + h)
}

// mark sets the bit in words of every aircraft whose envelope passes
// the window walk's comparisons against q (see appendCandidatesID);
// winLo is the window start q.lox − maxW.
//
//atm:noalloc
func (b *binIndex) mark(words []uint64, q *envelope, winLo float64) {
	start := b.start
	qlox, qhix, qloy, qhiy := q.lox, q.hix, q.loy, q.hiy
	for c := 0; c < binClasses; c++ {
		first := c * binGrid * binGrid
		if start[first] == start[first+binGrid*binGrid] {
			continue
		}
		x0, x1, y0, y1 := b.block(q, c)
		for cy := y0; cy <= y1; cy++ {
			row := first + cy*binGrid
			env := b.env[start[row+x0]:start[row+x1+1]]
			for k := range env {
				e := &env[k]
				if e.hix >= qlox && e.lox <= qhix && e.hiy >= qloy && e.loy <= qhiy && e.lox >= winLo {
					words[e.id>>6] |= 1 << (uint(e.id) & 63)
				}
			}
		}
	}
}
