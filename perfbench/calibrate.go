package main

import (
	"runtime"
	"sync"
	"time"
)

// Host-speed calibration.
//
// The benchmark was built on a 2-vCPU VM of a shared host whose speed
// switches, at unpredictable moments, between two levels about 1.7-2x
// apart, with no stolen time: both wall and CPU time per op grow, for
// every op class at once (README.md, "Noise and bounds"). Raw time
// medians of two sets of runs then differ by far more than any bound a
// regression gate can use. So every run also times, between its ops and
// outside their timed intervals, a fixed reference kernel that calls no
// repository code, and reports its end-to-end times at reference speed:
// raw time × refKernelMS ÷ the kernel time of the same interval (calMS).
// A change in the repository's code moves the ops and not the kernel;
// a change in the host's speed moves both and cancels. Raw times stay in
// the summary and the run record (raw.* and calib_ms under detail).

// refKernelMS is the typical time of one calibrationMS call on the VM the
// benchmark was built on (README.md), so a reference-speed time reads
// like a time measured there.
const refKernelMS = 2.7

// Shape of the reference kernel: a Task 1 style census, every probe
// counting the points inside its box, split across GOMAXPROCS
// goroutines like the workloads' host worker pools.
const (
	calPoints = 2000
	calProbes = 400
	calBox    = 0.02
)

var calX, calY = calPositions()

func calPositions() (xs, ys []float64) {
	xs, ys = make([]float64, calPoints), make([]float64, calPoints)
	s := uint64(0x9e3779b97f4a7c15)
	next := func() float64 {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		return float64(s>>11) / (1 << 53)
	}
	for i := range xs {
		xs[i], ys[i] = next(), next()
	}
	return xs, ys
}

// calSink keeps the census counts live so the compiler cannot drop the
// kernel.
var calSink [64]int

// census counts, for probes [lo, hi), the points inside each probe's box.
func census(lo, hi int) int {
	n := 0
	for p := lo; p < hi; p++ {
		px, py := calX[p%calPoints], calY[p%calPoints]
		for i := range calX {
			dx, dy := calX[i]-px, calY[i]-py
			if dx < calBox && dx > -calBox && dy < calBox && dy > -calBox {
				n++
			}
		}
	}
	return n
}

// calibrationMS runs the reference kernel once on GOMAXPROCS goroutines
// and returns its wall time in ms.
func calibrationMS() float64 {
	workers := runtime.GOMAXPROCS(0)
	if workers > len(calSink) {
		workers = len(calSink)
	}
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			calSink[w] += census(w*calProbes/workers, (w+1)*calProbes/workers)
		}(w)
	}
	wg.Wait()
	return msSince(t0)
}
