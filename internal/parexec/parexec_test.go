package parexec

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestRunCoversRangeExactlyOnce checks every index is visited exactly
// once for a spread of sizes, grains, and worker counts.
func TestRunCoversRangeExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		p := NewPool(workers)
		for _, n := range []int{0, 1, 2, 7, 64, 1000, 4097} {
			for _, grain := range []int{0, 1, 3, 64, 5000} {
				hits := make([]int32, n)
				p.Run(n, grain, func(_, lo, hi int) {
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&hits[i], 1)
					}
				})
				for i, h := range hits {
					if h != 1 {
						t.Fatalf("workers=%d n=%d grain=%d: index %d visited %d times",
							workers, n, grain, i, h)
					}
				}
			}
		}
	}
}

// TestRunChunkAlignment checks that chunk lower bounds are multiples of
// the grain, which consumers rely on (chunk = lo/grain) to store
// per-chunk partials for order-deterministic merges.
func TestRunChunkAlignment(t *testing.T) {
	p := NewPool(4)
	const n, grain = 1003, 17
	var bad atomic.Int32
	p.Run(n, grain, func(_, lo, hi int) {
		if lo%grain != 0 || hi-lo > grain || (hi != n && hi-lo != grain) {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d misaligned chunks", bad.Load())
	}
}

// TestRunChunkAlignmentInline checks the inline fallbacks (one-worker
// pool and reentrant Run) deliver the same grain-aligned chunks as the
// parallel path: per-chunk partial stores indexed by lo/grain rely on
// it no matter which path a Run takes.
func TestRunChunkAlignmentInline(t *testing.T) {
	const n, grain = 1003, 17
	check := func(t *testing.T, p *Pool, run func(body func(worker, lo, hi int))) {
		t.Helper()
		seen := make([]bool, (n+grain-1)/grain)
		run(func(_, lo, hi int) {
			if lo%grain != 0 || hi-lo > grain || (hi != n && hi-lo != grain) {
				t.Errorf("misaligned chunk [%d, %d)", lo, hi)
				return
			}
			seen[lo/grain] = true
		})
		for c, ok := range seen {
			if !ok {
				t.Errorf("chunk %d never delivered", c)
			}
		}
	}
	t.Run("serial", func(t *testing.T) {
		p := NewPool(1)
		check(t, p, func(body func(worker, lo, hi int)) { p.Run(n, grain, body) })
	})
	t.Run("reentrant", func(t *testing.T) {
		p := NewPool(4)
		check(t, p, func(body func(worker, lo, hi int)) {
			p.Run(1, 1, func(_, _, _ int) { p.Run(n, grain, body) })
		})
	})
}

// TestRunWorkerIndexInRange checks worker indices stay within
// [0, Workers()), the bound on per-worker scratch arrays.
func TestRunWorkerIndexInRange(t *testing.T) {
	p := NewPool(5)
	var bad atomic.Int32
	p.Run(10000, 7, func(worker, lo, hi int) {
		if worker < 0 || worker >= p.Workers() {
			bad.Add(1)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("worker index escaped [0, %d)", p.Workers())
	}
}

// TestRunReentrant checks a body may call Run on the same pool: the
// inner call falls back to inline execution instead of deadlocking.
func TestRunReentrant(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	p.Run(8, 1, func(_, lo, hi int) {
		p.Run(16, 4, func(_, ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	if got := total.Load(); got != 8*16 {
		t.Fatalf("nested Run covered %d indices, want %d", got, 8*16)
	}
}

// TestRunConcurrent checks two goroutines may Run on the same pool at
// once; the loser of the TryLock race executes inline.
func TestRunConcurrent(t *testing.T) {
	p := NewPool(4)
	var total atomic.Int64
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			defer func() { done <- struct{}{} }()
			p.Run(1000, 8, func(_, lo, hi int) {
				total.Add(int64(hi - lo))
			})
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if got := total.Load(); got != 4*1000 {
		t.Fatalf("concurrent Runs covered %d indices, want %d", got, 4*1000)
	}
}

// TestRunMemoryVisibility checks plain (non-atomic) writes made by the
// body are visible to the caller after Run returns.
func TestRunMemoryVisibility(t *testing.T) {
	p := NewPool(8)
	const n = 100000
	vals := make([]int, n)
	p.Run(n, 64, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			vals[i] = i * 3
		}
	})
	for i, v := range vals {
		if v != i*3 {
			t.Fatalf("vals[%d] = %d, want %d", i, v, i*3)
		}
	}
}

// TestRunReusableZeroAlloc checks steady-state dispatch does not
// allocate: the job state lives in the pool, not per call.
func TestRunReusableZeroAlloc(t *testing.T) {
	p := NewPool(2)
	var sink atomic.Int64
	body := func(_, lo, hi int) { sink.Add(int64(hi - lo)) }
	p.Run(1000, 8, body) // warm up: spawn workers
	avg := testing.AllocsPerRun(50, func() {
		p.Run(1000, 8, body)
	})
	if avg > 0.5 {
		t.Fatalf("Run allocates %.1f objects per dispatch, want 0", avg)
	}
}

// TestResolve checks nil maps to the default pool and non-nil is
// returned unchanged.
func TestResolve(t *testing.T) {
	if Resolve(nil) != Default() {
		t.Fatal("Resolve(nil) is not the default pool")
	}
	p := NewPool(3)
	if Resolve(p) != p {
		t.Fatal("Resolve(p) is not p")
	}
}

// TestSetDefaultWorkers checks the -workers flag path resizes the
// default pool.
func TestSetDefaultWorkers(t *testing.T) {
	old := Default()
	defer defaultPool.Store(old)
	SetDefaultWorkers(7)
	if got := Default().Workers(); got != 7 {
		t.Fatalf("default pool has %d workers after SetDefaultWorkers(7)", got)
	}
}

// TestDroppedPoolReleasesWorkers drops 20 pools of 4 workers after one
// parallel Run each and checks that their helper goroutines end: the
// goroutine count must return to where it started once the pools are
// collected (polled with GC for up to 5 s).
func TestDroppedPoolReleasesWorkers(t *testing.T) {
	runtime.GC()
	start := runtime.NumGoroutine()
	var sink atomic.Int64
	for i := 0; i < 20; i++ {
		NewPool(4).Run(100, 1, func(_, lo, hi int) { sink.Add(int64(hi - lo)) })
	}
	if sink.Load() != 20*100 {
		t.Fatalf("the runs covered %d indices, want %d", sink.Load(), 20*100)
	}
	got := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); got > start && time.Now().Before(deadline); got = runtime.NumGoroutine() {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if got > start {
		t.Fatalf("%d goroutines after dropping 20 pools, %d before: their helpers were never released", got, start)
	}
}
