// Package parexec is the shared host-execution engine: a fixed pool of
// persistent workers that fans index ranges out across GOMAXPROCS
// goroutines with a self-scheduling chunked work queue (an atomic
// cursor over small index ranges, after Weinert et al.'s self-
// scheduling mode), so skewed per-item costs — broad-phase candidate
// counts vary wildly between tracks — don't leave workers idle the way
// a static partition would.
//
// The engine parallelizes *host wall-clock* execution only. Every
// modeled-time figure in this repository is computed from operation
// tallies whose reductions are order-independent (sums, maxima), and
// every consumer of Run in this repository merges per-worker or
// per-chunk partial results in a fixed index order, so results are
// bit-for-bit identical at any worker count, including 1.
//
// Run is safe for concurrent and reentrant use: a Run that cannot take
// the pool (because another Run on the same pool is in flight, possibly
// higher up the same call stack) executes its body inline on the
// calling goroutine as worker 0. Bodies therefore must treat the worker
// index purely as an index into per-call scratch, never as a global
// identity.
package parexec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a reusable worker pool. The zero value is not usable; create
// pools with NewPool. Worker goroutines are spawned lazily on the first
// parallel Run and live until the pool is unreachable: they hold only
// the pool's inner state, so a dropped Pool is collected, and its
// finalizer closes the wake channel they wait on, which ends them.
type Pool struct {
	workers int
	s       *poolState
}

// poolState is the part of a Pool its helper goroutines share.
type poolState struct {
	mu      sync.Mutex // held for the duration of one dispatched Run
	started bool       // workers spawned; guarded by mu
	wake    chan struct{}
	done    chan struct{}

	// Current job; valid only while mu is held and workers are awake.
	cursor atomic.Int64
	limit  int64
	grain  int64
	body   Body
}

// Body is the chunk executor RunBody dispatches: Chunk is called once
// per claimed chunk, under exactly the contract Run documents for its
// closure form. Implementing Body on a persistent job struct (typically
// held in pooled scratch) lets hot paths dispatch parallel work with
// zero allocations: a pointer-to-struct converts to the interface
// without boxing, whereas a closure that captures state allocates at
// every call site.
type Body interface {
	Chunk(worker, lo, hi int)
}

// funcBody adapts Run's closure form to Body. A func value is already
// pointer-shaped, so the interface conversion does not allocate.
type funcBody func(worker, lo, hi int)

//atm:noalloc
func (f funcBody) Chunk(worker, lo, hi int) { f(worker, lo, hi) }

// NewPool returns a pool with the given number of workers; workers <= 0
// means runtime.GOMAXPROCS(0).
func NewPool(workers int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, s: &poolState{}}
}

// Workers returns the pool's worker count. Per-worker scratch passed to
// Run bodies must have at least this many slots.
func (p *Pool) Workers() int { return p.workers }

// Run executes body over the index range [0, n), handing out
// self-scheduled chunks of exactly grain indices (the last chunk may be
// shorter). Every body call — on the parallel path and the inline
// fallbacks alike — covers exactly one chunk: lo is a multiple of grain
// and hi-lo <= grain, so a body may recover its chunk number as
// lo/grain to store per-chunk partial results for an
// order-deterministic merge.
//
// The calling goroutine participates as worker 0; helpers use worker
// indices 1..Workers()-1. Run returns after every chunk has completed,
// and all memory written by the body is visible to the caller
// (happens-before is established through the pool's channels).
//
// When the pool has one worker, n fits a single chunk, or the pool is
// already busy with another Run, the body runs inline on the caller as
// worker 0, chunk by chunk in ascending order — same results, no
// goroutines.
//
//atm:noalloc
func (p *Pool) Run(n, grain int, body func(worker, lo, hi int)) {
	p.RunBody(n, grain, funcBody(body))
}

// RunBody is Run with the body passed as a Body value instead of a
// closure. Semantics, chunking and the deterministic-merge contract are
// identical; the interface form exists so steady-state hot paths can
// reuse a persistent job struct and keep parallel dispatch free of the
// per-call closure allocation.
//
//atm:noalloc
//atm:ordered-merge
func (p *Pool) RunBody(n, grain int, body Body) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	s := p.s
	if p.workers == 1 || n <= grain || !s.mu.TryLock() {
		for lo := 0; lo < n; lo += grain {
			hi := lo + grain
			if hi > n {
				hi = n
			}
			body.Chunk(0, lo, hi)
		}
		return
	}
	defer s.mu.Unlock()
	if !s.started {
		p.start() //atm:allow noallocflow -- one-time lazy startup: spawns the worker goroutines on the first parallel Run only
		s.started = true
	}

	s.limit = int64(n)
	s.grain = int64(grain)
	s.body = body
	s.cursor.Store(0)

	// Wake only as many helpers as there are chunks beyond the caller's
	// first; the rest would spin on an exhausted cursor.
	helpers := p.workers - 1
	if chunks := (n + grain - 1) / grain; helpers > chunks-1 {
		helpers = chunks - 1
	}
	for i := 0; i < helpers; i++ {
		s.wake <- struct{}{}
	}
	s.drain(0)
	for i := 0; i < helpers; i++ {
		<-s.done
	}
	s.body = nil
	// The finalizer closes wake; keep p reachable until the helpers
	// have reported back.
	runtime.KeepAlive(p) //atm:allow noallocflow -- a compiler intrinsic that only marks p live; it allocates nothing
}

// start spawns the persistent helper goroutines, and sets the finalizer
// that ends them once p is unreachable.
func (p *Pool) start() {
	s := p.s
	s.wake = make(chan struct{}, p.workers)
	s.done = make(chan struct{}, p.workers)
	for w := 1; w < p.workers; w++ {
		go s.help(w)
	}
	runtime.SetFinalizer(p, func(p *Pool) { close(p.s.wake) })
}

// help is one helper goroutine: it drains the current job as worker
// each time it is woken, until wake is closed.
func (s *poolState) help(worker int) {
	for range s.wake {
		s.drain(worker)
		s.done <- struct{}{}
	}
}

// drain claims chunks off the shared cursor until the range is
// exhausted.
//
//atm:noalloc
//atm:noescape
func (s *poolState) drain(worker int) {
	limit, grain := s.limit, s.grain
	for {
		lo := s.cursor.Add(grain) - grain
		if lo >= limit {
			return
		}
		hi := lo + grain
		if hi > limit {
			hi = limit
		}
		s.body.Chunk(worker, int(lo), int(hi))
	}
}

// defaultPool holds the process-wide pool used when callers pass a nil
// pool. It starts at GOMAXPROCS workers; SetDefaultWorkers (the
// -workers flag) replaces it.
var defaultPool atomic.Pointer[Pool]

func init() {
	defaultPool.Store(NewPool(0))
}

// Default returns the process-wide pool.
func Default() *Pool { return defaultPool.Load() }

// SetDefaultWorkers replaces the process-wide pool with one of the
// given size (<= 0 means GOMAXPROCS). Existing references to the old
// pool remain valid.
func SetDefaultWorkers(workers int) {
	defaultPool.Store(NewPool(workers))
}

// Resolve returns p, or the process-wide default pool when p is nil —
// the idiom every engine consumer uses to accept an optional pool.
func Resolve(p *Pool) *Pool {
	if p == nil {
		return Default()
	}
	return p
}
