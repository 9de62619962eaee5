package serve

import (
	"sync"
	"sync/atomic"
)

// job is one admitted simulation run: the unit the queue schedules,
// the flight registry dedupes on, and every waiting request blocks on.
type job struct {
	cfg         RunConfig
	key         string
	interactive bool

	// waiters counts requests waiting on done. It only rises under the
	// flight registry's lock — the leader is counted before its job is
	// queued, a joiner inside flights.join — so when flights.abandon
	// finds it at zero before execution starts, every caller has
	// already timed out or disconnected and none can still join.
	waiters atomic.Int32

	// done is closed by the executor after res/err are set.
	done chan struct{}
	res  *Result
	err  error
	// fromCache marks a pre-completed job manufactured from a cache
	// entry found during flight registration (see flights.join).
	fromCache bool
}

func newJob(cfg RunConfig, key string, interactive bool) *job {
	return &job{cfg: cfg, key: key, interactive: interactive, done: make(chan struct{})}
}

// completedJob wraps an already-known result as a finished job.
func completedJob(res *Result) *job {
	j := &job{res: res, done: make(chan struct{}), fromCache: true}
	close(j.done)
	return j
}

// flights is the single-flight registry: at most one live job exists
// per canonical key, so K concurrent identical requests share exactly
// one underlying execution.
type flights struct {
	mu sync.Mutex
	m  map[string]*job
}

func newFlights() *flights {
	return &flights{m: make(map[string]*job)}
}

// join returns the in-flight job for key, counting the caller as one
// of its waiters, or registers the one built by create. created reports
// whether this caller became the flight leader; create counts the
// leader itself. create returns track=false for jobs that must not be
// registered (already complete); when it errors (queue full, draining)
// nothing is registered and the error is returned.
func (f *flights) join(key string, create func() (j *job, track bool, err error)) (*job, bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if j, ok := f.m[key]; ok {
		j.waiters.Add(1)
		return j, false, nil
	}
	j, track, err := create()
	if err != nil {
		return nil, false, err
	}
	if track {
		f.m[key] = j
	}
	return j, true, nil
}

// remove drops key from the registry. The executor calls it after the
// result is cached, so lookups always find the run in the cache or in
// flight — never neither.
func (f *flights) remove(key string) {
	f.mu.Lock()
	delete(f.m, key)
	f.mu.Unlock()
}

// abandon deregisters j and reports true when no request waits on it.
// Waiters are counted under the same lock, so no request can join j
// between the check and the removal.
func (f *flights) abandon(j *job) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	if j.waiters.Load() != 0 {
		return false
	}
	delete(f.m, j.key)
	return true
}

// inflight returns the number of registered flights.
func (f *flights) inflight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}
