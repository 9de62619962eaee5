// Package cuda is a CUDA-style data-parallel execution engine written
// against Go's goroutine runtime. It stands in for the three NVIDIA
// devices of the paper (GeForce 9800 GT, GTX 880M, Titan X Pascal),
// which are not available in this environment.
//
// The engine reproduces the paper's execution structure rather than its
// absolute milliseconds:
//
//   - kernels are launched over a grid of blocks of 96 threads (the
//     paper's block/thread setup: "the limit on threads per block
//     remains 96 but the blocks increase as the number of aircrafts
//     increases");
//   - every thread body is really executed (by a pool of goroutines,
//     one block at a time per worker), so the kernels' concurrency
//     semantics — ID-indexed writes, commutative atomic claims, the
//     "two threads must not manipulate the same aircraft" hazard — are
//     real, not simulated;
//   - each thread counts the abstract arithmetic operations and cold
//     memory traffic it performs, and a per-device analytic cost model
//     (CUDA cores, SMs, clock, memory bandwidth, kernel-launch
//     overhead, PCIe transfer rate) converts those counts into a
//     deterministic virtual duration.
//
// Determinism matters: the paper observes that repeated runs of the
// CUDA program produce "the exact same timings again and again". All
// cost inputs here are commutative reductions (sum and max) over
// per-thread counts, so the modeled time of a kernel is a pure function
// of its inputs regardless of goroutine interleaving.
package cuda

import (
	"fmt"
	"time"

	"repro/internal/parexec"
	"repro/internal/telemetry"
)

// ThreadsPerBlock is fixed at 96 threads per block, the configuration
// the paper uses on all three devices.
const ThreadsPerBlock = 96

// Profile describes one NVIDIA device for the cost model. The numbers
// are the published specifications of the three cards; IPC folds the
// differences between architectures (scalar throughput per core per
// clock for the mix of fused multiply-adds, compares and branches these
// kernels execute) into a single factor.
type Profile struct {
	// Name is the marketing name of the device.
	Name string
	// ComputeCapability as reported by the paper (1.0, 3.0, 6.1).
	ComputeCapability string
	// Cores is the number of CUDA cores.
	Cores int
	// SMs is the number of streaming multiprocessors.
	SMs int
	// ClockHz is the shader clock in Hz.
	ClockHz float64
	// IPC is the sustained abstract operations per core per clock.
	IPC float64
	// MemBandwidth is the global-memory bandwidth in bytes/second.
	MemBandwidth float64
	// LaunchOverhead is the fixed cost of one kernel launch.
	LaunchOverhead time.Duration
	// TransferBandwidth is the host<->device (PCIe) bandwidth in
	// bytes/second.
	TransferBandwidth float64
	// TransferLatency is the fixed cost of one host<->device copy.
	TransferLatency time.Duration
}

// The three devices of the paper's evaluation (Section 6.1).
var (
	// GeForce9800GT: the paper's "old card with Compute Capacity of 1",
	// a G92 part: 112 CUDA cores across 14 SMs at 1.5 GHz, 57.6 GB/s.
	GeForce9800GT = Profile{
		Name:              "GeForce 9800 GT",
		ComputeCapability: "1.0",
		Cores:             112,
		SMs:               14,
		ClockHz:           1.5e9,
		IPC:               0.7, // no cache hierarchy, in-order scalar SPs
		MemBandwidth:      57.6e9,
		LaunchOverhead:    20 * time.Microsecond,
		TransferBandwidth: 3.0e9, // PCIe 2.0 x16, old chipset
		TransferLatency:   15 * time.Microsecond,
	}

	// GTX880M: the laptop Kepler card, compute capability 3.0:
	// 1536 cores across 8 SMXs at 993 MHz, 160 GB/s.
	GTX880M = Profile{
		Name:              "GTX 880M",
		ComputeCapability: "3.0",
		Cores:             1536,
		SMs:               8,
		ClockHz:           0.993e9,
		IPC:               0.85,
		MemBandwidth:      160e9,
		LaunchOverhead:    10 * time.Microsecond,
		TransferBandwidth: 6.0e9,
		TransferLatency:   10 * time.Microsecond,
	}

	// TitanXPascal: the research card donated by NVIDIA, compute
	// capability 6.1: 3584 cores across 28 SMs at 1.417 GHz, 480 GB/s.
	TitanXPascal = Profile{
		Name:              "Titan X (Pascal)",
		ComputeCapability: "6.1",
		Cores:             3584,
		SMs:               28,
		ClockHz:           1.417e9,
		IPC:               1.0,
		MemBandwidth:      480e9,
		LaunchOverhead:    5 * time.Microsecond,
		TransferBandwidth: 12.0e9,
		TransferLatency:   8 * time.Microsecond,
	}
)

// Profiles lists the built-in device profiles.
func Profiles() []Profile {
	return []Profile{GeForce9800GT, GTX880M, TitanXPascal}
}

// Thread is the per-thread execution context handed to a kernel body.
// Kernels report their work through Ops and Mem; the engine never
// inspects what the kernel actually computes.
type Thread struct {
	// ID is the global thread index (blockIdx*ThreadsPerBlock +
	// threadIdx, flattened).
	ID int
	// Block is the block index.
	Block int
	// Lane is the thread index within the block.
	Lane int
	// Worker is the index of the host worker executing this thread's
	// block, in [0, host worker count). It has no device meaning;
	// kernels use it to index per-worker scratch (candidate buffers)
	// without allocating or locking.
	Worker int

	ops uint64
	mem uint64
}

// Ops records n abstract arithmetic/logic operations.
func (t *Thread) Ops(n int) { t.ops += uint64(n) }

// Mem records n bytes of cold global-memory traffic (bytes that cannot
// be served from cache because this thread is their first reader or
// writer).
func (t *Thread) Mem(n int) { t.mem += uint64(n) }

// WarpSize is the SIMT width used for the divergence diagnostic.
const WarpSize = 32

// KernelStats is the engine's account of one kernel launch.
type KernelStats struct {
	// Name of the kernel, for reports.
	Name string
	// Threads launched and Blocks used.
	Threads, Blocks int
	// TotalOps is the sum of per-thread op counts.
	TotalOps uint64
	// MaxThreadOps is the largest single-thread op count: a kernel can
	// never finish faster than its longest thread chain.
	MaxThreadOps uint64
	// MemBytes is the total cold memory traffic.
	MemBytes uint64
	// WarpSlots and WarpWaste feed the divergence diagnostic: a warp
	// issues activeLanes x warpMaxOps slots, of which slots not covered
	// by per-thread work are wasted to divergent branches. These do not
	// enter the time model (the IPC factor absorbs average divergence);
	// they are reported so the paper's "optimized and re-written many
	// times" tuning loop can be followed.
	WarpSlots, WarpWaste uint64
	// Time is the modeled device time, excluding transfers.
	Time time.Duration
}

// Divergence returns the fraction of issue slots lost to intra-warp
// divergence (0 = perfectly converged warps).
func (st *KernelStats) Divergence() float64 {
	if st.WarpSlots == 0 {
		return 0
	}
	return float64(st.WarpWaste) / float64(st.WarpSlots)
}

// Occupancy describes how a launch fills the device.
type Occupancy struct {
	// Blocks and Waves: blocks are scheduled onto SMs in waves of (at
	// most) one block per SM.
	Blocks, Waves int
	// TailBlocks is the number of blocks in the final, partially filled
	// wave (0 means the last wave is full).
	TailBlocks int
	// ThreadFill is threads / (blocks x ThreadsPerBlock): the fraction
	// of launched lanes that carry a real thread.
	ThreadFill float64
	// SMFill is the average fraction of SMs busy across waves.
	SMFill float64
}

// OccupancyFor computes the launch shape for the given thread count
// under d's SM count.
func (d *Device) OccupancyFor(threads int) Occupancy {
	o := Occupancy{Blocks: Blocks(threads)}
	if o.Blocks == 0 {
		return o
	}
	sms := d.Profile.SMs
	o.Waves = (o.Blocks + sms - 1) / sms
	o.TailBlocks = o.Blocks % sms
	o.ThreadFill = float64(threads) / float64(o.Blocks*ThreadsPerBlock)
	o.SMFill = float64(o.Blocks) / float64(o.Waves*sms)
	return o
}

// Device executes kernels under one profile. A Device is safe for
// sequential reuse; Launch itself runs blocks on the shared parexec
// worker pool.
type Device struct {
	Profile Profile
	// pool executes blocks; nil means the process-wide default pool.
	pool *parexec.Pool
	// accs are the per-worker launch accumulators, reused across
	// launches so a launch allocates nothing in steady state.
	accs []launchAcc
	// rec, when non-nil and at block detail, receives per-block work
	// gauges through per-worker shards merged in block order.
	rec        *telemetry.Recorder
	shards     telemetry.ShardSet
	idBlockOps telemetry.NameID
}

// launchAcc collects one host worker's share of a launch's work
// account, padded so workers don't share a cache line. th is the
// worker's simulated thread, reset for every lane: kernel(&th) makes
// the Thread escape, and holding it here instead of on the worker's
// stack keeps a launch from allocating one per simulated thread.
type launchAcc struct {
	ops, mem, maxOps, slots, waste uint64
	th                             Thread
	_                              [40]byte
}

// NewDevice returns an execution engine for the given profile.
func NewDevice(p Profile) *Device {
	return &Device{Profile: p}
}

// SetWorkers overrides the number of host goroutines used to execute
// blocks (useful in tests); n <= 0 restores the default (the shared
// process-wide pool). Host workers never affect the modeled time: every
// launch reduction is a sum or a max.
func (d *Device) SetWorkers(n int) {
	if n <= 0 {
		d.pool = nil
	} else {
		d.pool = parexec.NewPool(n)
	}
}

// Workers returns the host worker count Launch will use.
func (d *Device) Workers() int { return parexec.Resolve(d.pool).Workers() }

// SetTelemetry attaches a recorder (nil detaches). At
// telemetry.DetailBlock, every launch additionally records one
// "cuda.block.ops" gauge per block, emitted from the parallel block
// loop via per-worker shards and merged back in ascending block
// order, so the event stream is identical at any worker count.
func (d *Device) SetTelemetry(rec *telemetry.Recorder) {
	d.rec = rec
	if rec != nil {
		d.idBlockOps = rec.Intern(telemetry.NameCUDABlockOps)
	}
}

// Blocks returns the grid size for the given number of threads.
func Blocks(threads int) int {
	return (threads + ThreadsPerBlock - 1) / ThreadsPerBlock
}

// Launch executes kernel once per thread and returns the work account
// with the modeled execution time under d's profile.
//
// Threads within one block run sequentially on one host goroutine, in
// lane order; distinct blocks run concurrently. Kernels that write
// shared state must therefore use ID-indexed writes or atomics, exactly
// as a real CUDA kernel must.
//
//atm:modeled-time
//atm:ordered-merge
func (d *Device) Launch(name string, threads int, kernel func(t *Thread)) KernelStats {
	if threads < 0 {
		panic(fmt.Sprintf("cuda: Launch %q with negative thread count %d", name, threads))
	}
	st := KernelStats{Name: name, Threads: threads, Blocks: Blocks(threads)}
	if threads > 0 {
		p := parexec.Resolve(d.pool)
		nw := p.Workers()
		if cap(d.accs) < nw {
			d.accs = make([]launchAcc, nw)
		}
		accs := d.accs[:nw]
		for i := range accs {
			accs[i] = launchAcc{}
		}
		blockDetail := d.rec != nil && d.rec.Detail() >= telemetry.DetailBlock
		if blockDetail {
			d.shards.Begin(nw)
		}

		// Blocks self-schedule over the pool one at a time (the block is
		// the engine's unit of host concurrency, as on the device). Each
		// worker folds its blocks into its own accumulator; the merge
		// below is all sums and maxima, so the account — and with it the
		// modeled time — is identical at any worker count.
		p.Run(st.Blocks, 1, func(worker, lo, hi int) {
			a := &accs[worker]
			for b := lo; b < hi; b++ {
				// Per-warp divergence accounting: threads within a
				// block run in lane order, so warps are contiguous
				// 32-lane groups.
				var warpMax, warpSum, blockOps uint64
				warpLanes := 0
				flushWarp := func() {
					if warpLanes > 0 {
						s := uint64(warpLanes) * warpMax
						a.slots += s
						a.waste += s - warpSum
						warpMax, warpSum, warpLanes = 0, 0, 0
					}
				}
				for lane := 0; lane < ThreadsPerBlock; lane++ {
					id := b*ThreadsPerBlock + lane
					if id >= threads {
						break
					}
					if lane%WarpSize == 0 {
						flushWarp()
					}
					th := &a.th
					*th = Thread{ID: id, Block: b, Lane: lane, Worker: worker}
					kernel(th)
					a.ops += th.ops
					blockOps += th.ops
					a.mem += th.mem
					if th.ops > a.maxOps {
						a.maxOps = th.ops
					}
					warpSum += th.ops
					if th.ops > warpMax {
						warpMax = th.ops
					}
					warpLanes++
				}
				flushWarp()
				if blockDetail {
					d.shards.Shard(worker).Gauge(d.idBlockOps, int32(b), int64(blockOps))
				}
			}
		})
		if blockDetail {
			d.rec.MergeShards(&d.shards)
		}
		for i := range accs {
			a := &accs[i]
			st.TotalOps += a.ops
			st.MemBytes += a.mem
			st.WarpSlots += a.slots
			st.WarpWaste += a.waste
			if a.maxOps > st.MaxThreadOps {
				st.MaxThreadOps = a.maxOps
			}
		}
	}

	st.Time = d.kernelTime(&st)
	return st
}

// kernelTime converts a work account into modeled device time:
//
//	t = launch + max(throughput-bound, serial-bound, memory-bound)
//
// where throughput-bound spreads TotalOps over every core, serial-bound
// is the longest single thread chain, and memory-bound is the cold
// traffic over the memory bus. Compute and memory are assumed to
// overlap (the usual steady-state assumption for bandwidth-saturating
// kernels).
func (d *Device) kernelTime(st *KernelStats) time.Duration {
	p := &d.Profile
	throughput := float64(st.TotalOps) / (float64(p.Cores) * p.IPC * p.ClockHz)
	serial := float64(st.MaxThreadOps) / (p.IPC * p.ClockHz)
	memory := float64(st.MemBytes) / p.MemBandwidth
	bound := throughput
	if serial > bound {
		bound = serial
	}
	if memory > bound {
		bound = memory
	}
	return p.LaunchOverhead + secondsToDuration(bound)
}

// TransferTime models one host<->device copy of n bytes.
func (d *Device) TransferTime(n int) time.Duration {
	p := &d.Profile
	return p.TransferLatency + secondsToDuration(float64(n)/p.TransferBandwidth)
}

func secondsToDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second))
}
