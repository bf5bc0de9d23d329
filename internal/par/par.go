// Package par is the engine's shared execution worker pool. GDK kernels
// split their input BATs into morsels — contiguous, cache-sized row ranges —
// and hand them to a process-wide set of helper goroutines, following the
// morsel-driven scheduling of Leis et al. [SIGMOD 2014] adapted to Go:
// workers claim the next morsel from an atomic cursor, so fast workers
// steal slack from slow ones without any per-morsel channel traffic.
//
// Small inputs never touch the pool: below MorselThreshold rows a kernel
// runs its serial loop on the calling goroutine, so the 16x16 arrays of the
// paper's Fig. 1 pay zero synchronisation overhead. The pool is also a
// global budget: nested kernels (e.g. a parallel aggregate inside a
// parallel join probe) degrade to serial execution instead of
// oversubscribing the machine, and the calling goroutine always
// participates, so no call can deadlock waiting for a free worker.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultMorselThreshold is the row count below which kernels stay serial.
// It is sized so that per-call goroutine handoff (~1-2µs) is well under 1%
// of the work: 16K simple int ops take ~10µs+.
const DefaultMorselThreshold = 16384

// morselRows is the scheduling grain within a parallel call. It is a
// multiple of 64 so that concurrently written null bitmaps never share a
// word across morsels.
const morselRows = 4096

var (
	threads   atomic.Int64 // configured width; 0 = GOMAXPROCS
	threshold atomic.Int64 // serial cutoff in rows

	// live counts helper goroutines currently executing morsels across all
	// concurrent kernel invocations: the shared pool budget.
	live atomic.Int64

	poolMu      sync.Mutex
	poolStarted int         // helper goroutines ever started
	jobs        chan func() // submission queue drained by the helpers
)

func init() {
	threshold.Store(DefaultMorselThreshold)
	jobs = make(chan func(), 256)
}

// Threads returns the configured parallel width (GOMAXPROCS when unset).
func Threads() int {
	if t := threads.Load(); t > 0 {
		return int(t)
	}
	return runtime.GOMAXPROCS(0)
}

// SetThreads sets the parallel width used by all kernels; n <= 0 restores
// the default (GOMAXPROCS). It returns the previous setting (0 = default).
func SetThreads(n int) int {
	if n < 0 {
		n = 0
	}
	return int(threads.Swap(int64(n)))
}

// MorselThreshold returns the serial cutoff in rows.
func MorselThreshold() int { return int(threshold.Load()) }

// SetMorselThreshold sets the serial cutoff (rows); n <= 0 restores the
// default. It returns the previous value. Tests lower it to exercise the
// parallel paths on small inputs.
func SetMorselThreshold(n int) int {
	if n <= 0 {
		n = DefaultMorselThreshold
	}
	return int(threshold.Swap(int64(n)))
}

// Plan is one kernel invocation's partitioning decision, captured once so
// that a concurrent SetThreads cannot change the layout mid-call. Chunks
// are deterministic contiguous ranges: chunk c covers
// [c*Size, min((c+1)*Size, N)), which lets order-sensitive kernels
// (selections, join probes) concatenate per-chunk results in input order.
type Plan struct {
	N     int // total rows
	Size  int // chunk size (multiple of 64)
	chunk int // number of chunks
	width int // max concurrent workers (including the caller)
}

// cancelMorselRows is the chunk grain of cancellable plans: small enough
// that abandoning one in-flight morsel keeps cancellation latency in the
// low milliseconds even for expensive per-row kernels (join probes), and
// a multiple of 64 for bitmap safety.
const cancelMorselRows = 1024

// NewPlan partitions n rows. A serial plan has exactly one chunk —
// unless the calling goroutine has a cancellation Job attached, in which
// case even a single-worker plan is cut into morsels so the claim loop
// observes cancellation between them instead of only before the first
// row (vital on single-core machines, where every plan is width-1).
func NewPlan(n int) Plan {
	w := Threads()
	job := CurrentJob()
	if n < MorselThreshold() || w <= 1 || n <= morselRows {
		if job != nil && n > cancelMorselRows {
			c := (n + cancelMorselRows - 1) / cancelMorselRows
			return Plan{N: n, Size: cancelMorselRows, chunk: c, width: 1}
		}
		return Plan{N: n, Size: n, chunk: 1, width: 1}
	}
	size := morselRows
	if job != nil {
		// Cancellable queries keep the fine grain: the latency bound is
		// one morsel's worth of work, so do not coarsen chunks below.
		size = cancelMorselRows
	}
	// Cap the chunk count so per-chunk bookkeeping stays negligible on huge
	// inputs: at most 8 morsels per worker (uncancellable plans only).
	if max := 8 * w; job == nil && (n+size-1)/size > max {
		size = (n + max - 1) / max
		size = (size + 63) &^ 63 // keep 64-alignment for bitmap safety
	}
	c := (n + size - 1) / size
	if c < 1 {
		c = 1
	}
	if w > c {
		w = c
	}
	return Plan{N: n, Size: size, chunk: c, width: w}
}

// Blocks partitions n rows into fixed chunks of size rows (the last may be
// shorter, size a multiple of 64) whatever the thread count, for kernels
// whose result depends on where chunk boundaries fall. The chunks run on
// the pool when n reaches the morsel threshold.
func Blocks(n, size int) Plan {
	c := max(1, (n+size-1)/size)
	w := 1
	if n >= MorselThreshold() {
		w = min(Threads(), c)
	}
	return Plan{N: n, Size: size, chunk: c, width: w}
}

// Serial returns a one-chunk plan over n rows, for kernels that veto
// parallelism themselves (e.g. when per-worker state would dwarf the input).
func Serial(n int) Plan { return Plan{N: n, Size: n, chunk: 1, width: 1} }

// Parallel reports whether the plan engages the pool.
func (p Plan) Parallel() bool { return p.chunk > 1 }

// Chunks returns the number of chunks.
func (p Plan) Chunks() int { return p.chunk }

// Bounds returns the row range [lo,hi) of chunk c.
func (p Plan) Bounds(c int) (lo, hi int) {
	lo = c * p.Size
	hi = lo + p.Size
	if hi > p.N {
		hi = p.N
	}
	return lo, hi
}

// Run executes fn for every chunk, on the pool when the plan is parallel.
// fn receives the chunk index and its row range. Panics inside fn are
// replayed on the calling goroutine.
func (p Plan) Run(fn func(c, lo, hi int)) {
	_ = p.RunErr(func(c, lo, hi int) error {
		fn(c, lo, hi)
		return nil
	})
}

// RunErr is Run with error propagation: the first error stops morsel
// claiming and is returned. Already-running morsels finish. When the
// calling goroutine has a cancellation Job attached (AttachJob), the
// claim loop checks it between morsels and returns ErrCanceled.
func (p Plan) RunErr(fn func(c, lo, hi int) error) error {
	job := CurrentJob()
	if !p.Parallel() {
		if job.Canceled() {
			return ErrCanceled
		}
		for c := 0; c < p.chunk; c++ {
			lo, hi := p.Bounds(c)
			if err := fn(c, lo, hi); err != nil {
				return err
			}
		}
		return nil
	}

	var (
		cursor   atomic.Int64
		failed   atomic.Bool
		errMu    sync.Mutex
		errChunk int
		firstErr error
		panicked atomic.Bool
		panicVal any
		panOnce  sync.Once
	)
	claim := func() {
		defer func() {
			if r := recover(); r != nil {
				panOnce.Do(func() { panicVal = r })
				panicked.Store(true)
				failed.Store(true)
			}
		}()
		for !failed.Load() {
			if job.Canceled() {
				failed.Store(true)
				return
			}
			c := int(cursor.Add(1) - 1)
			if c >= p.chunk {
				return
			}
			lo, hi := p.Bounds(c)
			if err := fn(c, lo, hi); err != nil {
				// Keep the error of the lowest chunk, not the temporally
				// first one, so a multi-fault input reports the same error a
				// serial run would (chunks already claimed keep running, but
				// their errors only win if they are earlier in the input).
				errMu.Lock()
				if firstErr == nil || c < errChunk {
					firstErr, errChunk = err, c
				}
				errMu.Unlock()
				failed.Store(true)
				return
			}
		}
	}

	var wg sync.WaitGroup
	want := p.width - 1
	limit := int64(Threads() - 1)
	for i := 0; i < want; i++ {
		if !acquireHelper(limit) {
			break
		}
		wg.Add(1)
		if !submit(func() {
			defer wg.Done()
			defer live.Add(-1)
			claim()
		}) {
			live.Add(-1)
			wg.Done()
			break
		}
	}
	claim() // the caller is always a worker
	wg.Wait()
	if panicked.Load() {
		panic(panicVal)
	}
	if firstErr == nil && job.Canceled() {
		return ErrCanceled
	}
	return firstErr
}

// acquireHelper takes one slot from the shared budget, refusing when limit
// helpers are already live (nested parallelism then runs serial).
func acquireHelper(limit int64) bool {
	for {
		cur := live.Load()
		if cur >= limit {
			return false
		}
		if live.CompareAndSwap(cur, cur+1) {
			return true
		}
	}
}

// submit hands a job to the pool without ever blocking the caller: when the
// queue is full the job is dropped and the caller absorbs the work through
// its own morsel claiming.
func submit(f func()) bool {
	ensureWorkers()
	select {
	case jobs <- f:
		return true
	default:
		return false
	}
}

// ensureWorkers lazily starts the long-lived helper goroutines, growing the
// pool when SetThreads raises the width past what is already running.
func ensureWorkers() {
	want := Threads()
	if want < 2 {
		want = 2
	}
	poolMu.Lock()
	for poolStarted < want {
		go func() {
			for f := range jobs {
				f()
			}
		}()
		poolStarted++
	}
	poolMu.Unlock()
}

// Do splits [0,n) into morsels and runs fn over each, in parallel above the
// threshold. fn must be safe to call concurrently on disjoint ranges.
func Do(n int, fn func(lo, hi int)) {
	NewPlan(n).Run(func(_, lo, hi int) { fn(lo, hi) })
}

// DoErr is Do with error propagation. The error of the lowest failing
// morsel wins, so a kernel whose morsels stop at their first failing row
// reports the lowest failing row, as a serial run would.
func DoErr(n int, fn func(lo, hi int) error) error {
	return NewPlan(n).RunErr(func(_, lo, hi int) error { return fn(lo, hi) })
}
