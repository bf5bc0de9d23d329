// Package par is the engine's shared execution worker pool. GDK kernels
// split their input BATs into morsels — contiguous, cache-sized row ranges —
// and hand them to a process-wide set of helper goroutines, following the
// morsel-driven scheduling of Leis et al. [SIGMOD 2014] adapted to Go:
// workers claim the next morsel from an atomic cursor, so fast workers
// steal slack from slow ones without any per-morsel channel traffic.
//
// The parallel width and the serial cutoff are properties of the query's
// Job, not of the process: each kernel plans its call from the job it is
// handed. Small inputs never touch the pool: below the job's cutoff a
// kernel runs its serial loop on the calling goroutine, so the 16x16
// arrays of the paper's Fig. 1 pay zero synchronisation overhead. The pool
// is also a global budget: nested kernels (e.g. a parallel aggregate
// inside a parallel join probe) degrade to serial execution instead of
// oversubscribing the machine, and the calling goroutine always
// participates, so no call can deadlock waiting for a free worker.
package par

import (
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
	// live counts helper goroutines currently executing morsels across all
	// concurrent kernel invocations: the shared pool budget.
	live atomic.Int64

	poolMu      sync.Mutex
	poolStarted int         // helper goroutines ever started
	jobs        chan func() // submission queue drained by the helpers
)

func init() {
	jobs = make(chan func(), 256)
}

// Plan is one kernel invocation's partitioning decision. Chunks are
// deterministic contiguous ranges: chunk c covers
// [c*Size, min((c+1)*Size, N)), which lets order-sensitive kernels
// (selections, join probes) concatenate per-chunk results in input order.
// The plan carries the query's Job, which RunErr checks between chunks.
type Plan struct {
	N     int // total rows
	Size  int // chunk size (multiple of 64)
	chunk int // number of chunks
	width int // max concurrent workers (including the caller)
	job   *Job
}

// NewPlan partitions n rows at the job's width and cutoff (nil job:
// uncancellable, GOMAXPROCS and DefaultMorselThreshold). A plan below the
// cutoff, or at width 1, is one serial chunk; otherwise chunks are
// morselRows rows, coarsened so there are at most 8 per worker. The shape
// depends on n, the width and the cutoff alone.
func NewPlan(job *Job, n int) Plan {
	w := job.width()
	if n < job.cutoff() || w <= 1 || n <= morselRows {
		return Serial(job, n)
	}
	size := morselRows
	// Cap the chunk count so per-chunk bookkeeping stays negligible on huge
	// inputs: at most 8 morsels per worker.
	if max := 8 * w; (n+size-1)/size > max {
		size = (n + max - 1) / max
		size = (size + 63) &^ 63 // keep 64-alignment for bitmap safety
	}
	c := (n + size - 1) / size
	if w > c {
		w = c
	}
	return Plan{N: n, Size: size, chunk: c, width: w, job: job}
}

// Blocks partitions n rows into fixed chunks of size rows (the last may be
// shorter, size a multiple of 64) whatever the thread count, for kernels
// whose result depends on where chunk boundaries fall. The chunks run on
// the pool when n reaches the job's cutoff.
func Blocks(job *Job, n, size int) Plan {
	c := max(1, (n+size-1)/size)
	w := 1
	if n >= job.cutoff() {
		w = min(job.width(), c)
	}
	return Plan{N: n, Size: size, chunk: c, width: w, job: job}
}

// Serial returns a one-chunk plan over n rows, for kernels that veto
// parallelism themselves (e.g. when per-worker state would dwarf the input).
func Serial(job *Job, n int) Plan { return Plan{N: n, Size: n, chunk: 1, width: 1, job: job} }

// Job returns the job the plan was made for.
func (p Plan) Job() *Job { return p.job }

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
// claiming and is returned. Already-running morsels finish. The claim
// loop checks the plan's Job between morsels and returns ErrCanceled.
func (p Plan) RunErr(fn func(c, lo, hi int) error) error {
	job := p.job
	if !p.Parallel() {
		if job.Canceled() {
			return ErrCanceled
		}
		if err := fn(0, 0, p.N); err != nil {
			return err
		}
		if job.Canceled() {
			return ErrCanceled
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
	jw := p.job.width()
	for i := 0; i < want; i++ {
		if !acquireHelper(int64(jw - 1)) {
			break
		}
		wg.Add(1)
		if !submit(jw, func() {
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
// helpers are already live across all running kernels (nested parallelism
// then runs serial). Callers pass their job's width less themselves.
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

// submit hands f to the pool, grown to at least width helpers, without ever
// blocking the caller: when the queue is full f is dropped and the caller
// absorbs the work through its own morsel claiming.
func submit(width int, f func()) bool {
	ensureWorkers(width)
	select {
	case jobs <- f:
		return true
	default:
		return false
	}
}

// ensureWorkers lazily starts the long-lived helper goroutines, growing the
// pool when a job's width exceeds what is already running.
func ensureWorkers(width int) {
	want := max(width, 2)
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
// job's cutoff. fn must be safe to call concurrently on disjoint ranges.
func Do(job *Job, n int, fn func(lo, hi int)) {
	NewPlan(job, n).Run(func(_, lo, hi int) { fn(lo, hi) })
}

// DoErr is Do with error propagation. The error of the lowest failing
// morsel wins, so a kernel whose morsels stop at their first failing row
// reports the lowest failing row, as a serial run would.
func DoErr(job *Job, n int, fn func(lo, hi int) error) error {
	return NewPlan(job, n).RunErr(func(_, lo, hi int) error { return fn(lo, hi) })
}
