package par

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
)

// Query cancellation. A query's Job is an explicit argument: the MAL
// interpreter makes one per cancellable run and hands it to every kernel
// it calls, and every kernel passes it on to the plans it builds (NewPlan,
// Do, DoErr, Blocks, Serial). The morsel claim loop checks the Job's
// atomic flag between morsels, and kernel loops that can run long inside
// one morsel (hash build and probe, grouping, aggregate partials, sorts)
// poll it every few thousand rows. Cancelling the Job therefore aborts a
// running kernel within a few thousand rows of work, with one atomic load
// per check and no per-row overhead. A nil Job is never cancelled: code
// outside a query run passes nil.
//
// The Job also fixes the query's parallel shape: its width (the most
// workers one kernel call engages, the caller included) and its cutoff
// (the row count below which a kernel stays serial). Both are set when
// the job is made, so two queries running side by side can differ, and
// nothing a concurrent query does changes a running query's plans. The
// job carries the query's context too (WithContext), which the MAL
// interpreter wires to the job's flag.

// ErrCanceled is returned by Run/Do variants when the plan's Job was
// cancelled. The MAL interpreter maps it back to the context error.
var ErrCanceled = errors.New("par: execution canceled")

// Job is one query's execution scope: its parallel shape, its context
// and cancellation flag, the bytes its column scans touched and, while a
// MAL program runs on it, that run's free list (free.go).
type Job struct {
	ctx      context.Context
	canceled atomic.Bool
	workers  int
	minRows  int
	free     *Free
	touched  atomic.Int64

	// cancelAt, when positive, is the poll at which the job cancels
	// itself (CancelAtPoll); polls counts the checks so far.
	cancelAt int64
	polls    atomic.Int64
}

// NewJob returns a fresh, uncancelled job of the given width and cutoff;
// width <= 0 means runtime.GOMAXPROCS(0) at the time of the call, cutoff
// <= 0 means DefaultMorselThreshold.
func NewJob(width, cutoff int) *Job {
	if width <= 0 {
		width = runtime.GOMAXPROCS(0)
	}
	if cutoff <= 0 {
		cutoff = DefaultMorselThreshold
	}
	return &Job{workers: width, minRows: cutoff}
}

// WithContext makes ctx the job's context and returns the job. Call it
// before the job is handed to any kernel.
func (j *Job) WithContext(ctx context.Context) *Job {
	j.ctx = ctx
	return j
}

// Context returns the job's context (Background when it has none).
func (j *Job) Context() context.Context {
	if j == nil || j.ctx == nil {
		return context.Background()
	}
	return j.ctx
}

// Err returns the job's context error.
func (j *Job) Err() error { return j.Context().Err() }

// Touch charges n bytes of column scan traffic to the job (bat's
// accessors call it); a nil job charges nothing.
func (j *Job) Touch(n int64) {
	if j != nil {
		j.touched.Add(n)
	}
}

// Touched returns the scan bytes charged to the job so far.
func (j *Job) Touched() int64 { return j.touched.Load() }

// width returns the job's parallel width; a nil job's is GOMAXPROCS.
func (j *Job) width() int {
	if j == nil {
		return runtime.GOMAXPROCS(0)
	}
	return j.workers
}

// cutoff returns the row count below which the job's kernels stay serial;
// a nil job's is DefaultMorselThreshold.
func (j *Job) cutoff() int {
	if j == nil {
		return DefaultMorselThreshold
	}
	return j.minRows
}

// Cancel flags the job; kernels observe it at the next morsel boundary.
// Safe to call from any goroutine, idempotent.
func (j *Job) Cancel() { j.canceled.Store(true) }

// Canceled reports whether Cancel was called. A nil job never is.
func (j *Job) Canceled() bool {
	if j == nil {
		return false
	}
	if j.cancelAt > 0 && j.polls.Add(1) >= j.cancelAt {
		j.Cancel()
	}
	return j.canceled.Load()
}

// CancelAtPoll makes the job cancel itself at the n-th time a kernel or a
// plan checks it, as if Cancel had been called just before that check.
// Tests use it to cancel a kernel in the middle of its loop: a kernel
// that polls every few thousand rows reaches the n-th check within a
// known row count, one that polls only between morsels does not. Call it
// before the job is handed to any kernel.
func (j *Job) CancelAtPoll(n int64) { j.cancelAt = n }
