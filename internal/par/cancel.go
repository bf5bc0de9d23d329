package par

import (
	"errors"
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

// ErrCanceled is returned by Run/Do variants when the plan's Job was
// cancelled. The MAL interpreter maps it back to the context error.
var ErrCanceled = errors.New("par: execution canceled")

// Job is one query's cancellation scope.
type Job struct{ canceled atomic.Bool }

// NewJob returns a fresh, uncancelled job.
func NewJob() *Job { return &Job{} }

// Cancel flags the job; kernels observe it at the next morsel boundary.
// Safe to call from any goroutine, idempotent.
func (j *Job) Cancel() { j.canceled.Store(true) }

// Canceled reports whether Cancel was called. A nil job never is.
func (j *Job) Canceled() bool {
	return j != nil && j.canceled.Load()
}
