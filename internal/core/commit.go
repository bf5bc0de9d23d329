package core

import (
	"errors"
	"fmt"
	"sync"
)

// Group commit: the write-ahead pipeline that lets N concurrent writers
// share WAL fsyncs instead of paying one each.
//
// A committing statement (or COMMIT) applies its effects to the live
// catalog under db.mu, encodes its WAL batch, enqueues a commitReq — a
// non-blocking operation — publishes the snapshot, releases the lock and
// then blocks on the request's done channel. A dedicated loop goroutine
// drains the queue and appends every waiting batch with a single
// wal.Append call — one write, one fsync — fanning the result (nil or
// the append error) out to every waiter. Under contention the fsync cost
// amortises across the group: fsyncs/commit drops below 1, which is the
// whole point.
//
// Visibility vs durability: effects become visible to readers at apply
// time (publish under db.mu) and the client is acknowledged after the
// group fsync. The commit-window contract is unchanged from the
// serialized path — crash recovery replays exactly the batches the log
// holds, and every acknowledged commit is in the log — but a reader can
// now observe a commit an instant before its writer is acked. The
// serialized path has the same property (it publishes even when the
// flush fails); the crash matrices assert acked ⊆ replayed either way.
//
// Checkpoints run on the loop too, for a correctness reason rather than
// a convenience: a checkpoint folds the *live* catalog — including
// effects whose batches are still queued — and resets the log
// generation. If those queued batches were appended afterwards (to the
// fresh log) recovery would replay them on top of the folded state:
// a double-apply. checkpointOnLoop therefore flushes the queue to the
// outgoing log, under db.mu where the queue cannot grow, before folding.

// errCommitLoopStopped is returned to a writer that raced Close: the
// loop is gone, so the batch cannot be made durable.
var errCommitLoopStopped = errors.New("database closed: commit queue stopped")

// DefaultCommitGroup is the maximum number of commit batches coalesced
// into one WAL fsync. The queue itself is unbounded (each writer has at
// most one request in flight, so it is naturally bounded by the number
// of concurrent sessions); the cap only bounds how much one group can
// defer the next group's waiters.
const DefaultCommitGroup = 256

// commitReq is one unit of work for the commit loop: either a commit
// batch to append+fsync, or (ckpt) a checkpoint barrier from Save.
// done is buffered so the loop never blocks acking an abandoned waiter.
type commitReq struct {
	batch []byte
	ckpt  bool
	done  chan error
}

// commitQueue is the unbounded FIFO between committers and the loop.
// Enqueue never blocks — committers hold db.mu while enqueueing, and a
// bounded queue could deadlock them against a loop that needs db.mu to
// checkpoint. notify is a 1-token wakeup, not a data channel.
type commitQueue struct {
	mu     sync.Mutex
	reqs   []*commitReq
	closed bool
	notify chan struct{}
	gate   chan struct{} // test hook: loop parks on it before draining
}

func (q *commitQueue) enqueue(r *commitReq) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errCommitLoopStopped
	}
	q.reqs = append(q.reqs, r)
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
	return nil
}

// drain blocks until work is queued and returns all of it, or nil once
// the queue is closed and empty.
func (q *commitQueue) drain() []*commitReq {
	for {
		if g := q.gateCh(); g != nil {
			<-g
		}
		q.mu.Lock()
		if len(q.reqs) > 0 {
			reqs := q.reqs
			q.reqs = nil
			q.mu.Unlock()
			return reqs
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil
		}
		<-q.notify
	}
}

// takeAll empties the queue without blocking (checkpointOnLoop, under
// db.mu, where no enqueue can race).
func (q *commitQueue) takeAll() []*commitReq {
	q.mu.Lock()
	defer q.mu.Unlock()
	reqs := q.reqs
	q.reqs = nil
	return reqs
}

// close marks the queue closed (enqueue fails, drain returns nil once
// empty) and wakes the loop.
func (q *commitQueue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// setGate installs (or clears) the test gate the loop blocks on before
// each drain. Tests park the loop, pile several writers into the queue,
// then close the gate channel to release one combined group.
func (q *commitQueue) setGate(ch chan struct{}) {
	q.mu.Lock()
	q.gate = ch
	q.mu.Unlock()
}

func (q *commitQueue) gateCh() chan struct{} {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.gate
}

// startCommitLoopLocked starts the group-commit pipeline for a writable,
// directory-backed database. Called under db.mu (or before the DB is
// shared) from OpenDB and Promote; no-op for in-memory databases and when
// the loop already runs.
func (db *DB) startCommitLoopLocked() {
	if db.dir == "" || db.commitQ != nil {
		return
	}
	db.commitQ = &commitQueue{notify: make(chan struct{}, 1)}
	db.commitDone = make(chan struct{})
	go db.commitLoop(db.commitQ)
}

// stopCommitLoop closes the queue and waits for the loop to drain and
// exit. After it returns the serialized paths own the WAL again.
func (db *DB) stopCommitLoop() {
	db.mu.Lock()
	q := db.commitQ
	db.commitQ = nil
	db.mu.Unlock()
	if q == nil {
		return
	}
	q.close()
	<-db.commitDone
}

// commitLoop is the leader: it drains the queue, appends waiting commit
// batches in fsync-sharing groups, runs checkpoint barriers (Save) and
// the background size-triggered checkpoint, and fans results out to the
// waiters. It owns db.wal — the only other writers to the field are
// OpenDB (before the loop starts), replica apply (no loop), and Close
// (after the loop stops).
func (db *DB) commitLoop(q *commitQueue) {
	defer close(db.commitDone)
	// stuck, once set, fails every later group with the first append
	// failure instead of appending it: batches enqueued in the window
	// before the degraded latch became visible must not land in the log
	// after a missing batch, or recovery would replay state with a hole
	// in its history. A successful checkpoint (Save) re-converges memory
	// with disk and clears it.
	var stuck error
	for {
		reqs := q.drain()
		if reqs == nil {
			return
		}
		for len(reqs) > 0 {
			n := 0
			for n < len(reqs) && !reqs[n].ckpt {
				n++
			}
			stuck = db.appendGroups(reqs[:n], stuck, false)
			reqs = reqs[n:]
			if len(reqs) > 0 { // reqs[0] is a Save barrier
				stuck = db.checkpointOnLoop(q, reqs, stuck, true)
				reqs = nil
			}
		}
		stuck = db.checkpointOnLoop(q, nil, stuck, false)
	}
}

// appendGroups splits reqs into groups of at most commitGroup batches,
// each appended with a single fsync.
func (db *DB) appendGroups(reqs []*commitReq, stuck error, locked bool) error {
	for i := 0; i < len(reqs); i += db.commitGroup {
		j := min(i+db.commitGroup, len(reqs))
		stuck = db.appendGroup(reqs[i:j], stuck, locked)
	}
	return stuck
}

// appendGroup appends one group of commit batches as a single
// write+fsync and delivers the outcome to every waiter — the leader's
// fault is every follower's fault: on an append error all N waiters get
// the same ErrDegraded-wrapped result and none are acked as durable.
// locked says whether the caller already holds db.mu (checkpoint path).
func (db *DB) appendGroup(group []*commitReq, stuck error, locked bool) error {
	if len(group) == 0 {
		return stuck
	}
	err := stuck
	if err == nil {
		batches := make([][]byte, len(group))
		for i, r := range group {
			batches[i] = r.batch
		}
		if aerr := db.wal.Append(batches...); aerr != nil {
			// Same contract as the serialized flushWALLocked: the applied
			// effects are missing from the log, memory and disk diverged —
			// latch degraded so no later record references state the log
			// never saw. The waiters' error carries both the sentinel and
			// the cause.
			cause := fmt.Errorf("wal append: %v", aerr)
			if !locked {
				db.mu.Lock()
			}
			db.degradeLocked(cause)
			if !locked {
				db.mu.Unlock()
			}
			err = fmt.Errorf("%w: %v", ErrDegraded, cause)
		}
	}
	for _, r := range group {
		r.done <- err
	}
	return err
}

// checkpointOnLoop runs a checkpoint on the commit loop. carry is
// queue-ordered work the loop already drained (its first request is the
// Save barrier that forced the call); force distinguishes a barrier
// from the background size-triggered variant, which quietly skips when
// the threshold is not crossed or the database is mid-transaction or
// degraded, and fails the barriers it took from the queue when its own
// append latches degraded mode. Before folding, every commit batch
// already applied and enqueued is appended to the outgoing log — under
// db.mu the queue cannot grow (enqueueing requires the lock), and
// folding effects whose batches would otherwise land in the fresh
// generation would make recovery apply them twice.
func (db *DB) checkpointOnLoop(q *commitQueue, carry []*commitReq, stuck error, force bool) error {
	db.mu.Lock()
	if !force && (db.ckptBytes <= 0 || db.wal == nil || db.txn != nil ||
		db.degraded != nil || db.wal.Size() <= db.ckptBytes) {
		db.mu.Unlock()
		return stuck
	}
	all := append(carry, q.takeAll()...)
	var barriers, commits []*commitReq
	for _, r := range all {
		if r.ckpt {
			barriers = append(barriers, r)
		} else {
			commits = append(commits, r)
		}
	}
	stuck = db.appendGroups(commits, stuck, true)
	var err error
	if !force && db.degraded != nil {
		// The append just latched degraded mode. Checkpointing now would
		// fold the failed commits' effects into the store and lift the
		// latch; only an explicit Save may re-converge.
		err = db.writeBlockedErr()
	} else if err = db.checkpointLocked(); err == nil {
		stuck = nil
	}
	db.mu.Unlock()
	for _, r := range barriers {
		r.done <- err
	}
	return stuck
}

// enqueueCommitLocked encodes the pending WAL records of the finished
// statement or transaction as one batch and hands it to the commit
// loop, returning the request the caller must wait on after releasing
// db.mu. A nil request means there is nothing to make durable.
func (db *DB) enqueueCommitLocked() (*commitReq, error) {
	if db.wal == nil || len(db.walPending) == 0 {
		db.walPending = db.walPending[:0]
		return nil, nil
	}
	req := &commitReq{batch: encodeBatch(db.walPending), done: make(chan error, 1)}
	db.walPending = db.walPending[:0]
	if err := db.commitQ.enqueue(req); err != nil {
		db.degradeLocked(err)
		return nil, err
	}
	db.commits++
	return req, nil
}

// commitBoundaryLocked is the autocommit durability+publication
// boundary shared by execStmtCtx and the bulk-load path: with the commit
// loop running it enqueues the batch (the caller waits on the returned
// request after unlocking); without one — an in-memory database, which
// has no log, or a loop Close already stopped — it flushes the log
// inline and may trigger an inline checkpoint.
func (db *DB) commitBoundaryLocked() (*commitReq, error) {
	if db.commitQ != nil {
		req, err := db.enqueueCommitLocked()
		if len(db.dirty) > 0 {
			db.publishLocked()
		}
		return req, err
	}
	ferr := db.flushWALLocked()
	if len(db.dirty) > 0 {
		db.publishLocked()
	}
	if ferr != nil {
		return nil, ferr
	}
	// No automatic checkpoint once degraded: it would persist the very
	// statement the caller was just told failed (and silently lift the
	// read-only state). Only an explicit Save/Close may re-converge
	// after a WAL failure.
	if db.degraded == nil {
		if cerr := db.maybeCheckpointLocked(); cerr != nil {
			return nil, cerr
		}
	}
	return nil, nil
}

// takePendingCommitLocked collects the commit request a nested path
// (txnStmt's COMMIT) registered for the statement boundary to wait on.
func (db *DB) takePendingCommitLocked() (*commitReq, string) {
	req, msg := db.pendingCommit, db.pendingMsg
	db.pendingCommit, db.pendingMsg = nil, ""
	return req, msg
}

// CommitStats returns the number of durable commit batches issued and
// the number of WAL fsyncs spent on them since open (across log
// generations). commits/syncs > 1 means group commit is amortising;
// the N-writer benchmark reports syncs/commits as fsyncs/commit.
func (db *DB) CommitStats() (commits, syncs int64) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	syncs = db.syncsRetired
	if db.wal != nil {
		syncs += db.wal.Syncs()
	}
	return db.commits, syncs
}
