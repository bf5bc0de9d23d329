package core

import (
	"errors"
	"fmt"
	"log"
)

// Read-only degraded mode. A durability-affecting write error — a failed
// WAL append or fsync, a short write from a full disk, a checkpoint that
// could not publish its segments or manifest — means the in-memory state
// and the on-disk state may have diverged, so the engine latches into a
// sticky degraded mode rather than compounding the divergence:
//
//   - reads keep serving the last published snapshot (nothing about it
//     is suspect — it was built before the fault);
//   - writes fail with an error wrapping ErrDegraded, carrying the
//     original cause;
//   - /healthz (via DB.Degraded) reports "degraded" with the cause;
//   - recovery is explicit: a successful Save (the full state folds into
//     a fresh checkpoint, re-converging disk with memory) or reopening
//     the database (recovers to the last durable commit) clears it.
//
// The mode latches once: later faults while already degraded do not
// replace the recorded first cause, which is the one the operator needs.

// ErrDegraded marks every write rejected while the database is in
// read-only degraded mode; test with errors.Is.
var ErrDegraded = errors.New("database is read-only (degraded)")

// ErrReadOnly marks every write rejected by policy: the -read-only flag
// or replica mode. Unlike ErrDegraded it is not a fault — the store is
// healthy, writes are simply not this node's job. Test with errors.Is.
var ErrReadOnly = errors.New("database is read-only")

// Degraded returns the cause that latched read-only degraded mode, or
// nil when the database is healthy. Safe for concurrent use.
func (db *DB) Degraded() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.degraded
}

// degradeLocked latches degraded mode with the given cause (first cause
// wins). Must be called under the writer lock.
func (db *DB) degradeLocked(cause error) {
	if db.degraded != nil {
		return
	}
	db.degraded = cause
	log.Printf("sciql: entering read-only degraded mode: %v", cause)
}

// writeBlockedErr returns the refusal every write path must surface
// while read-only or a replica, degraded, or closed (nil otherwise). A
// writable directory-backed database without a commit loop is closed:
// OpenDB and Promote start the loop, only Close stops it. Must be called
// under the writer lock (read or write).
func (db *DB) writeBlockedErr() error {
	switch {
	case db.readOnly != "":
		return fmt.Errorf("%w (%s)", ErrReadOnly, db.readOnly)
	case db.degraded != nil:
		return fmt.Errorf("%w: %v; Save() or reopen to recover", ErrDegraded, db.degraded)
	case db.dir != "" && db.commitQ == nil:
		return errClosed
	}
	return nil
}
