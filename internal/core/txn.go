package core

import (
	"fmt"
	"maps"

	"repro/internal/sql/ast"
)

// txn is an open explicit transaction. It keeps no copy of any storage:
// while it is open nothing publishes (execWrite returns before the
// autocommit boundary) and checkpoints are refused, so the published
// snapshot db.view is the transaction's base and db.dirty names every
// object the transaction touched. Rollback = re-adopt the snapshot: each
// dirty name takes back a re-frozen copy of the snapshot's object, or is
// removed when the snapshot has none (rollbackLocked).
type txn struct {
	owner *Session // the session that opened it

	// ckptDirty is the checkpoint-dirty map at BEGIN. ROLLBACK restores
	// it: a rolled-back object again matches its on-disk state, so the
	// next checkpoint need not rewrite it.
	ckptDirty map[string]bool
}

// inTxn reports whether sess holds the open transaction. Must be called
// under the writer lock (shared or exclusive).
func (db *DB) inTxn(sess *Session) bool {
	return db.txn != nil && db.txn.owner == sess
}

// txnStmt implements START TRANSACTION / COMMIT / ROLLBACK for a session.
// The engine supports one explicit transaction at a time; it is owned by
// the session that opened it (other sessions' writes are rejected at the
// router, their reads keep executing against the pre-transaction
// snapshot).
func (db *DB) txnStmt(sess *Session, s *ast.Txn) (*Result, error) {
	switch s.Kind {
	case ast.TxnBegin:
		if db.txn != nil {
			return nil, fmt.Errorf("a transaction is already in progress")
		}
		db.txn = &txn{owner: sess, ckptDirty: maps.Clone(db.ckptDirty)}
		return statusResult("transaction started"), nil
	case ast.TxnCommit:
		if db.txn == nil {
			return nil, fmt.Errorf("no transaction in progress")
		}
		// The statement boundary (execWrite) makes the transaction's
		// records durable as one batch and publishes it.
		db.txn = nil
		return statusResult("transaction committed"), nil
	case ast.TxnRollback:
		if db.txn == nil {
			return nil, fmt.Errorf("no transaction in progress")
		}
		db.rollbackLocked()
		return statusResult("transaction rolled back"), nil
	default:
		return nil, fmt.Errorf("unknown transaction statement")
	}
}

// rollbackLocked ends the open transaction by re-adopting the published
// snapshot: publication run in the opposite direction. Rolled-back work
// never reaches the log, and the checkpoint-dirty marks go back to their
// state at BEGIN. Must be called under the writer lock.
func (db *DB) rollbackLocked() {
	refreeze(db.cat, db.view.Load(), db.dirty)
	clear(db.dirty)
	db.walPending = db.walPending[:0]
	db.ckptDirty = db.txn.ckptDirty
	db.txn = nil
}

// stampMod assigns the next value of the database-wide modification
// sequence to an object's Mod counter. A shared monotonic sequence —
// rather than a per-object increment — makes Mod equality a proof of
// content identity across object incarnations too: a DROP + CREATE
// under the same name gets a fresh stamp that a write staged on a stale
// snapshot of the old incarnation can never match (stage.go). ROLLBACK
// hands objects back their pre-transaction stamp together with their
// pre-transaction content, which keeps the proof.
func (db *DB) stampMod(mod *uint64) {
	db.modSeq++
	*mod = db.modSeq
}

// modify stamps an object's modification counter and marks it dirty —
// always before the mutation itself, so a write staged on a snapshot
// whose Mod still matches the live one is guaranteed the content is
// unchanged too.
func (db *DB) modify(name string, mod *uint64) {
	db.stampMod(mod)
	db.touch(name)
}
