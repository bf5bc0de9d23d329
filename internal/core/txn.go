package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/shape"
	"repro/internal/sql/ast"
)

// txn is an explicit transaction's undo log. The engine runs under a
// single-writer lock, so the log only needs to support rollback: before
// the first mutation of an object inside the transaction, a deep snapshot
// of its storage is taken; ROLLBACK restores the snapshots and reverses
// DDL.
type txn struct {
	created       []string
	droppedTables map[string]*catalog.Table
	droppedArrays map[string]*catalog.Array
	tableSnaps    map[string]*tableSnap
	arraySnaps    map[string]*arraySnap

	// freshDirty records every checkpoint-dirty upgrade this transaction
	// caused (clean → dirty, or meta-dirty → data-dirty); ROLLBACK
	// restores the prior marks in reverse so the next checkpoint does not
	// rewrite segments that still match disk.
	freshDirty []dirtyMark
}

// dirtyMark is the pre-transaction checkpoint-dirty state of one object.
type dirtyMark struct {
	name string
	had  bool // present in ckptDirty at all
	data bool // its previous data-dirty level
}

type tableSnap struct {
	bats    []*bat.BAT
	deleted *bat.Bitmap
}

type arraySnap struct {
	shape     shape.Shape
	attrBats  []*bat.BAT
	dimBats   []*bat.BAT
	unbounded []bool
}

func newTxn() *txn {
	return &txn{
		droppedTables: map[string]*catalog.Table{},
		droppedArrays: map[string]*catalog.Array{},
		tableSnaps:    map[string]*tableSnap{},
		arraySnaps:    map[string]*arraySnap{},
	}
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
		db.txn = newTxn()
		db.txnOwner = sess
		return statusResult("transaction started"), nil
	case ast.TxnCommit:
		if db.txn == nil {
			return nil, fmt.Errorf("no transaction in progress")
		}
		// The statement boundary (execWrite) makes the transaction's
		// records durable as one batch and publishes it.
		db.txn = nil
		db.txnOwner = nil
		return statusResult("transaction committed"), nil
	case ast.TxnRollback:
		if db.txn == nil {
			return nil, fmt.Errorf("no transaction in progress")
		}
		db.txn.rollback(db)
		db.txn = nil
		db.txnOwner = nil
		// Rolled-back work never reaches the log.
		db.discardWALPending()
		// Re-publish the restored state: the undo log swapped fresh
		// clones into the live catalog for every object the transaction
		// touched.
		db.publishLocked()
		return statusResult("transaction rolled back"), nil
	default:
		return nil, fmt.Errorf("unknown transaction statement")
	}
}

func (t *txn) rollback(db *DB) {
	// Remove objects created inside the transaction.
	for _, name := range t.created {
		if _, ok := db.cat.Table(name); ok {
			_ = db.cat.DropTable(name)
		}
		if _, ok := db.cat.Array(name); ok {
			_ = db.cat.DropArray(name)
		}
	}
	// Restore dropped objects.
	for _, tb := range t.droppedTables {
		_ = db.cat.AddTable(tb)
	}
	for _, a := range t.droppedArrays {
		_ = db.cat.AddArray(a)
	}
	// Restore modified storage in place.
	for name, snap := range t.tableSnaps {
		if tb, ok := db.cat.Table(name); ok {
			tb.Bats = snap.bats
			tb.Deleted = snap.deleted
		}
	}
	for name, snap := range t.arraySnaps {
		if a, ok := db.cat.Array(name); ok {
			a.Shape = snap.shape
			a.AttrBats = snap.attrBats
			a.DimBats = snap.dimBats
			a.Unbounded = snap.unbounded
		}
	}
	// Everything is back to its pre-transaction state: restore the
	// checkpoint-dirty marks the transaction upgraded (in reverse, so
	// multi-step upgrades unwind to the original level).
	for i := len(t.freshDirty) - 1; i >= 0; i-- {
		m := t.freshDirty[i]
		if m.had {
			db.ckptDirty[m.name] = m.data
		} else {
			delete(db.ckptDirty, m.name)
		}
	}
}

// noteCreate records an object created inside the transaction. It also
// marks the name dirty for snapshot publication.
func (db *DB) noteCreate(name string) {
	db.touch(name)
	if db.txn != nil {
		db.txn.created = append(db.txn.created, name)
	}
}

// noteDropTable snapshots a table being dropped inside the transaction.
func (db *DB) noteDropTable(t *catalog.Table) {
	db.touch(t.Name)
	if db.txn != nil {
		db.txn.droppedTables[t.Name] = t
	}
}

// noteDropArray snapshots an array being dropped inside the transaction.
func (db *DB) noteDropArray(a *catalog.Array) {
	db.touch(a.Name)
	if db.txn != nil {
		db.txn.droppedArrays[a.Name] = a
	}
}

// stampMod assigns the next value of the database-wide modification
// sequence to an object's Mod counter. A shared monotonic sequence —
// rather than a per-object increment — makes Mod equality a proof of
// content identity across object incarnations too: a DROP + CREATE
// under the same name gets a fresh stamp that a write staged on a stale
// snapshot of the old incarnation can never match (stage.go).
func (db *DB) stampMod(mod *uint64) {
	db.modSeq++
	*mod = db.modSeq
}

// noteModifyTable snapshots a table before its first in-transaction write.
// It also stamps the table's modification counter — always before the
// mutation itself, so a write staged on a snapshot whose Mod still
// matches the live one is guaranteed the content is unchanged too.
func (db *DB) noteModifyTable(t *catalog.Table) {
	db.stampMod(&t.Mod)
	db.touch(t.Name)
	db.snapTable(t)
}

// noteDeleteTable is noteModifyTable for DELETE, which only flips bits in
// the deletion mask: the table must re-publish and re-manifest, but its
// segment files still match and the next checkpoint need not rewrite them.
func (db *DB) noteDeleteTable(t *catalog.Table) {
	db.stampMod(&t.Mod)
	db.touchMeta(t.Name)
	db.snapTable(t)
}

func (db *DB) snapTable(t *catalog.Table) {
	if db.txn == nil {
		return
	}
	if _, done := db.txn.tableSnaps[t.Name]; done {
		return
	}
	snap := &tableSnap{deleted: t.Deleted.Clone()}
	for _, b := range t.Bats {
		snap.bats = append(snap.bats, b.Clone())
	}
	db.txn.tableSnaps[t.Name] = snap
}

// noteModifyArray snapshots an array before its first in-transaction write.
// Stamps the array's modification counter first; see noteModifyTable.
func (db *DB) noteModifyArray(a *catalog.Array) {
	db.stampMod(&a.Mod)
	db.touch(a.Name)
	if db.txn == nil {
		return
	}
	if _, done := db.txn.arraySnaps[a.Name]; done {
		return
	}
	snap := &arraySnap{
		shape:     append(shape.Shape{}, a.Shape...),
		unbounded: append([]bool{}, a.Unbounded...),
	}
	for _, b := range a.AttrBats {
		snap.attrBats = append(snap.attrBats, b.Clone())
	}
	for _, b := range a.DimBats {
		snap.dimBats = append(snap.dimBats, b.Clone())
	}
	db.txn.arraySnaps[a.Name] = snap
}
