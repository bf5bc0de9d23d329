package core

// The write router: every DML statement — table and array INSERT, from
// VALUES or a query, UPDATE and DELETE — takes one pipeline, on every
// database, in memory and durable, inside and outside transactions.
//
//  1. stage — bind and run the statement against a catalog, producing
//     the mutation to apply plus its read set: every object the binder
//     looked up, the target included, with the Mod stamp it had there
//     (or absent). Staging reads the catalog and never mutates it.
//  2. validate — under the writer lock, compare the read set with the
//     live catalog.
//  3. apply — run the mutation (applyTableInsert, applyArrayWrite,
//     apply*WritePlan) and the shared autocommit boundary.
//
// Outside a transaction a statement stages against the published
// snapshot, without any lock, so the pure work of concurrent writers
// (binding, the write program, casting) runs in parallel. If another
// writer changed anything the statement read, validation fails and the
// statement stages again against the live catalog in the same lock hold,
// where its read set validates trivially, and applies: callers never see
// a conflict. A staging error is only reported once its read set
// validates, so a stale snapshot cannot misreport one (say, "no such
// table" for a table created after the snapshot). The owner of an open
// transaction stages against the live catalog under the lock from the
// start: the same function, the same validation.
//
// Mod stamps come from a database-wide sequence (stampMod), bumped before
// every mutation and on every CREATE, so Mod equality proves an object's
// content is what the statement read — across a DROP + CREATE of the same
// name too.

import (
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/rel"
	"repro/internal/sql/ast"
)

// errWriteConflict reports that an object a staged write read has changed
// in the live catalog since staging.
var errWriteConflict = errors.New("write conflict")

// readMark is one entry of a read set: an object name and the Mod stamp
// of the object it named in the staging catalog, or absent.
type readMark struct {
	name    string
	mod     uint64
	present bool
}

// markOf looks name up in cat the way the binder does: a table first,
// then an array.
func markOf(cat *catalog.Catalog, name string) readMark {
	if t, ok := cat.Table(name); ok {
		return readMark{name: name, mod: t.Mod, present: true}
	}
	if a, ok := cat.Array(name); ok {
		return readMark{name: name, mod: a.Mod, present: true}
	}
	return readMark{name: name}
}

// stagedWrite is one DML statement staged against a catalog: the read set
// that validates it, and either the mutation to apply or the error
// staging ended with.
type stagedWrite struct {
	reads []readMark
	apply func(db *DB) (*Result, error)
	err   error
}

// stage stages one INSERT, UPDATE or DELETE against the catalog q reads.
// It runs without the writer lock when that is a published snapshot,
// under it when it is the live catalog.
func (db *DB) stage(q *stmt, s ast.Statement) *stagedWrite {
	b := rel.NewBinder(q.cat)
	apply, err := db.stageWith(q, b, s)
	st := &stagedWrite{apply: apply, err: err}
	for _, name := range b.Reads() {
		st.reads = append(st.reads, markOf(q.cat, name))
	}
	return st
}

// stageWith stages stmt through b, whose lookups form the read set. The
// returned mutation finds its target in the live catalog by name:
// validation has proven it is the object staging read.
func (db *DB) stageWith(q *stmt, b *rel.Binder, s ast.Statement) (func(db *DB) (*Result, error), error) {
	switch s := s.(type) {
	case *ast.Insert:
		t, a := b.Lookup(s.Table)
		switch {
		case t != nil:
			cols, err := db.stageTableInsert(q, b, t, s)
			if err != nil {
				return nil, err
			}
			return func(db *DB) (*Result, error) {
				lt, _ := db.cat.Table(t.Name)
				return db.applyTableInsert(lt, cols)
			}, nil
		case a != nil:
			w, err := db.stageArrayInsert(q, b, a, s)
			if err != nil {
				return nil, err
			}
			return func(db *DB) (*Result, error) {
				la, _ := db.cat.Array(a.Name)
				return db.applyArrayWrite(q, la, w)
			}, nil
		}
		return nil, fmt.Errorf("at %s: no such table or array: %q", s.Pos, s.Table)
	case *ast.Update, *ast.Delete:
		p, err := db.planWrite(q, b, s)
		if err != nil {
			return nil, err
		}
		if t := p.w.T; t != nil {
			return func(db *DB) (*Result, error) {
				lt, _ := db.cat.Table(t.Name)
				return db.applyTableWritePlan(lt, p)
			}, nil
		}
		return func(db *DB) (*Result, error) {
			la, _ := db.cat.Array(p.w.A.Name)
			return db.applyArrayWritePlan(la, p)
		}, nil
	}
	return nil, fmt.Errorf("unsupported write statement %T", s)
}

// validateLocked checks a read set against the live catalog: nil when
// every object the statement read is still the one it read. Must be
// called under the writer lock.
func (db *DB) validateLocked(reads []readMark) error {
	for _, m := range reads {
		if markOf(db.cat, m.name) != m {
			return fmt.Errorf("%w: %q changed since the statement was staged", errWriteConflict, m.name)
		}
	}
	return nil
}

// writeLocked applies one DML statement under the writer lock. A write
// staged on a snapshot (st) applies when its read set validates; one that
// was not staged, or no longer validates, stages again against the live
// catalog, which q reads here. Must be called under the writer lock.
func (db *DB) writeLocked(q *stmt, s ast.Statement, st *stagedWrite) (*Result, error) {
	if st == nil || db.validateLocked(st.reads) != nil {
		st = db.stage(q, s)
	}
	if st.err != nil {
		return nil, st.err
	}
	return st.apply(db)
}
