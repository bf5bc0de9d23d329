package core

// Optimistic concurrency for autocommit DML — the parallel-prepare half
// of the concurrent write path (commit.go is the group-fsync half).
//
// A mutating statement used to spend its whole life under the writer
// lock: bind, run the write program (the WHERE selection and the SET
// values), cast every value, then mutate. For non-conflicting writers
// that serialises work that is pure — planning reads the catalog without
// touching it. The optimistic path moves the pure part off the lock:
//
//  1. prepare — plan the statement against the last *published* snapshot
//     (the same immutable catalog readers use), producing a staged
//     effect plus the snapshot Mod of the one object it targets;
//  2. validate + apply — take the writer lock, check the live object's
//     Mod still equals the snapshot's (first-committer-wins at object
//     granularity), replay the staged effect, run the shared autocommit
//     boundary (enqueue on the commit queue + publish), drop the lock;
//  3. wait — block on the group-commit fsync outside the lock.
//
// Mod stamps come from a database-wide sequence (stampMod), bumped
// before every mutation, so Mod equality proves the object's content is
// bit-identical to the snapshot the plan was built against — including
// across a DROP + CREATE of the same name. Losers get ErrWriteConflict;
// the statement router retries with a fresh snapshot a few times and
// then falls back to the serialized path, which always makes progress,
// so plain Exec callers never observe a spurious conflict error.
//
// Statements whose plans read more than their one target object
// (INSERT ... SELECT), or that reshape storage (array INSERT growing
// unbounded dimensions), or that run inside an explicit transaction,
// stay on the serialized path.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql/ast"
)

// ErrWriteConflict reports that an optimistic write lost the
// first-committer-wins race: between prepare (against a published
// snapshot) and apply (under the writer lock) another writer modified —
// or dropped, or dropped and recreated — the target object.
var ErrWriteConflict = errors.New("write conflict")

// errOptimisticFallback tells the router the staged write cannot be
// applied in the current engine state (an explicit transaction opened,
// or group commit shut down) and the statement must take the serialized
// path instead. Never returned to users.
var errOptimisticFallback = errors.New("optimistic apply: fall back to serialized path")

// optimisticRetries bounds how many fresh-snapshot retries the router
// gives an optimistic statement before falling back to the serialized
// path.
const optimisticRetries = 3

// stagedWrite is a DML effect prepared outside the writer lock against a
// published snapshot, plus what apply needs to validate it: the target
// object and its snapshot Mod. Exactly one of applyT/applyA is set.
type stagedWrite struct {
	name    string
	isTable bool
	mod     uint64
	applyT  func(db *DB, t *catalog.Table) (*Result, error)
	applyA  func(db *DB, a *catalog.Array) (*Result, error)
}

// prepareOptimistic stages an eligible DML statement against snap. A nil
// staged write with a nil error means "not eligible — run serialized":
// ineligible statement shapes and missing objects fall back rather than
// erroring, because the serialized path recomputes against the live
// catalog and reports the authoritative error (a stale snapshot could
// misreport, e.g. for a table created after the snapshot was taken).
func prepareOptimistic(ctx context.Context, snap *catalog.Catalog, stmt ast.Statement) (*stagedWrite, error) {
	switch s := stmt.(type) {
	case *ast.Insert:
		if s.Query != nil {
			// INSERT ... SELECT plans against arbitrary objects; only the
			// serialized path sees them consistently with the target.
			return nil, nil
		}
		t, ok := snap.Table(s.Table)
		if !ok {
			// Array INSERT can grow unbounded dimensions — a reshape, not
			// an append — so it stays serialized; so do missing objects.
			return nil, nil
		}
		full, err := stageTableInsert(snap, t, s)
		if err != nil {
			return nil, err
		}
		return &stagedWrite{name: t.Name, isTable: true, mod: t.Mod,
			applyT: func(db *DB, lt *catalog.Table) (*Result, error) {
				return db.applyTableInsert(lt, full)
			}}, nil
	case *ast.Update, *ast.Delete:
		name := writeTarget(s)
		if _, ok := snap.Table(name); !ok {
			if _, ok := snap.Array(name); !ok {
				return nil, nil
			}
		}
		// The same write program the serialized path runs, compiled
		// against the snapshot.
		p, err := planWrite(ctx, snap, s)
		if err != nil {
			return nil, err
		}
		if t := p.w.T; t != nil {
			return &stagedWrite{name: t.Name, isTable: true, mod: t.Mod,
				applyT: func(db *DB, lt *catalog.Table) (*Result, error) {
					return db.applyTableWritePlan(lt, p)
				}}, nil
		}
		a := p.w.A
		return &stagedWrite{name: a.Name, mod: a.Mod,
			applyA: func(db *DB, la *catalog.Array) (*Result, error) {
				return db.applyArrayWritePlan(la, p)
			}}, nil
	}
	return nil, nil
}

// writeTarget names the object an UPDATE or DELETE writes.
func writeTarget(stmt ast.Statement) string {
	if u, ok := stmt.(*ast.Update); ok {
		return u.Table
	}
	return stmt.(*ast.Delete).Table
}

// execOptimistic runs one autocommit DML statement through the
// optimistic path. ok=false means the caller must run the serialized
// path: ineligible statement, prepare error (the serialized path
// reports the authoritative message), engine state change, or a
// conflict storm that exhausted the retries. A prepare cut short by ctx
// reports ctx's error without taking the writer lock.
func (db *DB) execOptimistic(ctx context.Context, stmt ast.Statement) (*Result, *commitReq, bool, error) {
	for attempt := 0; attempt < optimisticRetries; attempt++ {
		db.mu.RLock()
		ready := db.commitQ != nil && db.txn == nil
		snap := db.view.Load()
		db.mu.RUnlock()
		if !ready {
			return nil, nil, false, nil
		}
		st, err := prepareOptimistic(ctx, snap, stmt)
		if cerr := ctx.Err(); cerr != nil {
			return nil, nil, true, cerr
		}
		if st == nil || err != nil {
			return nil, nil, false, nil
		}
		r, req, aerr := db.applyStaged(st)
		switch {
		case errors.Is(aerr, ErrWriteConflict):
			continue // lost the race: re-prepare against a fresh snapshot
		case errors.Is(aerr, errOptimisticFallback):
			return nil, nil, false, nil
		}
		return r, req, true, aerr
	}
	return nil, nil, false, nil
}

// applyStaged validates and applies one staged write under the writer
// lock, then runs the shared autocommit boundary. The returned commit
// request must be waited on after the lock is released (execStmtCtx).
func (db *DB) applyStaged(st *stagedWrite) (*Result, *commitReq, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn != nil || db.commitQ == nil {
		return nil, nil, errOptimisticFallback
	}
	if werr := db.writeBlockedErr(); werr != nil {
		return nil, nil, werr
	}
	var (
		r   *Result
		err error
	)
	if st.isTable {
		lt, ok := db.cat.Table(st.name)
		if !ok || lt.Mod != st.mod {
			return nil, nil, fmt.Errorf("%w: %q was modified concurrently", ErrWriteConflict, st.name)
		}
		r, err = st.applyT(db, lt)
	} else {
		la, ok := db.cat.Array(st.name)
		if !ok || la.Mod != st.mod {
			return nil, nil, fmt.Errorf("%w: %q was modified concurrently", ErrWriteConflict, st.name)
		}
		r, err = st.applyA(db, la)
	}
	req, berr := db.commitBoundaryLocked()
	if berr != nil && err == nil {
		err = berr
	}
	return r, req, err
}

// ExecOptimistic executes exactly one DML statement through the
// optimistic path without retrying: prepare runs against the published
// snapshot outside the writer lock, and if a conflicting writer commits
// first the error wraps ErrWriteConflict — the caller owns the retry
// policy. Statements the optimistic path does not cover (anything but
// single-object INSERT ... VALUES / UPDATE / DELETE), in-memory or
// read-only databases, and databases opened with group commit disabled
// are rejected. Prepare errors are reported relative to the snapshot.
func (s *Session) ExecOptimistic(query string) (*Result, error) {
	stmts, err := s.db.parse(query)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("ExecOptimistic takes exactly one statement, got %d", len(stmts))
	}
	db := s.db
	db.mu.RLock()
	ready := db.commitQ != nil && db.txn == nil
	snap := db.view.Load()
	db.mu.RUnlock()
	if !ready {
		return nil, fmt.Errorf("optimistic execution needs group commit enabled and no open transaction")
	}
	st, err := prepareOptimistic(context.Background(), snap, stmts[0])
	if err != nil {
		return nil, err
	}
	if st == nil {
		return nil, fmt.Errorf("statement is not eligible for optimistic execution")
	}
	r, req, err := db.applyStaged(st)
	if errors.Is(err, errOptimisticFallback) {
		return nil, fmt.Errorf("%w: engine state changed during prepare", ErrWriteConflict)
	}
	if req != nil {
		if werr := <-req.done; werr != nil && err == nil {
			err = werr
		}
	}
	return r, err
}
