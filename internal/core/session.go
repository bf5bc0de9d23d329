package core

import (
	"context"
	"fmt"

	"repro/internal/par"
)

// Session is one client's handle on the database: it carries transaction
// ownership (BEGIN binds the engine's single explicit transaction to the
// session that issued it). Sessions are cheap and safe for concurrent
// use; the sciqld server gives every connection its own. The DB-level
// Exec/Query run on a default session, so embedded single-connection use
// never needs to create one.
type Session struct {
	db *DB
}

// NewSession returns a fresh session over the database.
func (db *DB) NewSession() *Session {
	return &Session{db: db}
}

// DB returns the underlying database.
func (s *Session) DB() *DB { return s.db }

// Exec parses and executes a semicolon-separated batch, returning one
// result per statement. Reads run lock-free against the published
// snapshot; writes serialise on the engine's writer lock.
func (s *Session) Exec(query string) ([]*Result, error) {
	return s.ExecContext(context.Background(), query)
}

// ExecContext is Exec under a context: cancelling ctx (or its deadline
// expiring) stops the batch between statements, between MAL
// instructions, and at morsel granularity inside large kernels. The
// statement running at cancellation time returns ctx.Err(); its
// already-committed predecessors in the batch stay committed.
func (s *Session) ExecContext(ctx context.Context, query string) ([]*Result, error) {
	return s.run(ctx, query, false)
}

// Query executes exactly one statement and returns its result.
func (s *Session) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query under a context (see ExecContext for the
// cancellation semantics).
func (s *Session) QueryContext(ctx context.Context, query string) (*Result, error) {
	return only(s.run(ctx, query, true))
}

// run parses query through the DB's statement cache and executes its
// statements in order, each on its own run state (newStmt), stopping at
// the first error; one requires exactly one statement. Every public Exec
// and Query comes here.
func (s *Session) run(ctx context.Context, query string, one bool) ([]*Result, error) {
	stmts, err := s.db.parse(query)
	if err != nil {
		return nil, err
	}
	if one && len(stmts) != 1 {
		return nil, fmt.Errorf("expected exactly one statement, got %d", len(stmts))
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := s.db.exec(s.newStmt(ctx), st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// newStmt returns the run state of one statement the session issues
// under ctx, at the default parallel shape.
func (s *Session) newStmt(ctx context.Context) *stmt {
	return &stmt{job: par.NewJob(0, 0).WithContext(ctx), sess: s}
}

// only returns the result of a one-statement run.
func only(rs []*Result, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return rs[0], nil
}

// InTransaction reports whether this session holds the open transaction.
func (s *Session) InTransaction() bool {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.inTxn(s)
}

// Close releases the session, rolling back its open transaction if any.
func (s *Session) Close() error {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.db.inTxn(s) {
		s.db.rollbackLocked()
	}
	return nil
}
