package core

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
)

// Session is one client's handle on the database: it carries transaction
// ownership (BEGIN binds the engine's single explicit transaction to the
// session that issued it) and pins prepared statements. Sessions are cheap
// and safe for concurrent use; the sciqld server gives every connection
// its own. The DB-level Exec/Query run on a default session, so embedded
// single-connection use never needs to create one.
type Session struct {
	db *DB

	prepMu sync.Mutex
	prep   map[string]*Prepared
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
	stmts, err := s.db.parse(query)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, 0, len(stmts))
	for _, st := range stmts {
		r, err := s.db.execStmtCtx(ctx, s, st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Query executes exactly one statement and returns its result.
func (s *Session) Query(query string) (*Result, error) {
	return s.QueryContext(context.Background(), query)
}

// QueryContext is Query under a context (see ExecContext for the
// cancellation semantics).
func (s *Session) QueryContext(ctx context.Context, query string) (*Result, error) {
	if stmts, ok := s.db.pcache.get(query); ok && len(stmts) == 1 {
		return s.db.execStmtCtx(ctx, s, stmts[0])
	}
	stmt, err := parser.ParseOne(query)
	if err != nil {
		return nil, err
	}
	s.db.pcache.put(query, []ast.Statement{stmt})
	return s.db.execStmtCtx(ctx, s, stmt)
}

// ExecStmt executes one parsed statement on this session.
func (s *Session) ExecStmt(stmt ast.Statement) (*Result, error) {
	return s.db.execStmt(s, stmt)
}

// ExecStmtContext executes one parsed statement on this session under a
// context.
func (s *Session) ExecStmtContext(ctx context.Context, stmt ast.Statement) (*Result, error) {
	return s.db.execStmtCtx(ctx, s, stmt)
}

// InTransaction reports whether this session holds the open transaction.
func (s *Session) InTransaction() bool {
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	return s.db.txn != nil && s.db.txnOwner == s
}

// Close releases the session, rolling back its open transaction if any.
func (s *Session) Close() error {
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	if s.db.txn != nil && s.db.txnOwner == s {
		s.db.txn.rollback(s.db)
		s.db.txn = nil
		s.db.txnOwner = nil
		s.db.discardWALPending()
		s.db.publishLocked()
	}
	s.prepMu.Lock()
	s.prep = nil
	s.prepMu.Unlock()
	return nil
}

// Prepared is a parsed statement batch pinned by a session: unlike entries
// of the DB's bounded LRU parse cache it cannot be evicted, so hot
// server-side statements keep a stable handle.
type Prepared struct {
	s     *Session
	text  string
	stmts []ast.Statement
}

// Prepare parses the batch once and pins it under the given name
// (replacing any previous statement of that name).
func (s *Session) Prepare(name, query string) (*Prepared, error) {
	stmts, err := s.db.parse(query)
	if err != nil {
		return nil, err
	}
	p := &Prepared{s: s, text: query, stmts: stmts}
	s.prepMu.Lock()
	if s.prep == nil {
		s.prep = map[string]*Prepared{}
	}
	s.prep[name] = p
	s.prepMu.Unlock()
	return p, nil
}

// Prepared returns the pinned statement of that name, if any.
func (s *Session) Prepared(name string) (*Prepared, bool) {
	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	p, ok := s.prep[name]
	return p, ok
}

// Text returns the original statement text.
func (p *Prepared) Text() string { return p.text }

// Exec executes the prepared batch on its session.
func (p *Prepared) Exec() ([]*Result, error) {
	if p.s == nil {
		return nil, fmt.Errorf("prepared statement is detached")
	}
	out := make([]*Result, 0, len(p.stmts))
	for _, st := range p.stmts {
		r, err := p.s.db.execStmt(p.s, st)
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}
