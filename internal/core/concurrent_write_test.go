package core

// Concurrent-writer isolation suite (run under -race): N sessions issuing
// conflicting and non-conflicting autocommit DML. Plain Exec must never
// surface a conflict error — the router retries and falls back to the
// serialized path — while ExecOptimistic surfaces first-committer-wins
// losses as clean ErrWriteConflict errors, and the committed state always
// equals a serial replay of the winners.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/sql/parser"
)

// TestConcurrentWritersNonConflicting: writers on disjoint tables never
// conflict; every statement succeeds and every row survives a reopen.
func TestConcurrentWritersNonConflicting(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	const writers, rows = 6, 25
	for w := 0; w < writers; w++ {
		db.MustQuery(fmt.Sprintf("CREATE TABLE t%d (a INT)", w))
	}
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rows; j++ {
				if _, err := s.Query(fmt.Sprintf("INSERT INTO t%d VALUES (%d)", w, j)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", w, err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	for w := 0; w < writers; w++ {
		r := db2.MustQuery(fmt.Sprintf("SELECT COUNT(*) FROM t%d", w))
		if got := r.Cols[0].Ints()[0]; got != rows {
			t.Fatalf("t%d has %d rows after reopen, want %d", w, got, rows)
		}
	}
}

// TestConcurrentWritersSharedTable: inserts into one table race on its
// Mod stamp; the router must absorb every conflict (retry, then
// serialized fallback) so plain sessions see no errors and no lost
// writes.
func TestConcurrentWritersSharedTable(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	const writers, rows = 8, 20
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			for j := 0; j < rows; j++ {
				if _, err := s.Query(fmt.Sprintf("INSERT INTO t VALUES (%d)", w*1000+j)); err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v (plain Exec must never surface a conflict)", w, err)
		}
	}
	wantSum := 0
	for w := 0; w < writers; w++ {
		for j := 0; j < rows; j++ {
			wantSum += w*1000 + j
		}
	}
	check := func(db *DB, when string) {
		t.Helper()
		r := db.MustQuery(`SELECT COUNT(*), SUM(a) FROM t`)
		if got := r.Cols[0].Ints()[0]; got != writers*rows {
			t.Fatalf("%s: %d rows, want %d (lost or duplicated writes)", when, got, writers*rows)
		}
		if got := r.Cols[1].Ints()[0]; got != int64(wantSum) {
			t.Fatalf("%s: SUM(a) = %d, want %d", when, got, wantSum)
		}
	}
	check(db, "live")
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	check(db2, "after reopen")
}

// TestConcurrentUpdatersFirstCommitterWins: racing ExecOptimistic
// updates on one row. Every loser must get a clean ErrWriteConflict and
// the final state must equal a serial replay of exactly the winners.
func TestConcurrentUpdatersFirstCommitterWins(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (v INT)`)
	db.MustQuery(`INSERT INTO t VALUES (0)`)

	const updaters = 8
	var wg sync.WaitGroup
	errs := make([]error, updaters)
	for i := 0; i < updaters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			_, errs[i] = s.ExecOptimistic(`UPDATE t SET v = v + 1`)
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, ErrWriteConflict):
			// A clean first-committer-wins loss; the caller owns the retry.
		default:
			t.Fatalf("updater %d: %v, want nil or ErrWriteConflict", i, err)
		}
	}
	if wins == 0 {
		t.Fatal("no updater won; at least one optimistic commit must succeed")
	}
	r := db.MustQuery(`SELECT v FROM t`)
	if got := r.Cols[0].Ints()[0]; got != int64(wins) {
		t.Fatalf("v = %d after %d winning increments: committed state must equal a serial replay of the winners", got, wins)
	}
}

// TestOptimisticStaleSnapshotDropCreate: a plan staged against a table
// that is then dropped and recreated under the same name must conflict —
// the database-wide Mod sequence guarantees the new incarnation never
// reuses the old stamp, so the stale effect cannot land on the wrong
// storage.
func TestOptimisticStaleSnapshotDropCreate(t *testing.T) {
	db, err := OpenDB(t.TempDir(), OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)

	stmt, err := parser.ParseOne(`UPDATE t SET a = 99`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	st, err := db.prepareOptimistic(context.Background(), nil, db.view.Load(), stmt)
	if err != nil || st == nil {
		t.Fatalf("prepare = (%v, %v), want a staged write", st, err)
	}

	// The target is replaced wholesale between prepare and apply.
	db.MustQuery(`DROP TABLE t`)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (2)`)

	if _, _, err := db.applyStaged(st); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("apply against a recreated table = %v, want ErrWriteConflict", err)
	}
	r := db.MustQuery(`SELECT a FROM t`)
	if got := r.Cols[0].Ints()[0]; got != 2 {
		t.Fatalf("a = %d, want 2: the stale plan must not touch the new incarnation", got)
	}
}

// TestExecOptimisticIneligible: statement shapes outside the optimistic
// path are rejected with a clear error rather than silently serialized.
func TestExecOptimisticIneligible(t *testing.T) {
	db, err := OpenDB(t.TempDir(), OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE src (a INT)`)
	db.MustQuery(`CREATE TABLE dst (a INT)`)
	s := db.NewSession()
	defer s.Close()
	for _, q := range []string{
		`INSERT INTO dst SELECT a FROM src`, // plans against a second object
		`SELECT * FROM src`,                 // not DML at all
	} {
		if _, err := s.ExecOptimistic(q); err == nil ||
			!strings.Contains(err.Error(), "not eligible") {
			t.Fatalf("ExecOptimistic(%q) = %v, want a not-eligible error", q, err)
		}
	}
}

// TestConcurrentWriteBlockedByOpenTxn: while one session holds the
// explicit transaction, other sessions' writes are refused with a clean
// error (optimistic path included) and succeed after COMMIT.
func TestConcurrentWriteBlockedByOpenTxn(t *testing.T) {
	db, err := OpenDB(t.TempDir(), OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	owner := db.NewSession()
	defer owner.Close()
	other := db.NewSession()
	defer other.Close()

	if _, err := owner.Exec(`BEGIN; INSERT INTO t VALUES (1)`); err != nil {
		t.Fatalf("BEGIN: %v", err)
	}
	if _, err := other.Query(`INSERT INTO t VALUES (2)`); err == nil ||
		!strings.Contains(err.Error(), "another session holds an open transaction") {
		t.Fatalf("write during foreign txn = %v, want a writes-blocked error", err)
	}
	if _, err := other.ExecOptimistic(`INSERT INTO t VALUES (2)`); err == nil ||
		!strings.Contains(err.Error(), "open transaction") {
		t.Fatalf("ExecOptimistic during foreign txn = %v, want an open-transaction error", err)
	}
	if _, err := owner.Exec(`COMMIT`); err != nil {
		t.Fatalf("COMMIT: %v", err)
	}
	if _, err := other.Query(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatalf("write after COMMIT: %v", err)
	}
	r := db.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := r.Cols[0].Ints()[0]; got != 2 {
		t.Fatalf("row count = %d, want 2", got)
	}
}
