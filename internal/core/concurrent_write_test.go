package core

// Concurrent-writer isolation suite (run under -race): N sessions issuing
// conflicting and non-conflicting autocommit DML. Plain Exec must never
// surface a conflict error — a write whose read set no longer validates
// stages again against the live catalog under the lock — while the
// validation itself is first-committer-wins, and the committed state
// always equals a serial replay of the winners.

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
// Mod stamp; the router must absorb every conflict (staging again under
// the lock) so plain sessions see no errors and no lost writes.
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

// TestConcurrentUpdatersFirstCommitterWins: updates of one row, all
// staged on the same snapshot, race to validate. Exactly one wins; every
// loser's validation reports errWriteConflict and applies nothing. Plain
// Query callers racing the same update never see that conflict: every
// one of their increments lands.
func TestConcurrentUpdatersFirstCommitterWins(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (v INT)`)
	db.MustQuery(`INSERT INTO t VALUES (0)`)

	stmt, err := parser.ParseOne(`UPDATE t SET v = v + 1`)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	snap := db.Snapshot()
	const updaters = 8
	var wg sync.WaitGroup
	errs := make([]error, updaters)
	for i := 0; i < updaters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st := db.stage(context.Background(), db.newJob(), snap, stmt)
			if st.err != nil {
				errs[i] = st.err
				return
			}
			db.mu.Lock()
			var req *commitReq
			if errs[i] = db.validateLocked(st.reads); errs[i] == nil {
				if _, errs[i] = st.apply(db); errs[i] == nil {
					req, errs[i] = db.commitBoundaryLocked()
				}
			}
			db.mu.Unlock()
			if req != nil {
				if werr := <-req.done; werr != nil && errs[i] == nil {
					errs[i] = werr
				}
			}
		}(i)
	}
	wg.Wait()

	wins := 0
	for i, err := range errs {
		switch {
		case err == nil:
			wins++
		case errors.Is(err, errWriteConflict):
			// A clean first-committer-wins loss.
		default:
			t.Fatalf("updater %d: %v, want nil or errWriteConflict", i, err)
		}
	}
	if wins != 1 {
		t.Fatalf("%d updaters won against one snapshot, want exactly 1", wins)
	}
	if got := db.MustQuery(`SELECT v FROM t`).Cols[0].Ints()[0]; got != 1 {
		t.Fatalf("v = %d after one winning increment: the losers must apply nothing", got)
	}

	for i := 0; i < updaters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := db.NewSession()
			defer s.Close()
			_, errs[i] = s.Query(`UPDATE t SET v = v + 1`)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("plain updater %d: %v (plain Query must never surface a conflict)", i, err)
		}
	}
	if got := db.MustQuery(`SELECT v FROM t`).Cols[0].Ints()[0]; got != 1+updaters {
		t.Fatalf("v = %d, want %d: every plain increment must land", got, 1+updaters)
	}
}

// TestConcurrentWriteBlockedByOpenTxn: while one session holds the
// explicit transaction, other sessions' writes are refused with a clean
// error and succeed after COMMIT.
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
