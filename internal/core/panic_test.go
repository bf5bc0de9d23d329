package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mal"
)

// TestPanicContainedRead: a kernel panic inside a read query is answered
// as an error, the published snapshot stays intact, and the next query
// succeeds — the poisoning oracle of the issue.
func TestPanicContainedRead(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1), (2), (3)`)
	snapBefore := db.Snapshot()

	db.hook = func(in *mal.Instr) {
		if in.Module == "algebra" {
			panic("injected kernel panic")
		}
	}
	_, err := db.Query(`SELECT a FROM t WHERE a > 1`)
	db.hook = nil
	if err == nil {
		t.Fatal("panicking query must return an error")
	}
	if !strings.Contains(err.Error(), "injected kernel panic") {
		t.Fatalf("error %q does not carry the panic value", err)
	}

	if db.Snapshot() != snapBefore {
		t.Fatal("a failed read must not publish a new snapshot")
	}
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("catalog poisoned by contained panic: %v", err)
	}
	r, qerr := db.Query(`SELECT a FROM t WHERE a > 1`)
	if qerr != nil {
		t.Fatalf("follow-up query after contained panic: %v", qerr)
	}
	if r.NumRows() != 2 {
		t.Fatalf("follow-up rows = %d, want 2", r.NumRows())
	}
}

// TestPanicContainedWrite: a panic during a write statement releases the
// writer lock (no deadlock) and leaves the engine usable.
func TestPanicContainedWrite(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.hook = func(in *mal.Instr) {
		panic("injected write-path panic")
	}
	// INSERT ... SELECT runs MAL on the write path (under db.mu).
	_, err := db.Query(`INSERT INTO t SELECT a FROM t`)
	db.hook = nil
	if err == nil {
		t.Fatal("panicking write must return an error")
	}
	// The writer lock must have been released: this blocks forever on a
	// poisoned lock.
	if _, err := db.Query(`INSERT INTO t VALUES (7)`); err != nil {
		t.Fatalf("write after contained panic: %v", err)
	}
	r := db.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := strings.TrimSpace(r.String()); !strings.Contains(got, "1") {
		t.Fatalf("unexpected count after recovery: %q", got)
	}
}

// TestPanicContainedPersistent: the contained panic does not corrupt a
// directory-backed store — reopen succeeds and the data survives.
func TestPanicContainedPersistent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (10), (20)`)

	db.hook = func(in *mal.Instr) {
		if in.Module == "algebra" || in.Module == "aggr" {
			panic("injected panic on persistent store")
		}
	}
	_, qerr := db.Query(`SELECT COUNT(*) FROM t WHERE a > 5`)
	db.hook = nil
	if qerr == nil {
		t.Fatal("panicking query must return an error")
	}
	if db.Degraded() != nil {
		t.Fatalf("a contained read panic must not latch degraded mode: %v", db.Degraded())
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("integrity after reopen: %v", err)
	}
	r := db2.MustQuery(`SELECT a FROM t ORDER BY a`)
	if r.NumRows() != 2 {
		t.Fatalf("rows after reopen = %d, want 2", r.NumRows())
	}
}
