package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// TestCommitPersists is the regression test for the lost-commit bug:
// COMMIT used to drop the undo log without calling save, so committed
// work vanished if the process exited before the next implicit save.
// A directory-backed database must persist on COMMIT itself.
func TestCommitPersists(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	if _, err := db.Exec(`BEGIN; INSERT INTO t VALUES (2); UPDATE t SET a = a * 10; COMMIT`); err != nil {
		t.Fatal(err)
	}
	// Note: no Close, no Save — simulating a process that exits (or
	// crashes) right after COMMIT.

	db2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	r, err := db2.Query(`SELECT SUM(a), COUNT(*) FROM t`)
	if err != nil {
		t.Fatalf("committed table missing after reopen: %v", err)
	}
	sum, _ := r.Value(0, 0).AsInt()
	cnt, _ := r.Value(0, 1).AsInt()
	if sum != 30 || cnt != 2 {
		t.Fatalf("reopened state SUM=%d COUNT=%d, want 30/2 (commit lost)", sum, cnt)
	}
}

// TestCloseFlushesCheckpoint is the regression test for unbounded WAL
// growth: Close on a directory-backed database must fold the log into
// the segment store (final checkpoint), so restart cycles start from an
// empty log instead of replaying — and re-accumulating — history.
func TestCloseFlushesCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	const walHeader = 14
	for cycle := 0; cycle < 3; cycle++ {
		db, err := Open(dir)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if cycle == 0 {
			db.MustQuery(`CREATE TABLE t (a INT)`)
		}
		for i := 0; i < 10; i++ {
			db.MustQuery(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, cycle*10+i))
		}
		// Each cycle starts from a reset log, so every cycle's commits
		// must have appended records beyond the header.
		if grown := db.WALSize(); grown <= walHeader {
			t.Fatalf("cycle %d: wal did not grow during commits (size %d)", cycle, grown)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("cycle %d: close: %v", cycle, err)
		}
		fi, err := os.Stat(filepath.Join(dir, "wal.log"))
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		// Header only: every commit was folded into segment files.
		if fi.Size() >= 64 {
			t.Fatalf("cycle %d: wal.log is %d bytes after Close, want header-only (final checkpoint missing)", cycle, fi.Size())
		}
	}
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	r := db.MustQuery(`SELECT COUNT(*), SUM(a) FROM t`)
	cnt, _ := r.Value(0, 0).AsInt()
	sum, _ := r.Value(0, 1).AsInt()
	if cnt != 30 || sum != 435 {
		t.Fatalf("after 3 close/reopen cycles COUNT=%d SUM=%d, want 30/435", cnt, sum)
	}
}

// TestWALSmallCommitWritesDelta pins the write amplification of a
// durable commit: a single-row INSERT into a 1M-row table appends one
// small WAL record, at least 10x fewer bytes than the table's segment
// files, which a commit that folded the table would rewrite.
func TestWALSmallCommitWritesDelta(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.SetWALCheckpointBytes(0) // no fold may hide the append
	db.MustQuery(`CREATE ARRAY big (i INT DIMENSION[0:1:1000000], v INT DEFAULT 0)`)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t SELECT i * 7919 % 1000003 FROM big`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "bats", "t.*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segment files for t: %v", err)
	}
	var segBytes int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		segBytes += fi.Size()
	}
	before := db.WALSize()
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	walBytes := db.WALSize() - before
	if walBytes <= 0 || segBytes < 10*walBytes {
		t.Fatalf("single-row commit wrote %d WAL bytes against %d segment bytes, want >= 10x fewer", walBytes, segBytes)
	}
}

// TestRollbackDoesNotPersist is the counterpart: rolled-back work must
// not hit the disk.
func TestRollbackDoesNotPersist(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`BEGIN; UPDATE t SET a = 999; ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	v, _ := db2.MustQuery(`SELECT a FROM t`).Value(0, 0).AsInt()
	if v != 1 {
		t.Fatalf("rolled-back value persisted: a = %d, want 1", v)
	}
}
