package core

import (
	"path/filepath"
	"testing"
)

// Statement atomicity of DML: a statement that fails part-way applies
// nothing — no cell, no reshape, no WAL record — whether the database
// lives in memory or in a directory.

// forEachBacking runs fn against an in-memory and a directory-backed
// database. reopen returns the state a fresh process would see: the same
// handle in memory, a closed-and-reopened database on disk.
func forEachBacking(t *testing.T, fn func(t *testing.T, db *DB, reopen func() *DB)) {
	t.Run("memory", func(t *testing.T) {
		db := New()
		fn(t, db, func() *DB { return db })
	})
	t.Run("durable", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := OpenDB(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		fn(t, db, func() *DB {
			if err := db.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}
			db2, err := OpenDB(dir, OpenOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			t.Cleanup(func() { db2.Close() })
			return db2
		})
	})
}

// expectNoEffect runs a statement that must fail and checks that the
// probe's answer and the WAL size are what they were before it, live and
// after reopen. It returns the reopened database.
func expectNoEffect(t *testing.T, db *DB, reopen func() *DB, stmt, probe string) *DB {
	t.Helper()
	want := db.MustQuery(probe).String()
	walBefore := db.WALSize()
	if _, err := db.Query(stmt); err == nil {
		t.Fatalf("%s: succeeded, want an error", stmt)
	}
	if got := db.WALSize(); got != walBefore {
		t.Fatalf("%s: failed statement grew the WAL from %d to %d bytes", stmt, walBefore, got)
	}
	if got := db.MustQuery(probe).String(); got != want {
		t.Fatalf("%s: failed statement changed the data:\n%s\nwant:\n%s", stmt, got, want)
	}
	db = reopen()
	if got := db.MustQuery(probe).String(); got != want {
		t.Fatalf("%s: failed statement changed the recovered data:\n%s\nwant:\n%s", stmt, got, want)
	}
	return db
}

// TestUpdateCastFailureAppliesNothing: a cast error on the second of
// three rows must leave the first row untouched too.
func TestUpdateCastFailureAppliesNothing(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
			db.MustQuery(`CREATE TABLE t (i INT, s VARCHAR)`)
			db.MustQuery(`INSERT INTO t VALUES (1, '5'), (2, 'x'), (3, '7')`)
			expectNoEffect(t, db, reopen, `UPDATE t SET i = s`, `SELECT i, s FROM t`)
		})
	})
	t.Run("array", func(t *testing.T) {
		forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
			db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:3], i INT DEFAULT 0, s VARCHAR)`)
			db.MustQuery(`INSERT INTO a VALUES (0, 1, '5'), (1, 2, 'x'), (2, 3, '7')`)
			expectNoEffect(t, db, reopen, `UPDATE a SET i = s`, `SELECT [x], i, s FROM a`)
		})
	})
}

// TestUpdateSelectedCastFailureAppliesNothing: when the cast of the
// second SET target fails on a row the WHERE clause selected, the first
// target is not written either, for rows before and after that row.
func TestUpdateSelectedCastFailureAppliesNothing(t *testing.T) {
	t.Run("table", func(t *testing.T) {
		forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
			db.MustQuery(`CREATE TABLE t (i INT, s VARCHAR)`)
			db.MustQuery(`INSERT INTO t VALUES (1, '5'), (2, '6'), (3, 'x'), (4, '7')`)
			expectNoEffect(t, db, reopen, `UPDATE t SET s = 'changed', i = s WHERE i >= 2`, `SELECT i, s FROM t`)
		})
	})
	t.Run("array", func(t *testing.T) {
		forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
			db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], i INT DEFAULT 0, s VARCHAR)`)
			db.MustQuery(`INSERT INTO a VALUES (0, 1, '5'), (1, 2, '6'), (2, 3, 'x'), (3, 4, '7')`)
			expectNoEffect(t, db, reopen, `UPDATE a SET s = 'changed', i = s WHERE x >= 1`, `SELECT [x], i, s FROM a`)
		})
	})
}

// TestFailedArrayInsertDoesNotGrow: an INSERT whose cell fails to cast
// must not grow the unbounded dimension it addresses.
func TestFailedArrayInsertDoesNotGrow(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE ARRAY u (x INT DIMENSION, v INT DEFAULT 0)`)
		db.MustQuery(`INSERT INTO u VALUES (0, 1), (1, 2)`)
		db = expectNoEffect(t, db, reopen, `INSERT INTO u VALUES (5, 'bad')`, `SELECT [x], v FROM u`)
		if got := db.MustQuery(`SELECT COUNT(*) FROM u`).Value(0, 0).String(); got != "2" {
			t.Fatalf("array has %s cells after the failed INSERT, want 2", got)
		}
	})
}
