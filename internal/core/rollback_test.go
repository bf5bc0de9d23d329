package core

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRollbackReadoptsSnapshot: ROLLBACK hands every object the
// transaction touched back its published, pre-transaction state. Each
// case runs on a directory-backed database: setup is autocommitted, txn
// opens a transaction, writes and rolls it back (and returns the
// database to go on with), after is autocommitted on top. The probe must
// answer want live, with the catalog intact, and again after a reopen.
func TestRollbackReadoptsSnapshot(t *testing.T) {
	cases := []struct {
		name  string
		setup string
		txn   func(t *testing.T, db *DB, reopen func() *DB) *DB
		after string
		probe string
		want  []string
	}{
		{
			name:  "drop table then create array of the same name",
			setup: `CREATE TABLE x (a INT); INSERT INTO x VALUES (1), (2)`,
			txn: execTxn(`BEGIN; DROP TABLE x;
				CREATE ARRAY x (i INT DIMENSION[0:1:3], v INT DEFAULT 5); ROLLBACK`),
			after: `INSERT INTO x VALUES (3)`,
			probe: `SELECT a FROM x`,
			want:  []string{"1", "2", "3"},
		},
		{
			name:  "drop array then create table of the same name",
			setup: `CREATE ARRAY x (i INT DIMENSION[0:1:3], v INT DEFAULT 5)`,
			txn: execTxn(`BEGIN; DROP ARRAY x; CREATE TABLE x (a INT);
				INSERT INTO x VALUES (9); ROLLBACK`),
			after: `UPDATE x SET v = v + i`,
			probe: `SELECT [i], v FROM x`,
			want:  []string{"0|5", "1|6", "2|7"},
		},
		{
			name:  "insert, rollback, insert again",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`,
			txn:   execTxn(`BEGIN; INSERT INTO t VALUES (2); INSERT INTO t VALUES (3); ROLLBACK`),
			after: `INSERT INTO t VALUES (4)`,
			probe: `SELECT a FROM t`,
			want:  []string{"1", "4"},
		},
		{
			name:  "bulk load and alter dimension",
			setup: `CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT DEFAULT 1)`,
			txn: func(t *testing.T, db *DB, _ func() *DB) *DB {
				db.MustQuery(`BEGIN`)
				if err := db.BulkSetAttrInts("m", "v", []int64{5, 6, 7, 8}); err != nil {
					t.Fatal(err)
				}
				db.MustQuery(`ALTER ARRAY m ALTER DIMENSION x SET RANGE [0:1:8]`)
				if vals, _, _ := db.ReadAttrInts("m", "v"); len(vals) != 8 || vals[0] != 5 {
					t.Fatalf("inside the transaction: v = %v", vals)
				}
				db.MustQuery(`ROLLBACK`)
				if vals, _, _ := db.ReadAttrInts("m", "v"); fmt.Sprint(vals) != "[1 1 1 1]" {
					t.Fatalf("after ROLLBACK: v = %v", vals)
				}
				return db
			},
			after: `UPDATE m SET v = x`,
			probe: `SELECT [x], v FROM m`,
			want:  []string{"0|0", "1|1", "2|2", "3|3"},
		},
		{
			// Single-row inserts leave the column spare capacity, so the
			// in-transaction row is written into storage the snapshot
			// shares: re-adopting the snapshot must not let the next
			// append write over the row the held result shows.
			name:  "result read inside the transaction outlives the rollback",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1); INSERT INTO t VALUES (2); INSERT INTO t VALUES (3)`,
			txn: func(t *testing.T, db *DB, _ func() *DB) *DB {
				db.MustQuery(`BEGIN`)
				db.MustQuery(`INSERT INTO t VALUES (4)`)
				held := db.MustQuery(`SELECT a FROM t`)
				want := fmt.Sprint(allRows(held))
				db.MustQuery(`ROLLBACK`)
				db.MustQuery(`INSERT INTO t VALUES (40)`)
				db.MustQuery(`UPDATE t SET a = a + 100`)
				if got := fmt.Sprint(allRows(held)); got != want {
					t.Fatalf("held result changed across ROLLBACK: %s, want %s", got, want)
				}
				return db
			},
			probe: `SELECT a FROM t`,
			want:  []string{"101", "102", "103", "140"},
		},
		{
			// The rolled-back objects get their pre-transaction Mod
			// stamps back with their content, so a write staged on the
			// snapshot before BEGIN still validates.
			name:  "write staged before BEGIN applies after ROLLBACK",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)`,
			txn: func(t *testing.T, db *DB, _ func() *DB) *DB {
				const q = `UPDATE t SET a = a * 10`
				st := stageOn(t, db, db.Snapshot(), q)
				if st.err != nil {
					t.Fatal(st.err)
				}
				if _, err := db.Exec(`BEGIN; DELETE FROM t WHERE a = 1; UPDATE t SET a = 7; ROLLBACK`); err != nil {
					t.Fatal(err)
				}
				if err := validates(db, st); err != nil {
					t.Fatalf("validate after ROLLBACK: %v", err)
				}
				if _, err := applyStagedWrite(t, db, q, st); err != nil {
					t.Fatal(err)
				}
				return db
			},
			probe: `SELECT a FROM t`,
			want:  []string{"10", "20"},
		},
		{
			// Rollback re-freezes the published objects while other
			// sessions read them.
			name:  "readers of the snapshot run through rollbacks",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)`,
			txn: func(t *testing.T, db *DB, _ func() *DB) *DB {
				var (
					wg   sync.WaitGroup
					stop atomic.Bool
					errs = make(chan error, 2)
				)
				for range 2 {
					reader := db.NewSession()
					wg.Add(1)
					go func() {
						defer wg.Done()
						for !stop.Load() {
							if n, err := queryInt(reader.Query(`SELECT SUM(a) FROM t`)); err != nil || n != 3 {
								errs <- fmt.Errorf("reader saw SUM(a) = %d, %v", n, err)
								return
							}
						}
					}()
				}
				for range 20 {
					mustExec(t, db, `BEGIN; UPDATE t SET a = a + 10; INSERT INTO t VALUES (5);
						DELETE FROM t WHERE a = 11; ROLLBACK`)
				}
				stop.Store(true)
				wg.Wait()
				close(errs)
				for err := range errs {
					t.Fatal(err)
				}
				return db
			},
			probe: `SELECT SUM(a) FROM t`,
			want:  []string{"3"},
		},
		{
			name:  "Session.Close rolls back",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`,
			txn: func(t *testing.T, db *DB, _ func() *DB) *DB {
				s := db.NewSession()
				if _, err := s.Exec(`BEGIN; UPDATE t SET a = 5; CREATE TABLE u (b INT); DROP TABLE t`); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				if s.InTransaction() {
					t.Fatal("closed session still holds the transaction")
				}
				return db
			},
			after: `INSERT INTO t VALUES (2); CREATE TABLE u (c INT)`,
			probe: `SELECT a FROM t`,
			want:  []string{"1", "2"},
		},
		{
			// A checkpoint re-versions and re-encodes the live objects
			// and publishes them, so the snapshot a rollback re-adopts
			// names the segments on disk. Nothing is written after the
			// rollback: the closing checkpoint must keep those segments.
			name:  "checkpoint, then insert rolled back",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1), (2)`,
			txn:   saveThen(`BEGIN; INSERT INTO t VALUES (3); ROLLBACK`),
			probe: `SELECT a FROM t`,
			want:  []string{"1", "2"},
		},
		{
			name:  "checkpoint, then drop rolled back",
			setup: `CREATE ARRAY m (x INT DIMENSION[0:1:3], v INT DEFAULT 4); UPDATE m SET v = x`,
			txn:   saveThen(`BEGIN; UPDATE m SET v = 9; DROP ARRAY m; ROLLBACK`),
			probe: `SELECT [x], v FROM m`,
			want:  []string{"0|0", "1|1", "2|2"},
		},
		{
			name:  "checkpoint, then DB.Close rolls back",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`,
			txn: func(t *testing.T, db *DB, reopen func() *DB) *DB {
				if err := db.Save(); err != nil {
					t.Fatal(err)
				}
				mustExec(t, db, `BEGIN; INSERT INTO t VALUES (6)`)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				return reopen()
			},
			probe: `SELECT a FROM t`,
			want:  []string{"1"},
		},
		{
			name:  "DB.Close rolls back",
			setup: `CREATE TABLE t (a INT); INSERT INTO t VALUES (1)`,
			txn: func(t *testing.T, db *DB, reopen func() *DB) *DB {
				if _, err := db.Exec(`BEGIN; UPDATE t SET a = 5; INSERT INTO t VALUES (6)`); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				return reopen()
			},
			after: `INSERT INTO t VALUES (2)`,
			probe: `SELECT a FROM t`,
			want:  []string{"1", "2"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			reopen := func() *DB {
				db, err := OpenDB(dir, OpenOptions{})
				if err != nil {
					t.Fatal(err)
				}
				return db
			}
			db := reopen()
			mustExec(t, db, c.setup)
			db = c.txn(t, db, reopen)
			mustExec(t, db, c.after)
			expectRows(t, db, c.probe, c.want)
			if err := db.CheckIntegrity(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			db = reopen()
			defer db.Close()
			expectRows(t, db, c.probe, c.want)
		})
	}
}

// execTxn is a rollback case's transaction given as one SQL batch.
func execTxn(batch string) func(*testing.T, *DB, func() *DB) *DB {
	return func(t *testing.T, db *DB, _ func() *DB) *DB {
		mustExec(t, db, batch)
		if db.session.InTransaction() {
			t.Fatal("batch left the transaction open")
		}
		return db
	}
}

// saveThen is execTxn after a checkpoint.
func saveThen(batch string) func(*testing.T, *DB, func() *DB) *DB {
	return func(t *testing.T, db *DB, reopen func() *DB) *DB {
		if err := db.Save(); err != nil {
			t.Fatal(err)
		}
		return execTxn(batch)(t, db, reopen)
	}
}

func mustExec(t *testing.T, db *DB, batch string) {
	t.Helper()
	if batch == "" {
		return
	}
	if _, err := db.Exec(batch); err != nil {
		t.Fatalf("%s: %v", batch, err)
	}
}

// TestTxnDeleteAllocs: a transaction keeps no copy of the storage it
// writes. A one-key DELETE in BEGIN…COMMIT on a 2^19-row INT+DOUBLE table
// (8 MiB of columns) allocates well under one column's worth.
func TestTxnDeleteAllocs(t *testing.T) {
	db := New()
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY seq (i INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, 1<<19))
	db.MustQuery(`CREATE TABLE t (k INT, v DOUBLE)`)
	db.MustQuery(`INSERT INTO t SELECT i % 1000, CAST(i AS DOUBLE) FROM seq`)
	db.MustQuery(`DROP ARRAY seq`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := db.Exec(`BEGIN; DELETE FROM t WHERE k = 7; COMMIT`); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Fatalf("BEGIN; DELETE; COMMIT allocated %d bytes, want < %d", n, 1<<20)
	}
	if n := mustInt(t, db, `SELECT COUNT(*) FROM t`); n != 1<<19-(1<<19/1000+1) {
		t.Fatalf("COUNT(*) = %d after a one-key delete", n)
	}
}
