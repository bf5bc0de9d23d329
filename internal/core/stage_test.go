package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sql/parser"
)

// The write router's stage / validate / apply steps, driven one at a time:
// a write staged on a snapshot must be validated by everything it read,
// not only by its target.

// applyStagedWrite runs q's staging st through execWrite and waits for
// its commit, as the router does.
func applyStagedWrite(t *testing.T, db *DB, q string, st *stagedWrite) (*Result, error) {
	t.Helper()
	s, err := parser.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	r, req, _, err := db.execWrite(db.session.newStmt(context.Background()), s, st)
	if req != nil {
		if werr := <-req.done; werr != nil && err == nil {
			err = werr
		}
	}
	return r, err
}

// stageOn stages q against cat.
func stageOn(t *testing.T, db *DB, cat *catalog.Catalog, q string) *stagedWrite {
	t.Helper()
	s, err := parser.ParseOne(q)
	if err != nil {
		t.Fatal(err)
	}
	sq := db.session.newStmt(context.Background())
	sq.cat = cat
	return db.stage(sq, s)
}

// validates reports the outcome of validating st against the live catalog.
func validates(db *DB, st *stagedWrite) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.validateLocked(st.reads)
}

// TestStagedReadSetInsertSelectSource: INSERT INTO dst SELECT ... FROM src
// staged on a snapshot, then src updated: the staged write must conflict
// on src — its target dst is untouched — and the statement must insert the
// new src values.
func TestStagedReadSetInsertSelectSource(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE TABLE src (a INT)`)
		db.MustQuery(`CREATE TABLE dst (a INT)`)
		db.MustQuery(`INSERT INTO src VALUES (1), (2)`)
		const q = `INSERT INTO dst SELECT a FROM src`
		st := stageOn(t, db, db.Snapshot(), q)
		if st.err != nil {
			t.Fatal(st.err)
		}
		db.MustQuery(`UPDATE src SET a = a * 10`)
		if err := validates(db, st); !errors.Is(err, errWriteConflict) {
			t.Fatalf("validate after UPDATE src = %v, want errWriteConflict", err)
		}
		if _, err := applyStagedWrite(t, db, q, st); err != nil {
			t.Fatal(err)
		}
		const want = "a \n--\n10\n20\n"
		for _, d := range []*DB{db, reopen()} {
			if got := d.MustQuery(`SELECT a FROM dst`).String(); got != want {
				t.Fatalf("dst:\n%s\nwant the updated src values:\n%s", got, want)
			}
		}
	})
}

// TestStagedReadSetArrayGrowth: an array INSERT that grows an unbounded
// dimension, staged on a snapshot while a second INSERT grows an array it
// reads — its source, then its target. Each time the staged write must
// conflict, and the array must hold both inserts' cells on the union of
// their grown ranges.
func TestStagedReadSetArrayGrowth(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE ARRAY src (k INT DIMENSION, v INT DEFAULT 0)`)
		db.MustQuery(`CREATE ARRAY dst (k INT DIMENSION, v INT DEFAULT 0)`)
		db.MustQuery(`INSERT INTO src VALUES (1, 10), (2, 20)`)
		const q = `INSERT INTO dst SELECT k + 3, v FROM src`
		for _, grow := range []string{
			`INSERT INTO src VALUES (6, 60)`, // a source: dst must reach k = 9
			`INSERT INTO dst VALUES (12, 120)`,
		} {
			st := stageOn(t, db, db.Snapshot(), q)
			if st.err != nil {
				t.Fatal(st.err)
			}
			db.MustQuery(grow)
			if err := validates(db, st); !errors.Is(err, errWriteConflict) {
				t.Fatalf("validate after %s = %v, want errWriteConflict", grow, err)
			}
			if _, err := applyStagedWrite(t, db, q, st); err != nil {
				t.Fatal(err)
			}
		}
		const want = "[k] | v  \n----+----\n4   | 10 \n5   | 20 \n6   | 0  \n7   | 0  \n8   | 0  \n9   | 60 \n10  | 0  \n11  | 0  \n12  | 120\n"
		for _, d := range []*DB{db, reopen()} {
			if got := d.MustQuery(`SELECT [k], v FROM dst`).String(); got != want {
				t.Fatalf("dst:\n%s\nwant:\n%s", got, want)
			}
		}
	})
}

// TestStagedBeforeCreate: a statement staged on a snapshot taken before
// the CREATE of an object it names fails there with "no such table", but
// it is answered from the live catalog — for its target, and for the
// source of an INSERT ... SELECT whose target validates on its own.
func TestStagedBeforeCreate(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE TABLE dst (a INT)`)
		snap := db.Snapshot()
		for _, q := range []string{`INSERT INTO fresh VALUES (7)`, `INSERT INTO dst SELECT a FROM fresh`} {
			st := stageOn(t, db, snap, q)
			if st.err == nil {
				t.Fatalf("%s staged on a snapshot without fresh: no error", q)
			}
			if q == `INSERT INTO fresh VALUES (7)` {
				db.MustQuery(`CREATE TABLE fresh (a INT)`)
			}
			if err := validates(db, st); !errors.Is(err, errWriteConflict) {
				t.Fatalf("%s: validate after CREATE = %v, want errWriteConflict", q, err)
			}
			if _, err := applyStagedWrite(t, db, q, st); err != nil {
				t.Fatalf("%s: %v, want the live catalog's answer", q, err)
			}
		}
		for _, d := range []*DB{db, reopen()} {
			if got := d.MustQuery(`SELECT a FROM dst`).String(); got != "a\n-\n7\n" {
				t.Fatalf("dst:\n%s", got)
			}
		}
	})
}

// TestStagedStaleSnapshotDropCreate: a write staged against a table that
// is then dropped and recreated under the same name must conflict — the
// database-wide Mod sequence guarantees the new incarnation never reuses
// the old stamp, so the stale effect cannot land on the wrong storage —
// and the statement must apply to the new incarnation instead.
func TestStagedStaleSnapshotDropCreate(t *testing.T) {
	db, err := OpenDB(t.TempDir(), OpenOptions{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)

	const q = `UPDATE t SET a = a + 100`
	st := stageOn(t, db, db.Snapshot(), q)
	if st.err != nil {
		t.Fatalf("stage: %v", st.err)
	}

	// The target is replaced wholesale between staging and apply.
	db.MustQuery(`DROP TABLE t`)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (2)`)

	if err := validates(db, st); !errors.Is(err, errWriteConflict) {
		t.Fatalf("validate against a recreated table = %v, want errWriteConflict", err)
	}
	if _, err := applyStagedWrite(t, db, q, st); err != nil {
		t.Fatal(err)
	}
	if got := db.MustQuery(`SELECT a FROM t`).Cols[0].Ints()[0]; got != 102 {
		t.Fatalf("a = %d, want 102: the statement must run against the new incarnation", got)
	}
}

// TestConcurrentWritersRaceClose: autocommit and transactional writers
// racing Close are either acknowledged, and then present after a reopen,
// or refused with errClosed before applying anything, and then absent.
func TestConcurrentWritersRaceClose(t *testing.T) {
	for round := 0; round < 4; round++ {
		dir := t.TempDir()
		db, err := OpenDB(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		db.MustQuery(`CREATE TABLE t (w INT, j INT)`)
		const writers = 4 // the last one writes two rows per transaction
		acked := make([][]int, writers)
		errs := make([]error, writers)
		var total atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := db.NewSession()
				defer s.Close()
				for j := 0; j < 100000; {
					q := fmt.Sprintf(`INSERT INTO t VALUES (%d, %d)`, w, j)
					rows := []int{j}
					if w == writers-1 {
						q = fmt.Sprintf(`BEGIN; %s; INSERT INTO t VALUES (%d, %d); COMMIT`, q, w, j+1)
						rows = append(rows, j+1)
					}
					_, err := s.Exec(q)
					switch {
					case err == nil:
						acked[w] = append(acked[w], rows...)
						total.Add(int64(len(rows)))
						j += len(rows)
					case strings.Contains(err.Error(), "another session holds an open transaction"):
						// Refused while the transactional writer holds the
						// transaction: nothing applied, try again.
					case errors.Is(err, errClosed):
						return
					default:
						errs[w] = err
						return
					}
				}
				errs[w] = fmt.Errorf("never refused: every write after Close was acknowledged")
			}(w)
		}
		for deadline := time.Now().Add(5 * time.Second); total.Load() < 40 && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		wg.Wait()
		for w, err := range errs {
			if err != nil {
				t.Fatalf("round %d: writer %d: %v, want errClosed", round, w, err)
			}
		}
		db2, err := OpenDB(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for w := 0; w < writers; w++ {
			got := db2.MustQuery(fmt.Sprintf(`SELECT j FROM t WHERE w = %d ORDER BY j`, w)).Cols[0].Ints()
			if len(got) != len(acked[w]) {
				t.Fatalf("round %d: writer %d: %d rows after reopen, %d acknowledged", round, w, len(got), len(acked[w]))
			}
			for i, j := range got {
				if int(j) != acked[w][i] {
					t.Fatalf("round %d: writer %d: row %d is %d, acknowledged %d", round, w, i, j, acked[w][i])
				}
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
