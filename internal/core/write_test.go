package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Semantics of DML, on every route a write takes through the one
// stage / validate / apply pipeline (stage.go): in memory and on disk,
// staged on the published snapshot (autocommit) and staged on the live
// catalog under the writer lock (inside a transaction, or after a
// conflict).

// execStaged runs one statement staged on the published snapshot, and
// fails the test unless that staging is what applies.
func execStaged(t *testing.T, db *DB, q string) (*Result, error) {
	st := stageOn(t, db, db.Snapshot(), q)
	if err := validates(db, st); err != nil {
		t.Fatalf("%s: staged on the snapshot of a quiet database: %v", q, err)
	}
	return applyStagedWrite(t, db, q, st)
}

// execLive runs one statement staged on the live catalog under the writer
// lock, as inside a transaction or after a conflict.
func execLive(t *testing.T, db *DB, q string) (*Result, error) {
	return applyStagedWrite(t, db, q, nil)
}

// writePaths runs fn once per write route: in memory and durable
// autocommit (staged on the snapshot), and durable inside an explicit
// transaction (staged live). exec runs one write statement on that
// route; reopen returns the state a fresh process would see.
func writePaths(t *testing.T, fn func(t *testing.T, db *DB, exec func(string) (*Result, error), reopen func() *DB)) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		fn(t, db, func(q string) (*Result, error) { return db.Query(q) }, reopen)
	})
	t.Run("durable-txn", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "db")
		db, err := OpenDB(dir, OpenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		s := db.NewSession()
		exec := func(q string) (*Result, error) {
			if _, err := s.Exec(`BEGIN`); err != nil {
				return nil, err
			}
			r, err := s.Query(q)
			if err != nil {
				_, _ = s.Exec(`ROLLBACK`)
				return nil, err
			}
			_, err = s.Exec(`COMMIT`)
			return r, err
		}
		fn(t, db, exec, func() *DB {
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

// TestWriteValuesNeverAlias: a SET value that is a stored column, or the
// target itself, becomes a copy; later writes to the source leave the
// target alone, live and after replay. A swap reads the values from
// before the statement.
func TestWriteValuesNeverAlias(t *testing.T) {
	steps := []string{
		`UPDATE t SET a = b`,
		`UPDATE t SET b = b + 100`,
		`UPDATE t SET a = b, b = a`,
		`UPDATE g SET w = x * 10`,
		`UPDATE g SET v = w`,
		`UPDATE g SET w = 0`,
		`UPDATE g SET v = v`,
		`UPDATE g SET w = w + 1`,
		`UPDATE g SET v = w, w = v WHERE x >= 1`,
	}
	const probe = `SELECT a, b FROM t`
	const probeG = `SELECT [x], v, w FROM g`
	const want = "a  | b \n---+---\n11 | 11\n21 | 0 \n31 | 0 \n"
	const wantG = "[x] | v | w \n----+---+---\n0   | 0 | 1 \n1   | 1 | 10\n2   | 1 | 20\n"
	writePaths(t, func(t *testing.T, db *DB, exec func(string) (*Result, error), reopen func() *DB) {
		db.MustQuery(`CREATE TABLE t (a INT, b INT)`)
		db.MustQuery(`INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
		db.MustQuery(`CREATE ARRAY g (x INT DIMENSION[0:1:3], v INT DEFAULT 0, w INT DEFAULT 0)`)
		for _, q := range steps {
			if _, err := exec(q); err != nil {
				t.Fatalf("%s: %v", q, err)
			}
		}
		// Nothing is published between the statements of one transaction,
		// so an in-place write reaches every slot that shares its column.
		if _, err := db.Exec(`BEGIN; UPDATE t SET b = b + 1; UPDATE t SET a = b; UPDATE t SET b = 0 WHERE a > 20; COMMIT`); err != nil {
			t.Fatal(err)
		}
		for _, d := range []*DB{db, reopen()} {
			if got := d.MustQuery(probe).String(); got != want {
				t.Fatalf("%s:\n%s\nwant:\n%s", probe, got, want)
			}
			if got := d.MustQuery(probeG).String(); got != wantG {
				t.Fatalf("%s:\n%s\nwant:\n%s", probeG, got, wantG)
			}
		}
	})
}

// TestWriteCastsSelectedRowsOnly: a value that cannot be cast to its
// target does not fail the statement when its row is not selected (a
// selected one fails it: TestUpdateSelectedCastFailureAppliesNothing).
func TestWriteCastsSelectedRowsOnly(t *testing.T) {
	writePaths(t, func(t *testing.T, db *DB, exec func(string) (*Result, error), reopen func() *DB) {
		db.MustQuery(`CREATE TABLE t (i INT, s VARCHAR)`)
		db.MustQuery(`INSERT INTO t VALUES (1, '5'), (2, 'x'), (3, '7')`)
		db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:3], i INT DEFAULT 0, s VARCHAR)`)
		db.MustQuery(`INSERT INTO a VALUES (0, 1, '5'), (1, 2, 'x'), (2, 3, '7')`)
		for _, q := range []string{`UPDATE t SET i = s WHERE s <> 'x'`, `UPDATE a SET i = s WHERE x <> 1`} {
			r, err := exec(q)
			if err != nil {
				t.Fatalf("%s: %v (the uncastable row is not selected)", q, err)
			}
			if r.Affected != 2 {
				t.Fatalf("%s: %d rows written, want 2", q, r.Affected)
			}
		}
		const want = "i | s\n--+--\n5 | 5\n2 | x\n7 | 7\n"
		const wantA = "[x] | i | s\n----+---+--\n0   | 5 | 5\n1   | 2 | x\n2   | 7 | 7\n"
		for _, d := range []*DB{db, reopen()} {
			if got := d.MustQuery(`SELECT i, s FROM t`).String(); got != want {
				t.Fatalf("table:\n%s\nwant:\n%s", got, want)
			}
			if got := d.MustQuery(`SELECT [x], i, s FROM a`).String(); got != wantA {
				t.Fatalf("array:\n%s\nwant:\n%s", got, wantA)
			}
		}
	})
}

// randomWrite draws one write statement over the table t, the array g
// and the unbounded array u of writeFixture: UPDATEs with casts both ways,
// SET NULL, swaps and self-assignments, WHERE clauses that are NULL on
// some rows, DELETEs, and INSERTs of every shape — table and array, from
// VALUES and from a query, into u growing its dimension either way, and
// some with coordinates outside g.
func randomWrite(rng *rand.Rand) string {
	k := func() int { return rng.Intn(9) - 2 }
	// pick draws a template and replaces each $ in it with a small integer
	// and each # with a coordinate of g, one in six outside it.
	pick := func(pool []string) string {
		s := pool[rng.Intn(len(pool))]
		for strings.Contains(s, "$") {
			s = strings.Replace(s, "$", fmt.Sprint(k()), 1)
		}
		for strings.Contains(s, "#") {
			s = strings.Replace(s, "#", fmt.Sprint(rng.Intn(6)), 1)
		}
		return s
	}
	tSets := []string{
		`i = i + $`, `i = f * $`, `i = a`, `i = s`, `f = i / 3 + $`, `f = NULL`,
		`s = s || 'z'`, `s = CAST(i AS VARCHAR)`, `s = NULL`, `ok = NOT ok`, `ok = i > $`,
		`a = b`, `a = b, b = a`, `a = COALESCE(a, $), f = f * 0.5`, `b = b * 2, s = 'w'`,
	}
	tWheres := []string{` WHERE i > $`, ` WHERE f < $`, ` WHERE ok`, ` WHERE s = 'x'`,
		` WHERE a IS NULL`, ` WHERE b % 3 = 0`, ` WHERE i BETWEEN $ AND 4`}
	gSets := []string{
		`v = x * $ + y`, `v = v`, `v = f * 1.5`, `f = v / 4`, `s = CAST(v AS VARCHAR)`, `ok = v % 3 = $`,
		`v = COALESCE(v, -1)`, `f = v, v = f`, `s = s || '?', ok = NOT ok`, `v = NULL`, `f = x + $`,
	}
	gWheres := []string{` WHERE x = $`, ` WHERE x >= $`, ` WHERE y < $`, ` WHERE v < $`,
		` WHERE f > $`, ` WHERE ok`, ` WHERE x > y`, ` WHERE s = '3'`}
	maybe := func(pool []string) string {
		if rng.Intn(3) == 0 {
			return ""
		}
		return pick(pool)
	}
	switch r := rng.Intn(30); {
	case r < 8:
		return `UPDATE t SET ` + pick(tSets) + maybe(tWheres)
	case r < 15:
		return `UPDATE g SET ` + pick(gSets) + maybe(gWheres)
	case r < 17:
		return `DELETE FROM g` + pick(gWheres)
	case r < 18:
		return `DELETE FROM t` + pick(tWheres)
	case r < 19:
		return fmt.Sprintf(`INSERT INTO t VALUES (%d, %d.25, '%d', %v, %d, NULL)`, k(), k(), k(), k() > 2, k())
	case r < 20:
		return pick([]string{
			`INSERT INTO t SELECT i + $, f, s, ok, b, a FROM t WHERE i > $`,
			`INSERT INTO t (i, f, s) SELECT x * 10 + y, f, s FROM g WHERE v > $`,
		})
	case r < 22:
		return pick([]string{
			`INSERT INTO g VALUES (#, #, $, $.5, '$', true)`,
			`INSERT INTO g (y, x, v) VALUES (#, #, $), (#, #, NULL)`,
		})
	case r < 24:
		return pick([]string{
			`INSERT INTO g (x, y, v, f) SELECT [y], [x], v + $, f FROM g` + maybe(gWheres),
			`INSERT INTO g (x, y, s, ok) SELECT i, 4 - i, s, ok FROM t WHERE i BETWEEN 0 AND 4`,
		})
	case r < 27:
		return pick([]string{
			`INSERT INTO u VALUES ($, $, '$')`,
			`INSERT INTO u (k, v) VALUES ($, $), ($, $)`,
			`INSERT INTO u SELECT x * 3 - $, v, s FROM g` + maybe(gWheres),
		})
	default:
		return pick([]string{
			`UPDATE u SET v = v + k, s = s || 'u' WHERE k > $`,
			`DELETE FROM u WHERE v < $`,
		})
	}
}

const writeFixture = `CREATE TABLE t (i INT, f DOUBLE, s VARCHAR, ok BOOLEAN, a INT, b INT);
INSERT INTO t VALUES (1, 1.5, 'x', true, 10, 20), (2, NULL, '3', false, 11, 21), (3, 3.25, NULL, NULL, 12, NULL), (4, -2.75, 'w', true, NULL, 23), (5, 0.5, '7', false, 14, 24), (6, 6, '6', true, 15, 25);
CREATE ARRAY g (x INT DIMENSION[0:1:5], y INT DIMENSION[4:-1:-1], v INT DEFAULT 1, f DOUBLE, s VARCHAR DEFAULT '3', ok BOOLEAN);
CREATE ARRAY u (k INT DIMENSION, v INT DEFAULT 0, s VARCHAR)`

const writeProbe = `SELECT i, f, s, ok, a, b FROM t; SELECT [x], [y], v, f, s, ok FROM g; SELECT [k], v, s FROM u`

// TestWritePathsAgree: seeded random write scripts leave identical cells
// and byte-identical logs whether each statement is staged on the
// published snapshot (durable autocommit) or on the live catalog under the
// writer lock (as inside a transaction), the same cells in memory, and a
// replay of either log reproduces them.
func TestWritePathsAgree(t *testing.T) {
	render := func(db *DB) string {
		rs, err := db.Exec(writeProbe)
		if err != nil {
			t.Fatalf("probe: %v", err)
		}
		var sb strings.Builder
		for _, r := range rs {
			sb.WriteString(r.String())
		}
		return sb.String()
	}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		root := t.TempDir()
		dirs := []string{filepath.Join(root, "snapshot"), filepath.Join(root, "live")}
		var dbs []*DB
		for _, dir := range dirs {
			db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
			if err != nil {
				t.Fatal(err)
			}
			dbs = append(dbs, db)
		}
		mem := New()
		for _, db := range append(dbs, mem) {
			if _, err := db.Exec(writeFixture); err != nil {
				t.Fatalf("seed %d: fixture: %v", seed, err)
			}
		}
		for n := 0; n < 40; n++ {
			q := randomWrite(rng)
			var outs []string
			for i, run := range []func(string) (*Result, error){
				func(q string) (*Result, error) { return execStaged(t, dbs[0], q) },
				func(q string) (*Result, error) { return execLive(t, dbs[1], q) },
				mem.Query,
			} {
				r, err := run(q)
				out := fmt.Sprint(err)
				if err == nil {
					out = r.String()
				}
				if i > 0 && out != outs[0] {
					t.Fatalf("seed %d: %s: route %d answers %q, the snapshot-staged route %q", seed, q, i, out, outs[0])
				}
				outs = append(outs, out)
			}
		}
		live := render(dbs[0])
		for i, db := range append(dbs[1:], mem) {
			if got := render(db); got != live {
				t.Fatalf("seed %d: route %d holds\n%s\nthe snapshot-staged route\n%s", seed, i+1, got, live)
			}
		}
		var logs [][]byte
		for _, dir := range dirs {
			data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			logs = append(logs, data)
		}
		if !bytes.Equal(logs[0], logs[1]) {
			t.Fatalf("seed %d: the snapshot-staged log (%d bytes) differs from the live-staged one (%d bytes)", seed, len(logs[0]), len(logs[1]))
		}
		// The log alone, as a crash leaves the directory, replays to the
		// same cells.
		crash := filepath.Join(root, "crash")
		copyTree(t, dirs[0], crash)
		rdb, err := OpenDB(crash, OpenOptions{})
		if err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		if got := render(rdb); got != live {
			t.Fatalf("seed %d: replayed state\n%s\nlive\n%s", seed, got, live)
		}
		for _, db := range append(dbs, rdb) {
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
