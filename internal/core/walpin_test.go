package core

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// The WAL record format is a contract with every log already on disk and
// with every replica tailing a primary: changing how a write is computed
// must not change a byte of what it logs, and a change of the format
// itself re-records the pins below while the logs of the format before
// (testdata/wal_v1) keep replaying. walPinScript covers the array
// write paths — bounded and unbounded arrays, a negative-step dimension,
// duplicate target cells, NULL attributes, every attribute kind, casts in
// both directions, INSERT VALUES and INSERT ... SELECT, unbounded growth
// — plus the array UPDATE and DELETE records beside them.
var walPinScript = []string{
	`CREATE ARRAY b (x INT DIMENSION[0:1:4], y INT DIMENSION[6:-2:-2], v INT DEFAULT 0, f DOUBLE, s VARCHAR, ok BOOLEAN)`,
	`INSERT INTO b VALUES (0, 6, 1, 1.5, 'a', true), (1, 4, NULL, NULL, NULL, NULL), (0, 6, 2, 2.5, 'b', false)`,
	`INSERT INTO b (y, x, s) VALUES (2, 3, 'c'), (0, 2.7, 'trunc')`,
	`CREATE TABLE src (i INT, j INT, w INT)`,
	`INSERT INTO src VALUES (0, 0, 1), (1, 2, 2), (3, 6, 3), (1, 2, 4), (2, 4, NULL)`,
	`INSERT INTO b SELECT i, j, w, w * 0.5, 'tab', w > 1 FROM src`,
	`INSERT INTO b (x, y, f) SELECT i, j, w FROM src`,
	`INSERT INTO b (x, y, v) SELECT i, j, w * 1.5 FROM src WHERE w IS NOT NULL`,
	`INSERT INTO b SELECT [x], [y], v + 1, f, s, ok FROM b WHERE x < 2`,
	`INSERT INTO b SELECT x % 2, y, x, NULL, 'dup', NULL FROM b`,
	`UPDATE b SET v = v * 10 WHERE y > 2`,
	`DELETE FROM b WHERE x = 3 AND y = 0`,
	`CREATE ARRAY u (t INT DIMENSION, v DOUBLE DEFAULT 0.5)`,
	`INSERT INTO u VALUES (5, 1.25)`,
	`INSERT INTO u VALUES (9, 2.5), (1, NULL), (9, 3.5)`,
	`INSERT INTO u SELECT i + 20, w FROM src`,
	`INSERT INTO u SELECT [t], v * 2 FROM u WHERE t < 9`,
}

// walPinSHA256 is the SHA-256 of wal.log after walPinScript. Re-recorded
// when DML records became typed columns (positions as a start and
// frame-of-reference gaps, one column per written attribute); the log of
// the per-cell tagged format is testdata/wal_v1/pin/wal.log.
const walPinSHA256 = "c2532494c2e732d4d0c367c31fb61925d8c97900191f29f3845eaf7dfbf1d989"

const walPinProbe = `
SELECT [x], [y], v, f, s, ok FROM b;
SELECT [t], v FROM u;
`

// walPinDMLScript covers the UPDATE and DELETE records of tables and
// arrays: casts float to int and int to float, SET NULL, a swap, WHERE
// clauses that are NULL on some rows, an UPDATE that selects nothing,
// UPDATEs after a table DELETE (deleted rows are skipped), multi-attribute
// and unfiltered array UPDATEs, SET v = v, and array DELETEs through a
// dimension slab and through an attribute predicate, over every
// attribute kind.
var walPinDMLScript = []string{
	`CREATE TABLE t (i INT, f DOUBLE, s VARCHAR, ok BOOLEAN, a INT, b INT)`,
	`INSERT INTO t VALUES (1, 1.5, 'x', true, 10, 20), (2, NULL, 'y', false, 11, 21), (3, 3.25, NULL, NULL, 12, NULL), (4, -2.75, 'w', true, NULL, 23), (5, 0.5, 'v', false, 14, 24)`,
	`UPDATE t SET i = f * 3`,
	`UPDATE t SET f = i, s = s || '!', ok = NOT ok WHERE a > 10`,
	`UPDATE t SET a = b, b = a`,
	`UPDATE t SET s = NULL WHERE ok`,
	`DELETE FROM t WHERE b = 11`,
	`UPDATE t SET a = a + 100, f = 0.25`,
	`UPDATE t SET i = 7 WHERE f > 100`,
	`DELETE FROM t WHERE i IS NULL`,
	`UPDATE t SET b = b * 2 WHERE a > 0`,
	`CREATE ARRAY g (x INT DIMENSION[0:1:4], y INT DIMENSION[3:-1:-1], v INT DEFAULT 1, f DOUBLE, s VARCHAR DEFAULT 'd', ok BOOLEAN)`,
	`UPDATE g SET v = x * 10 + y`,
	`UPDATE g SET f = v / 4, s = CAST(v AS VARCHAR), ok = v % 3 = 0 WHERE x >= 1`,
	`UPDATE g SET v = v`,
	`UPDATE g SET f = NULL WHERE y = 2`,
	`UPDATE g SET v = f * 1.5 WHERE f > 2`,
	`DELETE FROM g WHERE x = 3`,
	`DELETE FROM g WHERE v < 5`,
	`UPDATE g SET v = COALESCE(v, -1), ok = ok IS NULL`,
	`UPDATE g SET s = s || '?' WHERE ok`,
	`UPDATE g SET f = v, v = f WHERE x < 2`,
}

// walPinDMLSHA256 is the SHA-256 of wal.log after walPinDMLScript,
// re-recorded for the typed DML records like walPinSHA256; the former log
// is testdata/wal_v1/dml/wal.log.
const walPinDMLSHA256 = "58404e4d610a96f96d36b238146f239bfdc4dd524bf63eeef59ebe4204069fc3"

const walPinDMLProbe = `
SELECT i, f, s, ok, a, b FROM t;
SELECT COUNT(*) FROM t;
SELECT [x], [y], v, f, s, ok FROM g;
`

func TestWALBytesPinned(t *testing.T) {
	checkWALPin(t, walPinScript, walPinSHA256, walPinProbe)
}

func TestWALBytesPinnedDML(t *testing.T) {
	checkWALPin(t, walPinDMLScript, walPinDMLSHA256, walPinDMLProbe)
}

// checkWALPin runs script on a fresh directory-backed database, compares
// the SHA-256 of its wal.log with want, and requires a replay of that log
// alone to answer probe exactly like the live database.
func checkWALPin(t *testing.T, script []string, want, probeScript string) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1}) // no checkpoint: every record stays in the log
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range script {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("wal.log SHA-256 = %s (%d bytes), want %s", got, len(data), want)
	}

	// Replaying the log alone (the directory as a crash leaves it) must
	// reproduce the live state.
	live := probeDB(db, probeScript)
	crash := filepath.Join(root, "crash")
	copyTree(t, dir, crash)
	if got := probeReplay(t, crash, probeScript); got != live {
		t.Fatalf("replayed state differs from the live one:\n%s\nlive:\n%s", got, live)
	}
}

// probeDB renders probeScript's answers on db.
func probeDB(db *DB, probeScript string) string {
	return testutil.RenderScript(probeScript, func(stmt string) (string, error) {
		results, err := db.Exec(stmt)
		var sb strings.Builder
		for _, r := range results {
			sb.WriteString(r.String())
		}
		return sb.String(), err
	})
}

// probeReplay opens dir, which holds a log and nothing else, checks the
// replayed state's integrity and renders probeScript's answers on it.
func probeReplay(t *testing.T, dir, probeScript string) string {
	t.Helper()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer db.Close()
	if err := db.CheckIntegrity(); err != nil {
		t.Fatalf("replayed state: %v", err)
	}
	return probeDB(db, probeScript)
}

// TestWALReplayV1Logs replays the logs the three pin scripts left in the
// per-cell tagged record format (recorded before the typed DML records,
// before any checkpoint) and requires the answers the scripts give live.
func TestWALReplayV1Logs(t *testing.T) {
	for _, c := range []struct {
		name, probe string
		script      []string
	}{
		{"pin", walPinProbe, walPinScript},
		{"dml", walPinDMLProbe, walPinDMLScript},
		{"insert", walPinInsertProbe, walPinInsertScript},
	} {
		t.Run(c.name, func(t *testing.T) {
			db := New()
			for _, stmt := range c.script {
				if _, err := db.Exec(stmt); err != nil {
					t.Fatalf("%s: %v", stmt, err)
				}
			}
			dir := filepath.Join(t.TempDir(), "db")
			copyTree(t, filepath.Join("testdata", "wal_v1", c.name), dir)
			if got, live := probeReplay(t, dir, c.probe), probeDB(db, c.probe); got != live {
				t.Fatalf("replayed v1 log differs from the live script:\n%s\nlive:\n%s", got, live)
			}
		})
	}
}

// TestWALOneCellInsertSize: a one-cell INSERT into a 64x64 image, the
// write of sciqld's durable inserts, logs no more than the per-cell
// tagged records did (the sizes the former format logged for the same
// statements, frame included).
func TestWALOneCellInsertSize(t *testing.T) {
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustQuery(`CREATE ARRAY grid (x INT DIMENSION[0:1:64], y INT DIMENSION[0:1:64], v INT DEFAULT 0)`)
	for _, c := range []struct {
		stmt string
		v1   int64
	}{
		{`INSERT INTO grid VALUES (63, 63, 255)`, 30},
		{`INSERT INTO grid VALUES (0, 0, 0)`, 28},
		{`INSERT INTO grid VALUES (17, 5, 1000)`, 30},
	} {
		before := db.WALSize()
		db.MustQuery(c.stmt)
		if got := db.WALSize() - before; got > c.v1 {
			t.Errorf("%s: logged %d bytes, the per-cell format %d", c.stmt, got, c.v1)
		}
	}
}

// walPinInsertScript covers the table append record: multi-row VALUES
// over every column kind with NULLs and casts in both directions, a
// column list that leaves columns to their DEFAULT or to NULL, INSERT ...
// SELECT with casts from a table and from an array, an INSERT ... SELECT
// that selects nothing, and appends after a DELETE.
var walPinInsertScript = []string{
	`CREATE TABLE t (i INT DEFAULT 7, f DOUBLE, s VARCHAR DEFAULT 'd', ok BOOLEAN, o INT)`,
	`INSERT INTO t VALUES (1, 1.5, 'a', true, 10), (2.7, 2, NULL, false, NULL), (NULL, NULL, 'c', NULL, -3)`,
	`INSERT INTO t (f, o) VALUES (0.25, 1), (-1.75, 2)`,
	`INSERT INTO t (s) VALUES ('only')`,
	`CREATE TABLE u (a INT, b DOUBLE, c VARCHAR, d BOOLEAN, e INT)`,
	`INSERT INTO u SELECT f, i, s, ok, i * 2 FROM t`,
	`INSERT INTO u (c, a) SELECT s || '!', o FROM t WHERE o IS NOT NULL`,
	`INSERT INTO u SELECT i, f * 0.5, s, i > 2, o FROM t WHERE i > 100`,
	`DELETE FROM u WHERE a = 1`,
	`INSERT INTO u (b, d) SELECT i * 1.5, f > 0 FROM t`,
	`CREATE ARRAY m (x INT DIMENSION[0:1:3], y INT DIMENSION[2:-1:0], v INT DEFAULT 4, w DOUBLE)`,
	`INSERT INTO m VALUES (1, 1, 5, 0.5), (2, 2, NULL, 7.25)`,
	`INSERT INTO t (i, f, s, ok) SELECT x, v, CAST(w AS VARCHAR), w IS NULL FROM m`,
	`INSERT INTO u VALUES (1, 2, '3', true, 4), (NULL, NULL, NULL, NULL, NULL)`,
}

// walPinInsertSHA256 is the SHA-256 of wal.log after walPinInsertScript,
// re-recorded for the typed DML records like walPinSHA256; the former log
// is testdata/wal_v1/insert/wal.log.
const walPinInsertSHA256 = "f26bcb6347d9275b4e28af469ae4762067197f9f96432a8eaa94a59765663492"

const walPinInsertProbe = `
SELECT i, f, s, ok, o FROM t;
SELECT a, b, c, d, e FROM u;
SELECT COUNT(*) FROM u;
`

func TestWALBytesPinnedInsert(t *testing.T) {
	checkWALPin(t, walPinInsertScript, walPinInsertSHA256, walPinInsertProbe)
}

// TestWALArrayInsertMoreRowsThanCells: an INSERT with more rows than the
// array has cells keeps each cell's last row, live and in its log record
// (whose row count replay bounds by the cells), so the replayed log
// answers like the live array.
func TestWALArrayInsertMoreRowsThanCells(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range []string{
		`CREATE ARRAY small (x INT DIMENSION[0:1:3], v INT DEFAULT 0, s VARCHAR)`,
		`CREATE TABLE src (i INT, w INT)`,
		`INSERT INTO src VALUES (0, 1), (1, 2), (2, 3), (0, 4), (1, NULL), (2, 6), (0, 7), (1, 8), (2, NULL), (0, 10)`,
		`INSERT INTO small SELECT i, w, CAST(w AS VARCHAR) FROM src`,
	} {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	const probe = "SELECT [x], v, s FROM small;\n"
	live := probeDB(db, probe)
	want := probeDB(New(), "CREATE ARRAY small (x INT DIMENSION[0:1:3], v INT DEFAULT 0, s VARCHAR);\n"+
		"INSERT INTO small VALUES (0, 10, '10'), (1, 8, '8'), (2, NULL, NULL);\n"+probe)
	if !strings.HasSuffix(want, live) {
		t.Fatalf("live array:\n%s\nwant the last row of each cell:\n%s", live, want)
	}
	crash := filepath.Join(root, "crash")
	copyTree(t, dir, crash)
	if got := probeReplay(t, crash, probe); got != live {
		t.Fatalf("replayed state differs from the live one:\n%s\nlive:\n%s", got, live)
	}
}
