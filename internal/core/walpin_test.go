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
// must not change a byte of what it logs. walPinScript covers the array
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

// walPinSHA256 is the SHA-256 of wal.log after walPinScript, recorded
// when array writes still went through boxed rows.
const walPinSHA256 = "2b0a82fc47f8544fea436a27dc0b4814dfe1d91972c04e5a0521e9a3ad216ece"

const walPinProbe = `
SELECT [x], [y], v, f, s, ok FROM b;
SELECT [t], v FROM u;
`

func TestWALBytesPinned(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenWith(dir, 0) // no checkpoint: every record stays in the log
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, stmt := range walPinScript {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != walPinSHA256 {
		t.Errorf("wal.log SHA-256 = %s (%d bytes), want %s", got, len(data), walPinSHA256)
	}

	// Replaying the log alone (the directory as a crash leaves it) must
	// reproduce the live state.
	probe := func(db *DB) string {
		return testutil.RenderScript(walPinProbe, func(stmt string) (string, error) {
			results, err := db.Exec(stmt)
			var sb strings.Builder
			for _, r := range results {
				sb.WriteString(r.String())
			}
			return sb.String(), err
		})
	}
	live := probe(db)
	crash := filepath.Join(root, "crash")
	copyTree(t, dir, crash)
	rdb, err := Open(crash)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	defer rdb.Close()
	if err := rdb.CheckIntegrity(); err != nil {
		t.Fatalf("replayed state: %v", err)
	}
	if got := probe(rdb); got != live {
		t.Fatalf("replayed state differs from the live one:\n%s\nlive:\n%s", got, live)
	}
}
