package core

import (
	"os"
	"path/filepath"
	"testing"
)

// buildFuzzBase creates a small checkpointed database and returns its
// directory plus a valid WAL tail (two committed statements) recorded on
// top of that checkpoint. Deterministic: every call produces the same
// checkpoint generation and the same log bytes.
func buildFuzzBase(tb testing.TB, root string) (dir string, walBytes []byte) {
	tb.Helper()
	dir = filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT, s VARCHAR)`)
	db.MustQuery(`INSERT INTO t VALUES (1, 'one'), (2, 'two')`)
	db.MustQuery(`CREATE ARRAY g (x INT DIMENSION[0:1:2], v DOUBLE DEFAULT 0.25)`)
	if err := db.Close(); err != nil { // checkpoint; wal resets to header-only
		tb.Fatal(err)
	}
	db, err = OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	db.MustQuery(`INSERT INTO t VALUES (3, 'three')`)
	db.MustQuery(`UPDATE g SET v = x + 0.5 WHERE x > 0`)
	walBytes, err = os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	// Abandon without Close: the base image is a crash image whose log
	// holds the two commits. (The leaked handle is fine for tests.)
	return dir, walBytes
}

// typedFuzzStmts, run on the fuzz base, log typed DML records of every
// shape the column decoder knows: int columns of width 0, 8, 13 and 64
// and with a negative base, unsorted and repeated positions, NULLs of
// every kind, empty strings, table appends, updates and deletes, array
// deletes. A bulk load follows them (see typedFuzzLog). The checkpointed
// rows of t (a <= 2) stay as they are, as FuzzWALReplay's probe expects.
var typedFuzzStmts = []string{
	`CREATE ARRAY h (x INT DIMENSION[0:1:8], y INT DIMENSION[0:1:8], i INT DEFAULT 0, f DOUBLE, b BOOLEAN, s VARCHAR)`,
	`UPDATE h SET i = 7`,
	`UPDATE h SET i = x * 32 + y`,
	`UPDATE h SET i = x * 1000 + y WHERE y <> 3`,
	`UPDATE h SET i = (x - 4) * 2000000000000000000`,
	`UPDATE h SET i = y - 100, f = x * 0.5, b = y > 3, s = CASE WHEN y = 0 THEN '' ELSE 'v' END`,
	`UPDATE h SET i = NULL, f = NULL, b = NULL, s = NULL WHERE x = 1`,
	`INSERT INTO h VALUES (3, 3, 1, 1.5, true, 'a'), (0, 1, NULL, NULL, NULL, ''), (3, 3, -5, NULL, false, NULL)`,
	`DELETE FROM h WHERE x = 7 OR y = 2`,
	`INSERT INTO t VALUES (4, ''), (NULL, NULL), (90, 'ninety')`,
	`UPDATE t SET a = a * 1000, s = NULL WHERE a > 2`,
	`DELETE FROM t WHERE a = 90000`,
	`UPDATE g SET v = NULL`,
}

// typedFuzzLog returns the log typedFuzzStmts and a bulk load leave on a
// fresh fuzz base.
func typedFuzzLog(tb testing.TB, root string) []byte {
	tb.Helper()
	dir, _ := buildFuzzBase(tb, root)
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		tb.Fatal(err)
	}
	for _, stmt := range typedFuzzStmts {
		db.MustQuery(stmt)
	}
	bulk := make([]int64, 64)
	for i := range bulk {
		bulk[i] = int64(i*i) - 2000
	}
	if err := db.BulkSetAttrInts("h", "i", bulk); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// FuzzWALReplay feeds arbitrary bytes as the wal.log of an otherwise
// intact database. The contract under any corruption: opening either
// succeeds with a structurally sound catalog (torn/corrupt tails are
// discarded silently — that is a normal crash artifact) or fails with a
// clean recovery error. It must never panic and never leave a
// half-applied record visible.
func FuzzWALReplay(f *testing.F) {
	_, valid := buildFuzzBase(f, f.TempDir())
	f.Add(valid)                // the intact log
	f.Add(valid[:len(valid)-3]) // torn tail
	f.Add(valid[:14])           // header only
	f.Add([]byte{})             // empty file
	f.Add([]byte("SCQW"))       // truncated header
	f.Add([]byte("garbage not a wal at all"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/2] ^= 0xff
	f.Add(mut) // corrupted middle
	typed := typedFuzzLog(f, f.TempDir())
	f.Add(typed) // typed records of every column shape
	f.Add(typed[:len(typed)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		root := t.TempDir()
		dir, _ := buildFuzzBase(t, root)
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		db, err := OpenDB(dir, OpenOptions{})
		if err != nil {
			return // clean recovery error: acceptable for corrupt input
		}
		defer db.Close()
		if err := db.CheckIntegrity(); err != nil {
			t.Fatalf("recovered database fails integrity check: %v", err)
		}
		// The checkpointed prefix must be untouchable by log corruption:
		// rows 1 and 2 live in segment files, not the log.
		r, err := db.Query(`SELECT COUNT(*) FROM t WHERE a <= 2`)
		if err != nil {
			t.Fatalf("probe query after recovery: %v", err)
		}
		if n, _ := r.Value(0, 0).AsInt(); n != 2 {
			t.Fatalf("checkpointed rows damaged by wal bytes: %d of 2 remain", n)
		}
	})
}
