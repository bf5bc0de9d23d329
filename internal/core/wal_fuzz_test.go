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
