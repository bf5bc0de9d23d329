package core

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/bat"
)

// TestWALTableAppendSplits checks that an append of more cells than one
// record may hold is logged as several records of at most that many
// cells, which replay to the rows the statement appended.
func TestWALTableAppendSplits(t *testing.T) {
	const create = `CREATE TABLE t (i INT, s VARCHAR)`
	live := New()
	live.MustQuery(create)
	live.MustQuery(`INSERT INTO t VALUES (1, 'a'), (2, NULL), (3, 'c'), (4, 'd'), (5, ''), (6, 'f'), (7, 'g')`)
	tb, _ := live.cat.Table("t")
	recs := encTableAppend("t", tb.Bats, 6)
	if len(recs) != 3 {
		t.Fatalf("7 rows of 2 columns at 6 cells a record: %d records, want 3", len(recs))
	}
	replayed := New()
	replayed.MustQuery(create)
	replayed.mu.Lock()
	for i, rec := range recs {
		d := &recDec{b: rec[1:]}
		d.str()
		d.u64()
		if n := d.rows(1 << 20); n > 3 {
			t.Errorf("record %d holds %d rows, want at most 3", i, n)
		}
		if err := replayed.applyWALRecord(rec); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
	}
	replayed.publishLocked()
	replayed.mu.Unlock()
	q := `SELECT i, s FROM t ORDER BY i`
	if got, want := replayed.MustQuery(q).String(), live.MustQuery(q).String(); got != want {
		t.Fatalf("replayed split append:\n%s\nlive:\n%s", got, want)
	}
	if got := len(encTableAppend("t", []*bat.BAT{bat.FromInts([]int64{1, 2})}, 0)); got != 2 {
		t.Fatalf("a cell budget below one row: %d records, want one per row", got)
	}
}

// BenchmarkWALReplay measures recovery against the live statements that
// wrote the log: 1 000 autocommit UPDATEs of every cell of a 128x128
// image, replayed from the log alone (no checkpoint). It reports the
// microseconds per commit live (live_us/commit: statement, log record,
// fsync) and replayed (replay_us/commit: decode and apply, the log read
// once):
//
//	go test -run '^$' -bench WALReplay -benchtime 5x ./internal/core
func BenchmarkWALReplay(b *testing.B) {
	const commits = 1000
	root := b.TempDir()
	db, err := OpenDB(filepath.Join(root, "db"), OpenOptions{CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	db.MustQuery(`CREATE ARRAY img (x INT DIMENSION[0:1:128], y INT DIMENSION[0:1:128], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE img SET v = (x * 7 + y * 13) % 256`)
	start := time.Now()
	for i := 0; i < commits; i++ {
		db.MustQuery(`UPDATE img SET v = 255 - v`)
	}
	live := time.Since(start)
	log, err := os.ReadFile(filepath.Join(root, "db", "wal.log"))
	if err != nil {
		b.Fatal(err)
	}
	want := db.MustQuery(`SELECT SUM(v) FROM img`).String()
	db.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := filepath.Join(root, "replay")
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "wal.log"), log, 0o644); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		rdb, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
		b.StopTimer()
		if err != nil {
			b.Fatal(err)
		}
		if got := rdb.MustQuery(`SELECT SUM(v) FROM img`).String(); got != want {
			b.Fatalf("replayed SUM(v) = %s, live %s", got, want)
		}
		rdb.Close()
		b.StartTimer()
	}
	b.ReportMetric(float64(live.Microseconds())/commits, "live_us/commit")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/commits, "replay_us/commit")
	b.ReportMetric(float64(len(log))/commits, "bytes/commit")
}
