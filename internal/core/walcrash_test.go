package core

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/testutil"
)

// The crash-injection harness: a workload of committed writes runs
// against a directory-backed database, the directory is snapshotted
// without Close (as a crash would leave it), and the WAL is then cut at
// every byte offset — and corrupted at every byte offset — before
// reopening. Recovery must always land on exactly the state of some
// committed prefix: the golden-query fingerprint of the reopened
// database is compared byte for byte against the fingerprint taken live
// at that commit boundary.

// crashWorkload exercises every WAL record type: table DDL/DML, fixed
// and unbounded arrays, growth, reshape, drop, and a multi-statement
// transaction (whose commit must replay atomically or not at all).
var crashWorkload = []string{
	`CREATE TABLE kv (k INT, v VARCHAR, f DOUBLE DEFAULT 1.5)`,
	`INSERT INTO kv VALUES (1, 'one', 1.0), (2, 'two', 2.0), (3, 'three', 3.0)`,
	`UPDATE kv SET v = 'TWO', f = f * 10 WHERE k = 2`,
	`DELETE FROM kv WHERE k = 1`,
	`INSERT INTO kv (k) VALUES (4)`,
	`CREATE ARRAY m (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:3], v INT DEFAULT 0)`,
	`UPDATE m SET v = x * 10 + y`,
	`INSERT INTO m VALUES (1, 2, 99)`,
	`DELETE FROM m WHERE x = y`,
	`CREATE ARRAY ub (t INT DIMENSION, v DOUBLE DEFAULT 0.5)`,
	`INSERT INTO ub VALUES (5, 1.25)`,
	`INSERT INTO ub VALUES (9, 2.5)`,
	`ALTER ARRAY m ALTER DIMENSION x SET RANGE [0:1:5]`,
	`CREATE TABLE scratch (z INT)`,
	`INSERT INTO scratch VALUES (42)`,
	`DROP TABLE scratch`,
	`BEGIN; INSERT INTO kv VALUES (7, 'seven', 7.7); UPDATE kv SET f = 0.0 WHERE k = 7; COMMIT`,
}

// crashProbe is the golden-query suite run against recovered states.
// Objects missing in early prefixes render as errors, which fingerprint
// deterministically too.
const crashProbe = `
SELECT k, v, f FROM kv;
SELECT SUM(k), COUNT(*) FROM kv;
SELECT [x], [y], v FROM m;
SELECT [t], v FROM ub;
SELECT z FROM scratch;
`

func fingerprintDB(db *DB) string {
	return testutil.RenderScript(crashProbe, func(stmt string) (string, error) {
		results, err := db.Exec(stmt)
		var sb strings.Builder
		for _, r := range results {
			sb.WriteString(r.String())
		}
		return sb.String(), err
	})
}

// copyTree copies a database directory (catalog.json, bats/, wal.log).
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// buildCrashBase runs the workload and returns the crash-image directory
// (snapshotted without Close), the WAL sizes at each commit boundary in
// ascending order, and the expected fingerprint at each boundary.
func buildCrashBase(t *testing.T) (base string, boundaries []int64, expected map[int64]string) {
	t.Helper()
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1}) // keep every record in the log
	if err != nil {
		t.Fatal(err)
	}

	expected = map[int64]string{}
	record := func() {
		sz := db.WALSize()
		if _, ok := expected[sz]; !ok {
			boundaries = append(boundaries, sz)
			expected[sz] = fingerprintDB(db)
		}
	}
	record() // empty log: checkpoint-only state
	for _, stmt := range crashWorkload {
		if _, err := db.Exec(stmt); err != nil {
			t.Fatalf("workload %q: %v", stmt, err)
		}
		record()
	}
	// Snapshot the directory as a crash would leave it: no Close, no
	// final checkpoint. (The still-open handles don't matter; we only
	// read the copy.)
	base = filepath.Join(root, "crash-image")
	copyTree(t, dir, base)
	return base, boundaries, expected
}

// recoverAndFingerprint opens a crash image and returns its fingerprint.
func recoverAndFingerprint(t *testing.T, dir string) string {
	t.Helper()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if err := db.CheckIntegrity(); err != nil {
		db.Close()
		t.Fatalf("recovered database fails integrity check: %v", err)
	}
	fp := fingerprintDB(db)
	if err := db.Close(); err != nil {
		t.Fatalf("close after recovery: %v", err)
	}
	return fp
}

// stateAt returns the expected fingerprint for a WAL cut/corruption at
// offset off: the state of the last commit whose records fit below off.
func stateAt(off int64, boundaries []int64, expected map[int64]string) string {
	last := boundaries[0]
	for _, b := range boundaries {
		if b <= off {
			last = b
		}
	}
	return expected[last]
}

// TestWALCrashTruncationMatrix cuts the log at every byte offset (every
// 7th under -short) and asserts recovery lands exactly on the last
// commit boundary at or below the cut.
func TestWALCrashTruncationMatrix(t *testing.T) {
	base, boundaries, expected := buildCrashBase(t)
	full := boundaries[len(boundaries)-1]
	head := boundaries[0] // wal header size: cuts below it corrupt the header

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	work := filepath.Join(t.TempDir(), "work")
	for cut := head; cut <= full; cut += stride {
		os.RemoveAll(work)
		copyTree(t, base, work)
		walPath := filepath.Join(work, "wal.log")
		if err := os.Truncate(walPath, cut); err != nil {
			t.Fatal(err)
		}
		got := recoverAndFingerprint(t, work)
		want := stateAt(cut, boundaries, expected)
		if got != want {
			t.Fatalf("cut at %d: recovered state diverges\n--- got ---\n%s\n--- want ---\n%s", cut, got, want)
		}
	}
}

// TestWALCrashCorruptionMatrix flips every byte of the log body in turn
// (every 7th under -short): replay must stop at the corrupted commit and
// recover the state just before it — never error, never panic, never
// resurrect bytes past the corruption.
func TestWALCrashCorruptionMatrix(t *testing.T) {
	base, boundaries, expected := buildCrashBase(t)
	full, err := os.ReadFile(filepath.Join(base, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	head := boundaries[0]

	stride := int64(1)
	if testing.Short() {
		stride = 7
	}
	work := filepath.Join(t.TempDir(), "work")
	for off := head; off < int64(len(full)); off += stride {
		os.RemoveAll(work)
		copyTree(t, base, work)
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x5a
		if err := os.WriteFile(filepath.Join(work, "wal.log"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got := recoverAndFingerprint(t, work)
		// The flipped byte sits inside the commit record that starts at
		// the last boundary <= off; that commit and everything after it
		// must vanish.
		want := stateAt(off, boundaries, expected)
		if got != want {
			t.Fatalf("flip at %d: recovered state diverges\n--- got ---\n%s\n--- want ---\n%s", off, got, want)
		}
	}
}

// TestWALRecoveryAfterCheckpoint interleaves an explicit checkpoint with
// commits: recovery must replay only the post-checkpoint tail on top of
// the segment store.
func TestWALRecoveryAfterCheckpoint(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1), (2)`)
	if err := db.Save(); err != nil { // checkpoint: segments now hold {1,2}
		t.Fatal(err)
	}
	if got := db.WALSize(); got >= 64 {
		t.Fatalf("wal not reset by checkpoint (size %d)", got)
	}
	db.MustQuery(`INSERT INTO t VALUES (3)`)
	db.MustQuery(`UPDATE t SET a = a * 100 WHERE a = 1`)

	image := filepath.Join(root, "crash-image")
	copyTree(t, dir, image)
	db2, err := OpenDB(image, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT SUM(a), COUNT(*) FROM t`)
	sum, _ := r.Value(0, 0).AsInt()
	cnt, _ := r.Value(0, 1).AsInt()
	if sum != 105 || cnt != 3 {
		t.Fatalf("recovered SUM=%d COUNT=%d, want 105/3", sum, cnt)
	}
}

// TestWALStaleGenerationDiscarded simulates the checkpoint crash window:
// the manifest has moved to the next generation but an old-generation
// log (whose effects the checkpoint already folded in) is still lying
// around. Replaying it would double-apply; the generation check must
// discard it instead.
func TestWALStaleGenerationDiscarded(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	staleWAL, err := os.ReadFile(filepath.Join(dir, "wal.log"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err != nil { // checkpoint folds the log in
		t.Fatal(err)
	}
	image := filepath.Join(root, "crash-image")
	copyTree(t, dir, image)
	// Put the pre-checkpoint log back, as a crash between the manifest
	// rename and the log reset would leave it.
	if err := os.WriteFile(filepath.Join(image, "wal.log"), staleWAL, 0o644); err != nil {
		t.Fatal(err)
	}
	db2, err := OpenDB(image, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT SUM(a), COUNT(*) FROM t`)
	sum, _ := r.Value(0, 0).AsInt()
	cnt, _ := r.Value(0, 1).AsInt()
	if sum != 1 || cnt != 1 {
		t.Fatalf("stale log replayed: SUM=%d COUNT=%d, want 1/1", sum, cnt)
	}
}

// TestCheckpointTxnDiscipline pins two checkpoint/transaction rules: a
// checkpoint is refused while a transaction is open (it would fold
// uncommitted effects into segments, double-applying them on COMMIT +
// crash), and a rolled-back transaction leaves nothing for the next
// checkpoint to rewrite (its objects again match their segments).
func TestCheckpointTxnDiscipline(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	closed := false
	defer func() {
		if !closed {
			db.Close()
		}
	}()
	db.MustQuery(`CREATE TABLE big (a INT)`)
	db.MustQuery(`INSERT INTO big VALUES (1), (2), (3)`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	before := db.CheckpointBytes()

	db.MustQuery(`BEGIN`)
	db.MustQuery(`UPDATE big SET a = a * 10`)
	if err := db.Save(); err == nil {
		t.Fatal("Save succeeded during an open transaction")
	}
	db.MustQuery(`ROLLBACK`)

	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if got := db.CheckpointBytes(); got != before {
		t.Fatalf("checkpoint rewrote %d bytes after a rollback-only transaction", got-before)
	}
	db.MustQuery(`UPDATE big SET a = a + 1`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	after := db.CheckpointBytes()
	if after <= before {
		t.Fatal("real write not checkpointed")
	}

	// DELETE only flips deletion-mask bits, which live in the manifest:
	// the checkpoint must not rewrite the table's segments for it — and
	// the deletion must still survive a reopen.
	db.MustQuery(`DELETE FROM big WHERE a = 2`)
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if got := db.CheckpointBytes(); got != after {
		t.Fatalf("DELETE-only checkpoint rewrote %d segment bytes", got-after)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	closed = true
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.MustQuery(`SELECT COUNT(*) FROM big`).Value(0, 0).AsInt(); n != 2 {
		t.Fatalf("deletion lost by manifest-only checkpoint: %d rows, want 2", n)
	}
}

// TestWALBulkLoadDurable covers the vault's fast-ingestion path: a
// BulkSetAttrInts followed by an abandoned handle (no Close, no Save)
// must survive via its WAL record alone.
func TestWALBulkLoadDurable(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE ARRAY img (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], p INT DEFAULT 0)`)
	data := make([]int64, 16)
	for i := range data {
		data[i] = int64(i * i)
	}
	if err := db.BulkSetAttrInts("img", "p", data); err != nil {
		t.Fatal(err)
	}
	image := filepath.Join(root, "crash-image")
	copyTree(t, dir, image)
	db2, err := OpenDB(image, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	got, valid, err := db2.ReadAttrInts("img", "p")
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		if !valid[i] || got[i] != data[i] {
			t.Fatalf("cell %d = (%d, %v) after recovery, want (%d, true)", i, got[i], valid[i], data[i])
		}
	}
}

// TestWALCrashSIGKILL kills a child process mid-commit-stream with
// SIGKILL and asserts every acknowledged commit survives: the WAL fsync
// happens before the statement returns, so an acked insert must be
// present after recovery, and the recovered table must be an intact
// prefix 0..n-1 of what the child wrote.
func TestWALCrashSIGKILL(t *testing.T) {
	if os.Getenv("SCIQL_WAL_CRASH_CHILD") != "" {
		walCrashChild()
		return
	}
	if testing.Short() {
		t.Skip("subprocess crash test skipped in -short")
	}
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT)`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestWALCrashSIGKILL")
	cmd.Env = append(os.Environ(), "SCIQL_WAL_CRASH_CHILD="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const wantAcks = 10
	acked := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "committed ") {
			acked++
			if acked >= wantAcks {
				break
			}
		}
	}
	if acked < wantAcks {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("child produced %d acks before exiting", acked)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no shutdown path runs
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, out)
	_ = cmd.Wait()

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("recovery after SIGKILL: %v", err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT COUNT(*), SUM(a), MAX(a) FROM t`)
	cnt, _ := r.Value(0, 0).AsInt()
	sum, _ := r.Value(0, 1).AsInt()
	max, _ := r.Value(0, 2).AsInt()
	if cnt < wantAcks {
		t.Fatalf("only %d rows survived, %d were acknowledged durable", cnt, wantAcks)
	}
	// An intact prefix 0..cnt-1: max and sum pin it exactly.
	if max != cnt-1 || sum != cnt*(cnt-1)/2 {
		t.Fatalf("recovered rows are not the prefix 0..%d: COUNT=%d SUM=%d MAX=%d", cnt-1, cnt, sum, max)
	}
}

// walCrashChild is the subprocess body: commit rows forever, ack each on
// stdout, and let the parent SIGKILL us whenever it pleases.
func walCrashChild() {
	dir := os.Getenv("SCIQL_WAL_CRASH_CHILD")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		fmt.Println("child open error:", err)
		os.Exit(1)
	}
	for i := 0; ; i++ {
		if _, err := db.Query(fmt.Sprintf("INSERT INTO t VALUES (%d)", i)); err != nil {
			fmt.Println("child insert error:", err)
			os.Exit(1)
		}
		fmt.Printf("committed %d\n", i)
		if i > 100000 {
			time.Sleep(time.Millisecond) // the parent has surely lost interest
		}
	}
}
