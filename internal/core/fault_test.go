package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/vfs"
)

// openFaulted opens a fresh directory-backed database over a FailFS with
// no faults armed yet.
func openFaulted(t *testing.T, ckptBytes int64) (*DB, *vfs.FailFS, string) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	fs := vfs.NewFailFS(nil)
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: ckptBytes, FS: fs})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	return db, fs, dir
}

// TestFaultWALFsync: an injected fsync failure on the WAL latches
// read-only degraded mode; reads keep serving, writes fail with
// ErrDegraded, and a successful Save clears it.
func TestFaultWALFsync(t *testing.T) {
	db, fs, _ := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)

	boom := errors.New("injected fsync failure")
	fs.FailOn(vfs.OpSync, "wal.log", 1, boom)
	_, err := db.Query(`INSERT INTO t VALUES (2)`)
	if err == nil || !strings.Contains(err.Error(), "wal append") {
		t.Fatalf("err = %v, want a wal append failure", err)
	}
	if db.Degraded() == nil {
		t.Fatal("degraded mode must latch after a WAL append failure")
	}

	// Reads still serve the last snapshot.
	if _, rerr := db.Query(`SELECT COUNT(*) FROM t`); rerr != nil {
		t.Fatalf("read in degraded mode: %v", rerr)
	}

	// Writes fail with the sentinel, without touching storage.
	if _, werr := db.Query(`INSERT INTO t VALUES (3)`); !errors.Is(werr, ErrDegraded) {
		t.Fatalf("write in degraded mode = %v, want ErrDegraded", werr)
	}

	// An explicit Save re-converges disk with memory and clears the latch.
	if serr := db.Save(); serr != nil {
		t.Fatalf("Save: %v", serr)
	}
	if db.Degraded() != nil {
		t.Fatalf("degraded must clear after a successful checkpoint: %v", db.Degraded())
	}
	if _, werr := db.Query(`INSERT INTO t VALUES (4)`); werr != nil {
		t.Fatalf("write after recovery: %v", werr)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestFaultWALShortWrite: a short write (disk full mid-record) on the
// WAL is a durability failure like a failed fsync.
func TestFaultWALShortWrite(t *testing.T) {
	db, fs, _ := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	fs.ShortWriteOn("wal.log", 1)
	if _, err := db.Query(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("short WAL write must fail the statement")
	}
	if db.Degraded() == nil {
		t.Fatal("degraded mode must latch after a short WAL write")
	}
	_ = db.Close()
}

// TestFaultDegradedLatchesOnce: the first durability failure wins; later
// refused writes do not overwrite the cause.
func TestFaultDegradedLatchesOnce(t *testing.T) {
	db, fs, _ := openFaulted(t, -1)
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)

	first := errors.New("first failure")
	fs.FailOn(vfs.OpSync, "wal.log", 1, first)
	if _, err := db.Query(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("expected injected failure")
	}
	cause := db.Degraded()
	if cause == nil || !strings.Contains(cause.Error(), "first failure") {
		t.Fatalf("cause = %v, want the first failure", cause)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Query(`INSERT INTO t VALUES (9)`); !errors.Is(err, ErrDegraded) {
			t.Fatalf("refused write = %v, want ErrDegraded", err)
		}
	}
	if got := db.Degraded(); got == nil || got.Error() != cause.Error() {
		t.Fatalf("cause changed from %v to %v; must latch once", cause, got)
	}
}

// TestFaultReopenRecovers: after a WAL failure the unacked statement is
// lost by design; reopening replays exactly the acked commits and clears
// degraded mode.
func TestFaultReopenRecovers(t *testing.T) {
	db, fs, dir := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`) // acked

	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected"))
	if _, err := db.Query(`INSERT INTO t VALUES (2)`); err == nil { // not acked
		t.Fatal("expected injected failure")
	}
	// Crash without Close: the failed statement's in-memory effects must
	// not be checkpointed.
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if db2.Degraded() != nil {
		t.Fatalf("reopen must clear degraded mode: %v", db2.Degraded())
	}
	r := db2.MustQuery(`SELECT a FROM t ORDER BY a`)
	if r.NumRows() != 1 {
		t.Fatalf("reopened store has %d rows, want exactly the acked commit (1)", r.NumRows())
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("integrity: %v", err)
	}
}

// TestFaultCheckpointRename: a failed manifest rename during checkpoint
// latches degraded mode, a clean retry (Save) recovers, and the data
// survives a reopen.
func TestFaultCheckpointRename(t *testing.T) {
	db, fs, dir := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)

	fs.FailOn(vfs.OpRename, "catalog.json", 1, errors.New("injected rename failure"))
	if err := db.Save(); err == nil {
		t.Fatal("checkpoint with failing rename must error")
	}
	if db.Degraded() == nil {
		t.Fatal("degraded mode must latch after a checkpoint failure")
	}
	if err := db.Save(); err != nil { // fault spent: retry succeeds
		t.Fatalf("retry Save: %v", err)
	}
	if db.Degraded() != nil {
		t.Fatalf("degraded must clear: %v", db.Degraded())
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	if got := db2.MustQuery(`SELECT COUNT(*) FROM t`).String(); !strings.Contains(got, "1") {
		t.Fatalf("count after reopen = %q", got)
	}
}

// TestFaultSegmentENOSPC: a segment write failing with ENOSPC during a
// checkpoint degrades the engine but loses nothing: the old manifest and
// the WAL still cover every acked commit.
func TestFaultSegmentENOSPC(t *testing.T) {
	db, fs, dir := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	for i := 0; i < 5; i++ {
		db.MustQuery(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, i))
	}
	fs.ShortWriteOn(".bat", 1) // first segment write hits disk-full
	if err := db.Save(); err == nil {
		t.Fatal("checkpoint with failing segment write must error")
	}
	if db.Degraded() == nil {
		t.Fatal("degraded mode must latch")
	}
	// Crash-reopen: manifest untouched, WAL replay restores all 5 rows.
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := r.String(); !strings.Contains(got, "5") {
		t.Fatalf("count after reopen = %q, want 5", got)
	}
}

// TestFaultOpenTxnNotDegrading: guard-clause failures (checkpoint inside
// a transaction) are usage errors, not durability failures, and must not
// latch degraded mode.
func TestFaultOpenTxnNotDegrading(t *testing.T) {
	db, _, _ := openFaulted(t, -1)
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	s := db.NewSession()
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if err := db.Save(); err == nil {
		t.Fatal("Save inside a transaction must error")
	}
	if db.Degraded() != nil {
		t.Fatalf("guard-clause error latched degraded mode: %v", db.Degraded())
	}
	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
}

// TestFaultRollbackWhileDegraded: a transaction opened while another
// session's autocommit write waits for its fsync is still rolled back
// after that fsync fails and latches degraded mode. ROLLBACK writes
// nothing to disk, so degraded mode does not refuse it; the rollback lets
// Save run, and Save clears the latch so writes work again.
func TestFaultRollbackWhileDegraded(t *testing.T) {
	db, fs, _ := openFaulted(t, -1)
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)

	release := gateCommitLoop(db)
	writeErr := make(chan error, 1)
	go func() {
		_, err := db.Query(`INSERT INTO t VALUES (1)`)
		writeErr <- err
	}()
	waitQueueLen(t, db.commitQ, 1)
	s := db.NewSession()
	if _, err := s.Exec(`BEGIN`); err != nil {
		t.Fatalf("BEGIN: %v", err)
	}
	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected fsync failure"))
	release()
	if err := <-writeErr; !errors.Is(err, ErrDegraded) {
		t.Fatalf("gated write = %v, want ErrDegraded", err)
	}

	if _, err := s.Exec(`ROLLBACK`); err != nil {
		t.Fatalf("ROLLBACK while degraded: %v", err)
	}
	if s.InTransaction() {
		t.Fatal("the session still holds its transaction after ROLLBACK")
	}
	for _, q := range []string{`BEGIN`, `COMMIT`} {
		if _, err := s.Exec(q); !errors.Is(err, ErrDegraded) {
			t.Fatalf("%s while degraded = %v, want ErrDegraded", q, err)
		}
	}
	if err := db.Save(); err != nil {
		t.Fatalf("Save after ROLLBACK: %v", err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
}
