package core

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/vfs"
)

// chaosOutcome records what each writer statement was told: acked means
// the engine returned nil, failed means it returned an error (injected
// fault or the degraded refusal that follows).
type chaosOutcome struct {
	mu     sync.Mutex
	acked  map[int64]bool
	failed map[int64]bool
}

func (o *chaosOutcome) record(v int64, err error) {
	o.mu.Lock()
	if err == nil {
		o.acked[v] = true
	} else {
		o.failed[v] = true
	}
	o.mu.Unlock()
}

// runChaos drives concurrent readers and writers against a FailFS-backed
// store, arms the given fault mid-run, and checks the issue's invariants:
// reads never fail, degraded latches exactly once, post-latch writes
// return ErrDegraded, and a crash-reopen yields every acked commit and
// nothing that was neither acked nor explicitly reported failed.
func runChaos(t *testing.T, name string, ckptBytes int64, arm func(fs *vfs.FailFS)) {
	t.Helper()
	// Leak check: the whole workload (writers, readers, cancelled and
	// refused statements) must release its goroutines. The slack absorbs
	// lazily started process-wide par pool workers.
	baseGoroutines := runtime.NumGoroutine() + 4
	defer func() {
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > baseGoroutines {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				m := runtime.Stack(buf, true)
				t.Fatalf("%s leaked goroutines: %d live, want <= %d\n%s",
					name, runtime.NumGoroutine(), baseGoroutines, buf[:m])
			}
			time.Sleep(50 * time.Millisecond)
		}
	}()
	dir := filepath.Join(t.TempDir(), "db")
	fs := vfs.NewFailFS(nil)
	db, err := OpenDB(dir, OpenOptions{CheckpointBytes: ckptBytes, FS: fs})
	if err != nil {
		t.Fatalf("OpenDB: %v", err)
	}
	db.MustQuery(`CREATE TABLE kv (a INT)`)

	const (
		writers   = 4
		perWriter = 60
		readers   = 2
	)
	out := &chaosOutcome{acked: map[int64]bool{}, failed: map[int64]bool{}}
	var (
		wg        sync.WaitGroup // writers
		rg        sync.WaitGroup // readers
		readErr   atomic.Pointer[error]
		stopRead  atomic.Bool
		sawRefuse atomic.Int64
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.NewSession()
			for i := 0; i < perWriter; i++ {
				v := int64(w)*1_000_000 + int64(i)
				_, werr := s.Exec(fmt.Sprintf(`INSERT INTO kv VALUES (%d)`, v))
				out.record(v, werr)
				if errors.Is(werr, ErrDegraded) {
					sawRefuse.Add(1)
				}
				if w == 0 && i == perWriter/3 {
					arm(fs) // pull the plug mid-workload
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for !stopRead.Load() {
				if _, rerr := db.Query(`SELECT COUNT(*) FROM kv`); rerr != nil {
					readErr.Store(&rerr)
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Wait for writers, then stop the readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("chaos workload wedged")
	}
	stopRead.Store(true)
	rg.Wait()

	if p := readErr.Load(); p != nil {
		t.Fatalf("%s: read failed during chaos: %v", name, *p)
	}
	cause := db.Degraded()
	if cause == nil {
		t.Fatalf("%s: injected fault never latched degraded mode", name)
	}
	// Latch is sticky and first-cause-wins: hammer a few more writes and
	// re-read the cause.
	for i := 0; i < 3; i++ {
		if _, werr := db.Query(`INSERT INTO kv VALUES (-1)`); !errors.Is(werr, ErrDegraded) {
			t.Fatalf("%s: post-latch write = %v, want ErrDegraded", name, werr)
		}
	}
	if got := db.Degraded(); got.Error() != cause.Error() {
		t.Fatalf("%s: degraded cause drifted from %q to %q", name, cause, got)
	}
	if _, rerr := db.Query(`SELECT COUNT(*) FROM kv`); rerr != nil {
		t.Fatalf("%s: read after latch: %v", name, rerr)
	}

	// Crash-reopen (no Close: the unacked in-memory effects must not be
	// flushed) and compare against the acknowledgement record.
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("%s: reopen: %v", name, err)
	}
	defer db2.Close()
	if db2.Degraded() != nil {
		t.Fatalf("%s: reopen must clear degraded mode: %v", name, db2.Degraded())
	}
	if err := db2.CheckIntegrity(); err != nil {
		t.Fatalf("%s: integrity after reopen: %v", name, err)
	}
	r := db2.MustQuery(`SELECT a FROM kv ORDER BY a`)
	present := map[int64]bool{}
	for i := 0; i < r.NumRows(); i++ {
		present[r.Value(i, 0).Int64()] = true
	}
	out.mu.Lock()
	defer out.mu.Unlock()
	for v := range out.acked {
		if !present[v] {
			t.Errorf("%s: acked commit %d missing after reopen", name, v)
		}
	}
	for v := range present {
		if !out.acked[v] && !out.failed[v] {
			t.Errorf("%s: reopened store holds %d, which was never submitted", name, v)
		}
	}
	t.Logf("%s: acked=%d failed=%d present=%d refused=%d cause=%v",
		name, len(out.acked), len(out.failed), len(present), sawRefuse.Load(), cause)
}

// TestChaosWALFsync: fsync failure on the WAL under a concurrent
// read/write workload.
func TestChaosWALFsync(t *testing.T) {
	runChaos(t, "wal-fsync", -1, func(fs *vfs.FailFS) {
		fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("chaos: fsync"))
	})
}

// TestChaosWALShortWrite: disk-full mid-record with frequent checkpoints
// (tiny threshold) racing the writers.
func TestChaosWALShortWrite(t *testing.T) {
	runChaos(t, "wal-shortwrite", 256, func(fs *vfs.FailFS) {
		fs.ShortWriteOn("wal.log", 1)
	})
}

// TestChaosManifestRename: the checkpoint's manifest rename fails while
// checkpoints are being triggered by the workload itself.
func TestChaosManifestRename(t *testing.T) {
	runChaos(t, "manifest-rename", 256, func(fs *vfs.FailFS) {
		fs.FailOn(vfs.OpRename, "catalog.json", 1, errors.New("chaos: rename"))
	})
}

// TestChaosSegmentWrite: a segment write fails with ENOSPC inside an
// auto-checkpoint.
func TestChaosSegmentWrite(t *testing.T) {
	runChaos(t, "segment-enospc", 256, func(fs *vfs.FailFS) {
		fs.ShortWriteOn(".bat", 1)
	})
}

// TestAutoCheckpointKeepsAppendLatch fails the WAL append the background
// size-triggered checkpoint makes for commits queued behind the drained
// group. The database must stay degraded, and a Save barrier taken from
// the queue must get the degraded error: checkpointing after the failed
// append would persist the failed commit's effects and lift the latch
// (the "never latched degraded mode" flake of TestChaosWALShortWrite).
func TestAutoCheckpointKeepsAppendLatch(t *testing.T) {
	fs := vfs.NewFailFS(nil)
	db, err := OpenDB(filepath.Join(t.TempDir(), "db"), OpenOptions{CheckpointBytes: 1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE kv (a INT)`)
	// Take the log from the commit loop and hand the background
	// checkpoint a queue holding one commit and one barrier.
	db.stopCommitLoop()
	q := &commitQueue{notify: make(chan struct{}, 1)}
	commit := &commitReq{batch: []byte("commit"), done: make(chan error, 1)}
	barrier := &commitReq{ckpt: true, done: make(chan error, 1)}
	for _, r := range []*commitReq{commit, barrier} {
		if err := q.enqueue(r); err != nil {
			t.Fatal(err)
		}
	}
	fs.ShortWriteOn("wal.log", 1)
	db.checkpointOnLoop(q, nil, nil, false)
	if err := <-commit.done; !errors.Is(err, ErrDegraded) {
		t.Fatalf("commit = %v, want ErrDegraded", err)
	}
	if err := <-barrier.done; !errors.Is(err, ErrDegraded) {
		t.Fatalf("barrier = %v, want ErrDegraded", err)
	}
	if db.Degraded() == nil {
		t.Fatal("the background checkpoint lifted the degraded latch")
	}
}
