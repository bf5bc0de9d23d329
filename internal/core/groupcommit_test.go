package core

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/vfs"
)

// queueLen reports how many requests are waiting on the commit queue.
func queueLen(q *commitQueue) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.reqs)
}

// waitQueueLen polls until the commit queue holds at least n requests.
func waitQueueLen(t *testing.T, q *commitQueue, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for queueLen(q) < n {
		if time.Now().After(deadline) {
			t.Fatalf("commit queue reached %d requests, want %d", queueLen(q), n)
		}
		time.Sleep(time.Millisecond)
	}
}

// gateCommitLoop parks the commit loop before its next drain and returns
// the release function. Must be called while the queue is idle.
func gateCommitLoop(db *DB) func() {
	gate := make(chan struct{})
	db.commitQ.setGate(gate)
	return func() {
		db.commitQ.setGate(nil)
		close(gate)
	}
}

// TestGroupCommitAmortizesFsyncs: N writers parked behind the gate
// retire as one group — one fsync for all N commits.
func TestGroupCommitAmortizesFsyncs(t *testing.T) {
	db, _, _ := openFaulted(t, -1)
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)

	release := gateCommitLoop(db)
	commits0, syncs0 := db.CommitStats()
	const writers = 8
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Query(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		}(i)
	}
	waitQueueLen(t, db.commitQ, writers)
	release()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", i, err)
		}
	}
	commits1, syncs1 := db.CommitStats()
	if dc := commits1 - commits0; dc != writers {
		t.Fatalf("commits delta = %d, want %d", dc, writers)
	}
	if ds := syncs1 - syncs0; ds != 1 {
		t.Fatalf("syncs delta = %d, want 1: the gated group must share one fsync", ds)
	}
	r := db.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := r.Cols[0].Ints()[0]; got != writers {
		t.Fatalf("row count = %d, want %d", got, writers)
	}
}

// TestGroupCommitLeaderFaultFansOut (the leader's fault is every
// follower's fault): when the group fsync fails, all N waiters must get
// an ErrDegraded-consistent error — none may report success — and a
// reopen replays only the commits acked before the fault.
func TestGroupCommitLeaderFaultFansOut(t *testing.T) {
	for _, tc := range []struct {
		name string
		arm  func(fs *vfs.FailFS)
	}{
		{"fsync", func(fs *vfs.FailFS) {
			fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected group fsync failure"))
		}},
		{"short-write", func(fs *vfs.FailFS) {
			fs.ShortWriteOn("wal.log", 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, fs, dir := openFaulted(t, -1)
			db.MustQuery(`CREATE TABLE t (a INT)`)
			db.MustQuery(`INSERT INTO t VALUES (100)`) // acked before the fault

			release := gateCommitLoop(db)
			tc.arm(fs)
			const writers = 6
			var wg sync.WaitGroup
			errs := make([]error, writers)
			for i := 0; i < writers; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = db.Query(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
				}(i)
			}
			waitQueueLen(t, db.commitQ, writers)
			release()
			wg.Wait()

			for i, err := range errs {
				if err == nil {
					t.Fatalf("writer %d reported success; the group fsync failed", i)
				}
				if !errors.Is(err, ErrDegraded) {
					t.Fatalf("writer %d: %v, want ErrDegraded", i, err)
				}
				if !strings.Contains(err.Error(), "wal append") {
					t.Fatalf("writer %d error %v must carry the append cause", i, err)
				}
			}
			if db.Degraded() == nil {
				t.Fatal("degraded mode must latch after a group append failure")
			}
			// Later writes are refused by the latch, not half-applied.
			if _, err := db.Query(`INSERT INTO t VALUES (200)`); !errors.Is(err, ErrDegraded) {
				t.Fatalf("write after group fault = %v, want ErrDegraded", err)
			}

			// Crash-reopen (no Close: a final checkpoint would fold the
			// unacked effects): replay is exactly the acked commits.
			db2, err := OpenDB(dir, OpenOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			r := db2.MustQuery(`SELECT COUNT(*) FROM t`)
			if got := r.Cols[0].Ints()[0]; got != 1 {
				t.Fatalf("replayed %d rows, want 1 (only the acked insert)", got)
			}
		})
	}
}

// TestGroupCommitStuckAfterFault: commits that were already queued when
// the group append failed must fail too, not land in a log with a hole
// before them.
func TestGroupCommitStuckAfterFault(t *testing.T) {
	db, fs, _ := openFaulted(t, -1)
	// Two groups' worth of writers pile up behind the gate; shrink the
	// group size so they retire as two appends. The commit loop reads the
	// size without the lock, so set it before the first commit: the queue
	// hand-off orders this write before the loop's first read.
	db.mu.Lock()
	db.commitGroup = 2
	db.mu.Unlock()
	db.MustQuery(`CREATE TABLE t (a INT)`)

	release := gateCommitLoop(db)
	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected"))
	const writers = 4
	var wg sync.WaitGroup
	errs := make([]error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = db.Query(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
		}(i)
	}
	waitQueueLen(t, db.commitQ, writers)
	release()
	wg.Wait()
	// The first group of 2 hits the fsync fault; the second group must
	// fail with the same sticky cause even though its own fsync would
	// have succeeded.
	for i, err := range errs {
		if !errors.Is(err, ErrDegraded) {
			t.Fatalf("writer %d: %v, want ErrDegraded (sticky group failure)", i, err)
		}
	}
	// A successful Save re-converges and clears the stickiness.
	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if _, err := db.Query(`INSERT INTO t VALUES (9)`); err != nil {
		t.Fatalf("write after Save: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestGroupCommitSaveBarrier: Save routes through the commit queue as a
// barrier — it folds everything queued before it and resets the log.
func TestGroupCommitSaveBarrier(t *testing.T) {
	db, _, dir := openFaulted(t, -1)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	for i := 0; i < 10; i++ {
		db.MustQuery(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	if err := db.Save(); err != nil {
		t.Fatalf("Save: %v", err)
	}
	if got := db.WALSize(); got > 64 {
		t.Fatalf("WAL size after Save = %d, want a fresh (near-empty) log", got)
	}
	db.MustQuery(`INSERT INTO t VALUES (10)`)
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := r.Cols[0].Ints()[0]; got != 11 {
		t.Fatalf("row count after reopen = %d, want 11", got)
	}
}

// TestGroupCommitBackgroundCheckpoint: once the log outgrows the
// threshold the loop checkpoints off the commit path; committers never
// see the fold, and the state survives reopen.
func TestGroupCommitBackgroundCheckpoint(t *testing.T) {
	db, _, dir := openFaulted(t, 512)
	db.MustQuery(`CREATE TABLE t (a INT)`)
	for i := 0; i < 200; i++ {
		db.MustQuery(fmt.Sprintf("INSERT INTO t VALUES (%d)", i))
	}
	// The background checkpoint runs on the loop after a drain; give it
	// a moment to fold the oversized log.
	deadline := time.Now().Add(5 * time.Second)
	for db.WALSize() > 512 {
		if time.Now().After(deadline) {
			t.Fatalf("WAL never checkpointed below the threshold: %d bytes", db.WALSize())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db2.Close()
	r := db2.MustQuery(`SELECT COUNT(*) FROM t`)
	if got := r.Cols[0].Ints()[0]; got != 200 {
		t.Fatalf("row count after reopen = %d, want 200", got)
	}
}
