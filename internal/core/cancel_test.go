package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/mal"
)

// bigJoinDB builds an in-memory database with two n-row tables sharing a
// key domain, so a join between them is expensive enough to cancel
// mid-kernel.
func bigJoinDB(tb testing.TB, n int) *DB {
	tb.Helper()
	db := New()
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY seq (i INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, n))
	db.MustQuery(`CREATE TABLE l (a INT)`)
	db.MustQuery(`CREATE TABLE r (a INT)`)
	db.MustQuery(`INSERT INTO l SELECT i % 65536 FROM seq`)
	db.MustQuery(`INSERT INTO r SELECT i % 65536 FROM seq`)
	return db
}

const bigJoinQuery = `SELECT COUNT(*) FROM l JOIN r ON l.a = r.a`

func TestQueryContextPreCancelled(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, `SELECT a FROM t`); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestQueryContextBackgroundUnaffected(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (42)`)
	r, err := db.QueryContext(context.Background(), `SELECT a FROM t`)
	if err != nil || r.NumRows() != 1 {
		t.Fatalf("r = %v, err = %v", r, err)
	}
}

// TestCancelMidJoin is the tentpole latency bound: cancelling a running
// 1M-row join must return within one morsel — far under the query's full
// runtime, and absolutely under 50ms even on a loaded CI machine.
func TestCancelMidJoin(t *testing.T) {
	db := bigJoinDB(t, 1_000_000)
	cancelMidway(t, db, bigJoinQuery, bigJoinQuery)
}

// TestCancelInsertSelect: the query side of an INSERT ... SELECT runs
// under the statement's context too, so cancelling it mid-join returns
// within the same bound and writes nothing.
func TestCancelInsertSelect(t *testing.T) {
	db := bigJoinDB(t, 1_000_000)
	db.MustQuery(`CREATE TABLE t (n INT)`)
	cancelMidway(t, db, bigJoinQuery, `INSERT INTO t SELECT COUNT(*) FROM l JOIN r ON l.a = r.a`)
	if got := db.MustQuery(`SELECT COUNT(*) FROM t`).Value(0, 0).String(); got != "0" {
		t.Fatalf("cancelled INSERT left %s rows in its target", got)
	}
}

// TestCancelOrderBy: a sort polls the job too, so cancelling a 4M-row
// ORDER BY midway returns within the same bound.
func TestCancelOrderBy(t *testing.T) {
	db := bigJoinDB(t, 4_000_000)
	const q = `SELECT a FROM l ORDER BY a DESC`
	cancelMidway(t, db, q, q)
}

// cancelMidway runs stmt, whose work is the query work, cancels it a
// quarter of the way into work's uncancelled runtime, and requires
// context.Canceled back within 50ms.
func cancelMidway(t *testing.T, db *DB, work, stmt string) {
	t.Helper()
	// Baseline: the uncancelled work takes long enough that an instant
	// return below proves cancellation (not completion).
	t0 := time.Now()
	if _, err := db.Query(work); err != nil {
		t.Fatalf("baseline: %v", err)
	}
	full := time.Since(t0)

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	started := make(chan struct{})
	go func() {
		close(started)
		_, err := db.QueryContext(ctx, stmt)
		errc <- err
	}()
	<-started
	time.Sleep(full / 4) // let the work get well into its kernels
	tc := time.Now()
	cancel()
	select {
	case err := <-errc:
		lat := time.Since(tc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if lat > 50*time.Millisecond {
			t.Fatalf("cancellation latency %v, want < 50ms (full work: %v)", lat, full)
		}
		t.Logf("cancel latency %v (full work %v)", lat, full)
	case <-time.After(10 * time.Second):
		t.Fatal("cancelled query never returned")
	}
}

// heavyPred is a residual predicate of sixteen whole-column kernels over
// the integer column c that matches about one row in 133 331.
func heavyPred(c string) string {
	return fmt.Sprintf(`(%[1]s * 7 + 3) %% 11 + (%[1]s * 13 + 5) %% 17 + (%[1]s * 19 + 7) %% 23 + (%[1]s * 29 + 11) %% 31 = 0`, c)
}

// TestCancelUpdate: an UPDATE's selection and SET values run as a MAL
// program under the statement's context, so cancelling it mid-kernel
// over a 2^20-cell array returns within the query bound, with the array
// and the log untouched.
func TestCancelUpdate(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, _ func() *DB) {
		db.MustQuery(`CREATE ARRAY big (i INT DIMENSION[0:1:1048576], v INT DEFAULT 0)`)
		interruptWrite(t, db, context.Canceled,
			`UPDATE big SET v = i WHERE `+heavyPred("i"),
			`SELECT COUNT(*) FROM big WHERE `+heavyPred("i"),
			`SELECT COUNT(v), SUM(v) FROM big`)
	})
}

// TestDeadlineDelete: a DELETE over a 1M-row table whose deadline expires
// mid-kernel returns DeadlineExceeded within the bound, with the rows and
// the log untouched.
func TestDeadlineDelete(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, _ func() *DB) {
		db.MustQuery(`CREATE ARRAY seq (i INT DIMENSION[0:1:1000000], v INT DEFAULT 0)`)
		db.MustQuery(`CREATE TABLE t (a INT)`)
		// Eight INSERTs of 125 000 rows each keep the load's row buffers small.
		for lo := 0; lo < 1_000_000; lo += 125_000 {
			db.MustQuery(fmt.Sprintf(`INSERT INTO t SELECT i FROM seq WHERE i >= %d AND i < %d`, lo, lo+125_000))
		}
		interruptWrite(t, db, context.DeadlineExceeded,
			`DELETE FROM t WHERE `+heavyPred("a"),
			`SELECT COUNT(*) FROM t WHERE `+heavyPred("a"),
			`SELECT COUNT(*), SUM(a) FROM t`)
	})
}

// interruptWrite runs the write stmt, whose work is the query work's,
// and interrupts it a quarter of the way into the query's uninterrupted
// runtime: by cancelling (want context.Canceled) or by a deadline (want
// context.DeadlineExceeded). The error must come back within 50ms, and
// probe's answer and the WAL size must be what they were.
func interruptWrite(t *testing.T, db *DB, want error, stmt, work, probe string) {
	t.Helper()
	t0 := time.Now()
	db.MustQuery(work)
	full := time.Since(t0)
	before, walBefore := db.MustQuery(probe).String(), db.WALSize()

	ctx, cancel := context.WithCancel(context.Background())
	if want == context.DeadlineExceeded {
		ctx, cancel = context.WithTimeout(context.Background(), full/4)
	}
	defer cancel()
	tc := time.Now().Add(full / 4)
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, stmt)
		errc <- err
	}()
	if want == context.Canceled {
		time.Sleep(full / 4)
		tc = time.Now()
		cancel()
	}
	select {
	case err := <-errc:
		lat := time.Since(tc)
		if !errors.Is(err, want) {
			t.Fatalf("err = %v, want %v", err, want)
		}
		if lat > 50*time.Millisecond {
			t.Fatalf("interrupt latency %v, want < 50ms (full work: %v)", lat, full)
		}
		t.Logf("interrupt latency %v (full work %v)", lat, full)
	case <-time.After(10 * time.Second):
		t.Fatal("interrupted write never returned")
	}
	if got := db.WALSize(); got != walBefore {
		t.Fatalf("interrupted write grew the WAL from %d to %d bytes", walBefore, got)
	}
	if got := db.MustQuery(probe).String(); got != before {
		t.Fatalf("interrupted write changed the data:\n%s\nwant:\n%s", got, before)
	}
}

func TestDeadlineExceededMidQuery(t *testing.T) {
	db := bigJoinDB(t, 300_000)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := db.QueryContext(ctx, bigJoinQuery)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
}

// TestCancelBetweenStatements: a batch stops at the statement boundary
// once its context dies; completed statements stay applied.
func TestCancelBetweenStatements(t *testing.T) {
	db := New()
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := execWith(db, `CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t; SELECT a FROM t`, func() *stmt {
		q := db.session.newStmt(ctx)
		q.hook = func(in *mal.Instr) {
			// The first interpreted instruction (the first SELECT's) pulls
			// the plug; the already-committed CREATE/INSERT must survive.
			cancel()
		}
		return q
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(rs) >= 4 {
		t.Fatalf("cancelled batch returned %d results, want fewer than 4", len(rs))
	}
	r := db.MustQuery(`SELECT a FROM t`)
	if r.NumRows() != 1 {
		t.Fatalf("committed prefix lost: %d rows", r.NumRows())
	}
}

// TestCancelDoesNotPoison: after a cancelled query the session and the
// engine keep working.
func TestCancelDoesNotPoison(t *testing.T) {
	db := bigJoinDB(t, 200_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.QueryContext(ctx, bigJoinQuery); err == nil {
		t.Fatal("expected error from cancelled query")
	}
	r, err := db.Query(`SELECT COUNT(*) FROM l`)
	if err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
	if got := strings.TrimSpace(r.String()); !strings.Contains(got, "200000") {
		t.Fatalf("follow-up result = %q, want 200000 rows counted", got)
	}
}

// TestCancelLatencyAt10M is the paper-grade bound from the issue: at 10M
// rows a mid-join cancel still returns within one morsel (< 50ms). The
// build is heavy, so it is skipped in -short runs.
func TestCancelLatencyAt10M(t *testing.T) {
	if testing.Short() {
		t.Skip("10M-row fixture is slow; run without -short")
	}
	db := bigJoinDB(t, 10_000_000)
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, bigJoinQuery)
		errc <- err
	}()
	time.Sleep(100 * time.Millisecond) // well inside the kernels
	tc := time.Now()
	cancel()
	select {
	case err := <-errc:
		lat := time.Since(tc)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if lat > 50*time.Millisecond {
			t.Fatalf("cancellation latency %v at 10M rows, want < 50ms", lat)
		}
		t.Logf("cancel latency %v at 10M rows", lat)
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled query never returned")
	}
}

// benchCancelLatency times only cancel()→return: each iteration starts
// the join and gives it a head start with the timer stopped, so ns/op is
// the abort latency itself.
func benchCancelLatency(b *testing.B, rows int) {
	db := bigJoinDB(b, rows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() {
			_, err := db.QueryContext(ctx, bigJoinQuery)
			errc <- err
		}()
		time.Sleep(50 * time.Millisecond) // well inside the join kernels
		b.StartTimer()
		cancel()
		err := <-errc
		b.StopTimer()
		if !errors.Is(err, context.Canceled) {
			b.Fatalf("err = %v, want context.Canceled", err)
		}
		b.StartTimer()
	}
}

func BenchmarkCancelLatency1M(b *testing.B)  { benchCancelLatency(b, 1_000_000) }
func BenchmarkCancelLatency10M(b *testing.B) { benchCancelLatency(b, 10_000_000) }

// TestCancellableContextSamePlan: a query whose context can be cancelled
// runs the same plans as one whose context cannot. It gets the same bytes
// back and makes the same allocations (within 10%), for a grouped
// aggregate and a filtered count over 2^19 rows.
func TestCancellableContextSamePlan(t *testing.T) {
	db := New()
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY seq (i INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, 1<<19))
	db.MustQuery(`CREATE TABLE t (g INT, v DOUBLE)`)
	db.MustQuery(`INSERT INTO t SELECT i % 64, CAST((i * 7919) % 100003 AS DOUBLE) / 7 FROM seq`)
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, q := range []string{
		`SELECT g, SUM(v), MIN(v) FROM t GROUP BY g`,
		`SELECT COUNT(*) FROM t WHERE v < 5000 AND g > 3`,
	} {
		var out [2]string
		var allocs [2]float64
		for i, ctx := range []context.Context{context.Background(), live} {
			run := func() {
				r, err := db.QueryContext(ctx, q)
				if err != nil {
					t.Fatalf("%s: %v", q, err)
				}
				out[i] = r.String()
			}
			allocs[i] = testing.AllocsPerRun(3, run)
		}
		if out[0] != out[1] {
			t.Errorf("%s: a cancellable context changed the result:\n%s\nwant:\n%s", q, out[1], out[0])
		}
		if d := allocs[1] - allocs[0]; d > allocs[0]/10 || -d > allocs[0]/10 {
			t.Errorf("%s: %.0f allocations with a cancellable context, %.0f without", q, allocs[1], allocs[0])
		}
		t.Logf("%s: %.0f allocations with a cancellable context, %.0f without", q, allocs[1], allocs[0])
	}
}
