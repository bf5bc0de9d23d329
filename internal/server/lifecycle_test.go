package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/server/client"
	"repro/internal/vfs"
)

// startServerOn boots a server over an existing database.
func startServerOn(t *testing.T, db *core.DB, cfg Config) (*Server, *client.Client) {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	srv := New(db, cfg)
	if err := srv.Start(); err != nil {
		t.Fatalf("start: %v", err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, client.New(srv.Addr().String())
}

// slowJoinDB builds tables whose join runs for seconds, so tests can
// observe the server with a statement reliably in flight.
func slowJoinDB(t *testing.T, n int) *core.DB {
	t.Helper()
	db := core.New()
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY seq (i INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, n))
	db.MustQuery(`CREATE TABLE l (a INT)`)
	db.MustQuery(`CREATE TABLE r (a INT)`)
	db.MustQuery(`INSERT INTO l SELECT i % 65536 FROM seq`)
	db.MustQuery(`INSERT INTO r SELECT i % 65536 FROM seq`)
	return db
}

const slowJoin = `SELECT COUNT(*) FROM l JOIN r ON l.a = r.a`

// waitInFlight blocks until the server has an executing statement.
func waitInFlight(t *testing.T, srv *Server) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for len(srv.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("statement never started executing")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestDrainLetsInFlightFinish: SIGTERM semantics — a draining server
// refuses new statements on both protocols and reports "draining" on
// healthz, while the statement already executing runs to completion.
func TestDrainLetsInFlightFinish(t *testing.T) {
	db := slowJoinDB(t, 1_000_000)
	srv, c := startServerOn(t, db, Config{})

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Query(slowJoin)
		inflight <- err
	}()
	waitInFlight(t, srv)

	drainDone := make(chan error, 1)
	dctx, dcancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer dcancel()
	go func() { drainDone <- srv.Drain(dctx) }()
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}

	// New HTTP work is refused with 503.
	other := client.New(srv.Addr().String())
	if _, err := other.Query(`SELECT 1`); err == nil ||
		!strings.Contains(err.Error(), "shutting down") {
		t.Fatalf("query during drain = %v, want shutting-down refusal", err)
	}
	// healthz reports draining (and 503s for probes).
	if h, err := other.Health(); err != nil || h.Status != "draining" {
		t.Fatalf("healthz during drain = %+v, %v; want status draining", h, err)
	}
	// New text statements are refused in-band.
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	fmt.Fprintf(conn, "SELECT 1\n")
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.Contains(line, "shutting down") {
		t.Fatalf("text during drain = %q, %v; want shutting-down error", line, err)
	}
	_ = conn.Close()

	// The in-flight statement finishes successfully; then drain completes.
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight statement killed by drain: %v", err)
	}
	select {
	case err := <-drainDone:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain never completed")
	}
}

// TestCloseCancelsInFlightText: a forced Close (drain deadline passed)
// must not wait behind a long statement on a text connection — the
// statement's context is cancelled with the connection.
func TestCloseCancelsInFlightText(t *testing.T) {
	db := slowJoinDB(t, 2_000_000)
	srv, _ := startServerOn(t, db, Config{})

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "%s\n", slowJoin)
	waitInFlight(t, srv)

	t0 := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if d := time.Since(t0); d > 3*time.Second {
		t.Fatalf("Close took %v waiting behind a cancellable statement", d)
	}
}

// TestHealthzDegraded: a durability failure flips healthz to
// "degraded" with the latched cause; reads keep working, writes are
// refused, and recovery (a clean checkpoint) restores "ok".
func TestHealthzDegraded(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	fs := vfs.NewFailFS(nil)
	db, err := core.OpenDB(dir, core.OpenOptions{CheckpointBytes: -1, FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1)`)
	_, c := startServerOn(t, db, Config{})

	fs.FailOn(vfs.OpSync, "wal.log", 1, errors.New("injected"))
	if _, err := c.Exec(`INSERT INTO t VALUES (2)`); err == nil {
		t.Fatal("write with failing WAL must error")
	}
	h, err := c.Health()
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "degraded" || !strings.Contains(h.Cause, "wal append") {
		t.Fatalf("healthz = %+v, want degraded with wal-append cause", h)
	}
	// Reads still served; writes refused with the read-only error.
	if _, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatalf("read while degraded: %v", err)
	}
	if _, err := c.Exec(`INSERT INTO t VALUES (3)`); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("write while degraded = %v, want read-only refusal", err)
	}
	// Operator action: a successful checkpoint clears the latch.
	if err := db.Save(); err != nil {
		t.Fatal(err)
	}
	if h, err := c.Health(); err != nil || h.Status != "ok" {
		t.Fatalf("healthz after recovery = %+v, %v; want ok", h, err)
	}
}

// TestClientRetries503: the client retry policy rides out transient 503s
// (draining/overloaded) on read-only batches and gives up immediately on
// writes, which could double-apply.
func TestClientRetries503(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		if n <= 2 {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, `{"error":"server is shutting down"}`)
			return
		}
		fmt.Fprintf(w, `{"results":[{"rendered":"ok"}]}`)
	}))
	defer ts.Close()

	c := client.New(strings.TrimPrefix(ts.URL, "http://"))
	c.SetRetry(client.RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond})
	rs, err := c.Exec(`SELECT 1`)
	if err != nil || len(rs) != 1 {
		t.Fatalf("retried read = %v, %v; want success", rs, err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3 (two 503s, one success)", got)
	}

	// A write is never retried: one attempt, error surfaced.
	attempts.Store(0)
	if _, err := c.Exec(`INSERT INTO t VALUES (1)`); err == nil {
		t.Fatal("503 write must fail")
	}
	if got := attempts.Load(); got != 1 {
		t.Fatalf("write attempts = %d, want 1 (no retry of writes)", got)
	}
}

// TestClientRetryExhausted: when every attempt 503s, the client stops at
// MaxAttempts and reports the refusal.
func TestClientRetryExhausted(t *testing.T) {
	var attempts atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		attempts.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, `{"error":"server overloaded"}`)
	}))
	defer ts.Close()
	c := client.New(strings.TrimPrefix(ts.URL, "http://"))
	c.SetRetry(client.RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond})
	if _, err := c.Exec(`SELECT 1`); err == nil || !strings.Contains(err.Error(), "overloaded") {
		t.Fatalf("err = %v, want overloaded", err)
	}
	if got := attempts.Load(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
}

// waitGoroutinesAtMost fails the test if the goroutine count does not
// come back down to limit within the deadline (stdlib-only leak check).
func waitGoroutinesAtMost(t *testing.T, limit int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= limit {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d live, want <= %d\n%s", n, limit, buf[:m])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestNoGoroutineLeakAfterStress: a full server lifecycle — HTTP and
// text clients, sessions, forced close — returns the process to its
// baseline goroutine count.
func TestNoGoroutineLeakAfterStress(t *testing.T) {
	// Warm up process-wide pools (par workers, HTTP transport) so they do
	// not count as leaks of the measured lifecycle.
	{
		db := core.New()
		srv, c := startServerOn(t, db, Config{})
		_, _ = c.Exec(`CREATE TABLE w (a INT); INSERT INTO w VALUES (1); SELECT COUNT(*) FROM w`)
		_ = srv.Close()
	}
	waitGoroutinesAtMost(t, runtime.NumGoroutine(), time.Second) // settle
	base := runtime.NumGoroutine() + 4

	db := core.New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	srv, c := startServerOn(t, db, Config{})
	for i := 0; i < 3; i++ {
		cc := client.New(srv.Addr().String())
		if err := cc.NewSession(); err != nil {
			t.Fatal(err)
		}
		if _, err := cc.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d); SELECT COUNT(*) FROM t`, i)); err != nil {
			t.Fatal(err)
		}
		// Sessions deliberately left open: Close must reap them.
	}
	for i := 0; i < 3; i++ {
		conn, err := net.Dial("tcp", srv.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "SELECT COUNT(*) FROM t\n")
		br := bufio.NewReader(conn)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("text read: %v", err)
			}
			if line == ".\n" {
				break
			}
		}
		// Connections deliberately left open: Close must tear them down.
	}
	if _, err := c.Query(`SELECT COUNT(*) FROM t`); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitGoroutinesAtMost(t, base, 10*time.Second)
}
