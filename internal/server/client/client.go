// Package client is a small Go client for the sciqld HTTP/JSON protocol.
// It is used by the end-to-end test suites and the examples; external
// programs can speak the same three endpoints with any HTTP library.
package client

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"time"
)

// Result is one statement result as received from the server.
type Result struct {
	Names    []string `json:"names,omitempty"`
	Kinds    []string `json:"kinds,omitempty"`
	Rows     Rows     `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
	Text     string   `json:"text,omitempty"`
	Rendered string   `json:"rendered"`
}

// Health is the healthz report. Status is "ok", "degraded" (engine is
// read-only after a durability failure; Cause carries the latched
// error) or "draining" (graceful shutdown in progress); the server
// answers non-ok states with HTTP 503.
type Health struct {
	Status   string `json:"status"`
	Cause    string `json:"cause,omitempty"`
	Sessions int    `json:"sessions"`
	Queries  int64  `json:"queries"`
	Rejected int64  `json:"rejected"`
	Workers  int    `json:"workers"`
	// Mode is the node's role: "primary", "replica" or "read-only" (the
	// -read-only flag). ReadOnly carries the policy reason when writes
	// are refused. Both are orthogonal to Status: a replica is healthy.
	Mode     string `json:"mode,omitempty"`
	ReadOnly string `json:"read_only,omitempty"`
	// WAL is the node's log position; on a replica, Replication carries
	// the tailer's lag against its primary.
	WAL         WALPos    `json:"wal"`
	Replication *ReplInfo `json:"replication,omitempty"`
}

// RetryPolicy bounds the client's automatic retries. A retry is
// attempted only for failures where the statement provably did not
// complete or is safe to repeat: connection errors (dial/reset) and
// HTTP 503 (overloaded, draining) — and only for read-only batches
// (every statement SELECT/EXPLAIN/PLAN) on an ephemeral session, since
// re-running a write or a transactional statement could double-apply
// it. Delays grow exponentially from BaseDelay, capped at MaxDelay,
// with ±50% jitter so a herd of restarting clients spreads out.
type RetryPolicy struct {
	MaxAttempts int           // total tries including the first; <= 1 disables retry
	BaseDelay   time.Duration // first backoff step (default 25ms)
	MaxDelay    time.Duration // backoff cap (default 1s)
}

// DefaultRetryPolicy suits riding out a graceful restart: 5 tries
// spanning roughly half a second plus jitter.
var DefaultRetryPolicy = RetryPolicy{MaxAttempts: 5, BaseDelay: 25 * time.Millisecond, MaxDelay: time.Second}

// Client talks to one sciqld server. The zero session value runs every
// batch on an ephemeral autocommit session; NewSession switches to a
// named server-side session (transactions). A Client
// is safe for concurrent use; concurrent queries on a *named* session
// serialise server-side.
type Client struct {
	base    string
	hc      *http.Client
	session string
	retry   RetryPolicy
}

// New returns a client for the server at addr ("host:port"). Retries
// are off by default; see SetRetry.
func New(addr string) *Client {
	return &Client{
		base: "http://" + addr,
		hc:   &http.Client{Timeout: 60 * time.Second},
	}
}

// SetRetry installs the retry policy (see RetryPolicy for what is and
// is not retried). Pass DefaultRetryPolicy to ride out graceful
// restarts, or a zero RetryPolicy to disable retries again.
func (c *Client) SetRetry(p RetryPolicy) { c.retry = p }

type queryRequest struct {
	Query   string `json:"query"`
	Session string `json:"session,omitempty"`
}

type queryResponse struct {
	Results []Result `json:"results,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// Exec runs a semicolon-separated batch, returning one result per
// completed statement. A statement error is returned alongside the
// results that preceded it. Under a RetryPolicy, connection errors and
// HTTP 503 on read-only ephemeral batches are retried with backoff.
func (c *Client) Exec(query string) ([]Result, error) {
	retryable := c.retry.MaxAttempts > 1 && c.session == "" && readOnlyBatch(query)
	var (
		rs     []Result
		status int
		err    error
	)
	for attempt := 0; ; attempt++ {
		rs, status, err = c.exec1(query)
		if err == nil || !retryable || attempt+1 >= c.retry.MaxAttempts || !retriableFailure(status, err) {
			return rs, err
		}
		time.Sleep(c.backoff(attempt))
	}
}

// exec1 performs one POST /query round trip. status is 0 when the
// request never produced an HTTP response (connection error).
func (c *Client) exec1(query string) ([]Result, int, error) {
	body, err := json.Marshal(queryRequest{Query: query, Session: c.session})
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Post(c.base+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	buf := bodyBufs.Get().(*[]byte)
	*buf, err = readBody(resp, *buf, maxBody)
	var qr queryResponse
	if err == nil {
		qr, err = decodeResponse(*buf)
	}
	if cap(*buf) <= maxPooledBody {
		bodyBufs.Put(buf)
	}
	if err != nil {
		return nil, resp.StatusCode, fmt.Errorf("bad server response (HTTP %d): %v", resp.StatusCode, err)
	}
	if qr.Error != "" {
		return qr.Results, resp.StatusCode, fmt.Errorf("%s", qr.Error)
	}
	if resp.StatusCode != http.StatusOK {
		return qr.Results, resp.StatusCode, fmt.Errorf("HTTP %d", resp.StatusCode)
	}
	return qr.Results, resp.StatusCode, nil
}

// bodyBufs recycles the buffers /query answers are read into: decoding
// copies everything it keeps out of them. Buffers over maxPooledBody are
// left to the collector.
var bodyBufs = sync.Pool{New: func() any { return new([]byte) }}

const (
	// maxBody bounds a JSON response body the client reads.
	maxBody = 64 << 20
	// maxPooledBody bounds the buffers bodyBufs keeps.
	maxPooledBody = 8 << 20
)

// readBody reads a response body of at most limit bytes to EOF into buf
// (reusing its capacity) and closes it. Reading to EOF, chunk terminator
// included, is what returns the connection to the pool for the next
// request; every client path reads its bodies through here.
func readBody(resp *http.Response, buf []byte, limit int64) ([]byte, error) {
	defer resp.Body.Close()
	buf = buf[:0]
	if n := resp.ContentLength; n >= 0 && n < limit && n >= int64(cap(buf)) {
		// One byte over, so the read that meets EOF needs no room.
		buf = make([]byte, 0, n+1)
	}
	r := io.LimitReader(resp.Body, limit+1)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			return buf, err
		}
	}
	if int64(len(buf)) > limit {
		return buf, fmt.Errorf("response body over %d bytes", limit)
	}
	return buf, nil
}

// decodeBody reads a response body with readBody and decodes it as JSON
// into v.
func decodeBody(resp *http.Response, v any) error {
	data, err := readBody(resp, nil, maxBody)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// retriableFailure reports whether a failed attempt is safe and useful
// to repeat: the connection never produced a response (status 0) or the
// server shed it before execution (503: overloaded or shutting down).
func retriableFailure(status int, err error) bool {
	return err != nil && (status == 0 || status == http.StatusServiceUnavailable)
}

// readOnlyBatch reports whether every statement of the batch is a read
// (SELECT/EXPLAIN/PLAN), and so safe to re-run.
func readOnlyBatch(query string) bool {
	for _, stmt := range strings.Split(query, ";") {
		stmt = strings.TrimSpace(stmt)
		if stmt == "" {
			continue
		}
		kw := strings.ToUpper(stmt)
		if i := strings.IndexAny(kw, " \t\r\n("); i > 0 {
			kw = kw[:i]
		}
		switch kw {
		case "SELECT", "EXPLAIN", "PLAN":
		default:
			return false
		}
	}
	return true
}

// backoff returns the sleep before retry number attempt+2.
func (c *Client) backoff(attempt int) time.Duration { return c.retry.Backoff(attempt) }

// Backoff returns the sleep before retry number attempt+2: exponential
// from BaseDelay, capped at MaxDelay, with ±50% jitter. Exported so
// other reconnecting loops (the replication tailer) share the same
// herd-spreading schedule.
func (p RetryPolicy) Backoff(attempt int) time.Duration {
	base := p.BaseDelay
	if base <= 0 {
		base = 25 * time.Millisecond
	}
	max := p.MaxDelay
	if max <= 0 {
		max = time.Second
	}
	d := base << attempt
	if d > max || d <= 0 || attempt >= 30 {
		d = max
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// Query runs exactly one statement and returns its result.
func (c *Client) Query(query string) (*Result, error) {
	rs, err := c.Exec(query)
	if err != nil {
		return nil, err
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("no result")
	}
	return &rs[0], nil
}

// NewSession creates a named server-side session and pins the client to
// it. Further batches share transaction state until CloseSession.
func (c *Client) NewSession() error {
	resp, err := c.hc.Post(c.base+"/session", "application/json", nil)
	if err != nil {
		return err
	}
	var out struct {
		Session string `json:"session"`
		Error   string `json:"error"`
	}
	if err := decodeBody(resp, &out); err != nil {
		return err
	}
	if out.Error != "" {
		return fmt.Errorf("%s", out.Error)
	}
	c.session = out.Session
	return nil
}

// Session returns the pinned server-side session id ("" when ephemeral).
func (c *Client) Session() string { return c.session }

// CloseSession closes the pinned session (rolling back an open
// transaction server-side).
func (c *Client) CloseSession() error {
	if c.session == "" {
		return nil
	}
	req, err := http.NewRequest(http.MethodDelete, c.base+"/session?id="+c.session, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	_, _ = readBody(resp, nil, maxBody)
	c.session = ""
	return nil
}

// Health fetches the healthz report.
func (c *Client) Health() (*Health, error) {
	resp, err := c.hc.Get(c.base + "/healthz")
	if err != nil {
		return nil, err
	}
	var h Health
	if err := decodeBody(resp, &h); err != nil {
		return nil, err
	}
	return &h, nil
}
