package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Replication endpoints. The client stays wire-level: WAL chunks and
// snapshots are returned as raw bytes for the repl package to decode, so
// this package keeps no dependency on the engine.

// ErrGenMismatch reports a WAL fetch whose generation the primary no
// longer carries (HTTP 409): the stream position is void and the replica
// must re-bootstrap from a snapshot. Test with errors.Is.
var ErrGenMismatch = errors.New("client: wal generation mismatch (re-bootstrap required)")

// WALPos mirrors the server's log position report.
type WALPos struct {
	Gen     uint64 `json:"gen"`
	Offset  int64  `json:"offset"`
	Records int64  `json:"records"`
}

// ReplInfo mirrors the replication section of /healthz on a replica.
type ReplInfo struct {
	Source     string `json:"source"`
	Primary    WALPos `json:"primary"`
	Applied    WALPos `json:"applied"`
	LagBytes   int64  `json:"lag_bytes"`
	LagRecords int64  `json:"lag_records"`
	Bootstraps int64  `json:"bootstraps"`
	Reconnects int64  `json:"reconnects"`
	LastError  string `json:"last_error,omitempty"`
	Promoted   bool   `json:"promoted,omitempty"`
}

// WALChunk fetches raw framed log bytes of generation gen starting at
// byte offset off (at most max; <= 0 lets the server choose). A non-zero
// wait long-polls: the server holds the request until bytes appear past
// off or the wait expires, so a caught-up tailer parks instead of
// spinning. Returns the bytes (possibly empty), the primary's current
// position, and ErrGenMismatch when the generation is gone.
// Cancelling ctx (a tailer being stopped for promotion) aborts a parked
// long poll immediately.
func (c *Client) WALChunk(ctx context.Context, gen uint64, off, max int64, wait time.Duration) ([]byte, WALPos, error) {
	url := fmt.Sprintf("%s/repl/wal?gen=%d&off=%d", c.base, gen, off)
	if max > 0 {
		url += fmt.Sprintf("&max=%d", max)
	}
	if wait > 0 {
		url += fmt.Sprintf("&wait_ms=%d", wait.Milliseconds())
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, WALPos{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, WALPos{}, err
	}
	pos := walPosFromHeaders(resp.Header)
	switch resp.StatusCode {
	case http.StatusOK:
		data, err := readBody(resp, nil, maxBody)
		return data, pos, err
	case http.StatusConflict:
		_, _ = readBody(resp, nil, maxBody)
		return nil, pos, fmt.Errorf("%w: primary is at generation %d", ErrGenMismatch, pos.Gen)
	default:
		return nil, pos, httpError(resp)
	}
}

// Snapshot fetches an encoded bootstrap snapshot (core.EncodeSnapshot
// framing) plus the position it pairs with.
func (c *Client) Snapshot() ([]byte, WALPos, error) {
	resp, err := c.hc.Get(c.base + "/repl/snapshot")
	if err != nil {
		return nil, WALPos{}, err
	}
	pos := walPosFromHeaders(resp.Header)
	if resp.StatusCode != http.StatusOK {
		return nil, pos, httpError(resp)
	}
	data, err := readBody(resp, nil, 1<<33)
	return data, pos, err
}

// Promote asks a replica to stop tailing, verify its applied prefix and
// open its write path. Returns the promoted log position.
func (c *Client) Promote() (WALPos, error) {
	resp, err := c.hc.Post(c.base+"/promote", "application/json", nil)
	if err != nil {
		return WALPos{}, err
	}
	var out struct {
		Promoted bool   `json:"promoted"`
		WAL      WALPos `json:"wal"`
		Error    string `json:"error,omitempty"`
	}
	if err := decodeBody(resp, &out); err != nil {
		return WALPos{}, fmt.Errorf("bad server response (HTTP %d): %v", resp.StatusCode, err)
	}
	if out.Error != "" {
		return WALPos{}, fmt.Errorf("%s", out.Error)
	}
	if !out.Promoted {
		return WALPos{}, fmt.Errorf("promote failed (HTTP %d)", resp.StatusCode)
	}
	return out.WAL, nil
}

func walPosFromHeaders(h http.Header) WALPos {
	gen, _ := strconv.ParseUint(h.Get("X-Sciql-Wal-Gen"), 10, 64)
	off, _ := strconv.ParseInt(h.Get("X-Sciql-Wal-Offset"), 10, 64)
	recs, _ := strconv.ParseInt(h.Get("X-Sciql-Wal-Records"), 10, 64)
	return WALPos{Gen: gen, Offset: off, Records: recs}
}

// httpError extracts the JSON error body of a failed request, falling
// back to the status code.
func httpError(resp *http.Response) error {
	var out struct {
		Error string `json:"error"`
	}
	if err := decodeBody(resp, &out); err == nil && out.Error != "" {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, out.Error)
	}
	return fmt.Errorf("HTTP %d", resp.StatusCode)
}
