package server

import (
	"context"
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/wal"
)

// Replication HTTP surface. A primary (any non-replica node — including a
// freshly promoted one) serves its log and bootstrap snapshots:
//
//	GET /repl/wal?gen=G&off=O&max=M&wait_ms=W
//	    Raw framed log bytes of generation G starting at byte offset O
//	    (at most M; default/cap 4 MiB). With wait_ms the request long-
//	    polls: it holds until bytes are available past O or the wait
//	    expires, so an idle tailer costs one parked request instead of a
//	    poll storm. Response headers X-Sciql-Wal-Gen / -Offset / -Records
//	    carry the primary's current position (the replica's lag is the
//	    difference to its own). 409 with those headers means the
//	    generation is gone (checkpoint reset): re-bootstrap.
//
//	GET /repl/snapshot
//	    A core.EncodeSnapshot bootstrap image of the last checkpoint,
//	    paired with the generation to tail from.
//
// A replica additionally accepts POST /promote (or SIGUSR1 on sciqld),
// which stops its tailer, verifies the applied prefix and opens the
// write path.

// Replication is the replica-side control surface the server exposes
// over HTTP; *repl.Tailer implements it. It is nil on a plain primary.
type Replication interface {
	// ReplStatus reports the tailer's view of the stream for /healthz.
	ReplStatus() ReplStatus
	// Promote stops tailing and opens the write path, returning the
	// promoted position. Idempotent: promoting a promoted node is an
	// error but changes nothing.
	Promote(ctx context.Context) (core.WALPos, error)
}

// ReplStatus is the replication half of the /healthz report.
type ReplStatus struct {
	// Source is the primary's address the tailer pulls from.
	Source string `json:"source"`
	// Primary is the last position the primary reported; Applied is the
	// local durable+applied position. The difference is the lag.
	Primary core.WALPos `json:"primary"`
	Applied core.WALPos `json:"applied"`
	// LagBytes/LagRecords are Primary minus Applied (0 when caught up or
	// the primary has not been reached yet).
	LagBytes   int64 `json:"lag_bytes"`
	LagRecords int64 `json:"lag_records"`
	// Bootstraps counts snapshot installs (1 after the initial bootstrap;
	// more mean generation resets forced re-bootstraps).
	Bootstraps int64 `json:"bootstraps"`
	// Reconnects counts stream re-establishments after errors.
	Reconnects int64 `json:"reconnects"`
	// LastError is the most recent stream error ("" when healthy).
	LastError string `json:"last_error,omitempty"`
	// Promoted reports that the node has left replica mode.
	Promoted bool `json:"promoted,omitempty"`
}

// SetReplication attaches the replica tailer (before Start).
func (s *Server) SetReplication(r Replication) { s.repl = r }

const (
	// maxWALChunk bounds one /repl/wal response.
	maxWALChunk = 4 << 20
	// maxWALWait bounds one long poll; clients re-issue.
	maxWALWait = 30 * time.Second
	// walPollInterval is the primary-side wait granularity: how quickly a
	// parked /repl/wal notices fresh bytes.
	walPollInterval = 2 * time.Millisecond
)

func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	q := r.URL.Query()
	gen, err1 := strconv.ParseUint(q.Get("gen"), 10, 64)
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err1 != nil || err2 != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "gen and off are required integers"})
		return
	}
	max := int64(maxWALChunk)
	if v := q.Get("max"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 && n < max {
			max = n
		}
	}
	var wait time.Duration
	if v := q.Get("wait_ms"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil && n > 0 {
			wait = time.Duration(n) * time.Millisecond
			if wait > maxWALWait {
				wait = maxWALWait
			}
		}
	}

	deadline := time.Now().Add(wait)
	for {
		data, pos, err := s.db.ReadWALChunk(gen, off, max)
		switch {
		case errors.Is(err, wal.ErrGenMismatch):
			setWALHeaders(w, pos)
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		case err != nil:
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		if len(data) > 0 || wait <= 0 || !time.Now().Before(deadline) {
			setWALHeaders(w, pos)
			w.Header().Set("Content-Type", "application/octet-stream")
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write(data)
			return
		}
		// Long poll: park until bytes appear, the wait expires, the client
		// goes away, or the server drains.
		select {
		case <-r.Context().Done():
			return
		case <-time.After(walPollInterval):
		}
		if s.draining.Load() {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: ErrShuttingDown.Error()})
			return
		}
	}
}

func setWALHeaders(w http.ResponseWriter, pos core.WALPos) {
	h := w.Header()
	h.Set("X-Sciql-Wal-Gen", strconv.FormatUint(pos.Gen, 10))
	h.Set("X-Sciql-Wal-Offset", strconv.FormatInt(pos.Offset, 10))
	h.Set("X-Sciql-Wal-Records", strconv.FormatInt(pos.Records, 10))
}

func (s *Server) handleReplSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	pos, files, err := s.db.ReplSnapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	setWALHeaders(w, pos)
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(core.EncodeSnapshot(pos, files))
}

func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	if s.repl == nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: "not a replica"})
		return
	}
	pos, err := s.repl.Promote(r.Context())
	if err != nil {
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"promoted": true, "wal": pos})
}
