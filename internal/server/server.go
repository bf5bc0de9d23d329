// Package server puts a network front door on the SciQL engine: the
// sciqld daemon. One TCP port serves two protocols — an HTTP/JSON query
// endpoint (POST /query, GET /healthz) for programs and a newline-
// delimited text protocol for CLI use — distinguished by sniffing the
// first request line, like MonetDB's mserver speaking MAPI to many client
// kinds on one socket.
//
// Every connection (and every named HTTP session) owns a core.Session, so
// transactions and prepared statements are per-client while reads from all
// sessions execute in parallel against the engine's published snapshots.
// A bounded worker pool admits statements: when all workers are busy new
// statements queue, and beyond a depth limit the server sheds load with a
// clean "overloaded" error instead of collapsing.
package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config tunes a Server.
type Config struct {
	// Addr is the TCP listen address, e.g. ":8642" or "127.0.0.1:0".
	Addr string
	// MaxSessions caps live client sessions (text connections plus named
	// HTTP sessions). 0 means DefaultMaxSessions.
	MaxSessions int
	// Workers caps concurrently executing statements. 0 means GOMAXPROCS.
	Workers int
	// MaxQueue is the number of statements allowed to wait for a worker
	// before the server sheds load. 0 means 4*Workers.
	MaxQueue int
	// QueryTimeout bounds each statement batch's execution: past it the
	// engine aborts the running kernel at morsel granularity and the
	// client gets a deadline-exceeded error. 0 means no limit.
	QueryTimeout time.Duration
	// ShutdownTimeout bounds how long Close waits for the HTTP server to
	// finish in-flight requests, and is the default drain deadline of
	// Drain(nil). 0 means DefaultShutdownTimeout.
	ShutdownTimeout time.Duration
}

// DefaultMaxSessions bounds concurrent sessions when Config leaves it 0.
const DefaultMaxSessions = 64

// DefaultShutdownTimeout is the Close/Drain deadline when Config leaves
// ShutdownTimeout 0.
const DefaultShutdownTimeout = 2 * time.Second

// ErrOverloaded is reported (wrapped) when the admission queue is full.
var ErrOverloaded = fmt.Errorf("server overloaded: admission queue is full")

// ErrShuttingDown is reported to statements arriving while the server
// drains. Clients seeing it (HTTP 503) should retry against the
// restarted server; see client.RetryPolicy.
var ErrShuttingDown = fmt.Errorf("server is shutting down")

// Server is a running (or startable) sciqld instance.
type Server struct {
	db  *core.DB
	cfg Config

	// repl is the replica tailer when this node is a replica (see
	// SetReplication); nil on a primary. It backs POST /promote and the
	// replication section of /healthz.
	repl Replication

	ln         net.Listener
	httpSrv    *http.Server
	httpConns  chan net.Conn
	acceptDone chan struct{}
	wg         sync.WaitGroup

	sem      chan struct{} // worker admission tokens
	waiting  atomic.Int64  // statements queued for a worker
	queries  atomic.Int64  // statements served
	rejected atomic.Int64  // statements shed

	// draining refuses new statements (ErrShuttingDown / HTTP 503) while
	// in-flight ones finish; set by Drain ahead of Close.
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*session
	// conns are accepted connections not (yet) owned by the HTTP server:
	// being sniffed, or speaking the text protocol. Close must close them
	// explicitly or their goroutines would block shutdown indefinitely.
	// The value, when non-nil, cancels the connection's statement context
	// so an in-flight query aborts with the connection.
	conns    map[net.Conn]context.CancelFunc
	textLive int // open text-protocol connections
	nextID   int64
	closed   bool
}

// session is one named HTTP-facing session. Statements on the same
// session serialise (a session is a logical connection); distinct
// sessions run concurrently.
type session struct {
	id   string
	mu   sync.Mutex
	sess *core.Session
	used time.Time
}

// New returns an unstarted server over the database.
func New(db *core.DB, cfg Config) *Server {
	if cfg.MaxSessions <= 0 {
		cfg.MaxSessions = DefaultMaxSessions
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.Workers
	}
	return &Server{
		db:       db,
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.Workers),
		sessions: map[string]*session{},
		conns:    map[net.Conn]context.CancelFunc{},
	}
}

// trackConn registers an accepted connection for shutdown; it reports
// false (and closes nothing) when the server is already closing.
func (s *Server) trackConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	s.conns[c] = nil
	return true
}

// bindConnCancel attaches the cancel function of a text connection's
// statement context, so Close aborts the statement running on it
// instead of waiting behind it.
func (s *Server) bindConnCancel(c net.Conn, cancel context.CancelFunc) {
	s.mu.Lock()
	if _, ok := s.conns[c]; ok {
		s.conns[c] = cancel
	}
	s.mu.Unlock()
}

// untrackConn hands a connection off (to the HTTP server, or to Close).
func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

// Start listens on cfg.Addr and serves until Close. It returns once the
// listener is bound (use Addr to learn the port when binding to :0).
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.ln = ln
	s.httpConns = make(chan net.Conn)
	s.acceptDone = make(chan struct{})
	s.httpSrv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.wg.Add(2)
	go func() {
		defer s.wg.Done()
		s.acceptLoop()
	}()
	go func() {
		defer s.wg.Done()
		_ = s.httpSrv.Serve(&chanListener{conns: s.httpConns, done: s.acceptDone, addr: ln.Addr()})
	}()
	return nil
}

// Addr returns the bound listen address (nil before Start).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Close stops accepting, shuts both protocol servers down and closes all
// client sessions (rolling back their open transactions). In-flight
// statements are cancelled (their connections close under them); use
// Drain first for a graceful stop that lets them finish.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	sessions := make([]*session, 0, len(s.sessions))
	for _, se := range s.sessions {
		sessions = append(sessions, se)
	}
	s.sessions = map[string]*session{}
	// Unblock sniffing and text-protocol goroutines: cancel the statement
	// a connection may be executing, then close the connection so its
	// reads fail and wg.Wait below terminates.
	for c, cancel := range s.conns {
		if cancel != nil {
			cancel()
		}
		_ = c.Close()
	}
	s.conns = map[net.Conn]context.CancelFunc{}
	s.mu.Unlock()

	var err error
	if s.ln != nil {
		err = s.ln.Close()
	}
	if s.httpSrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), s.shutdownTimeout())
		defer cancel()
		_ = s.httpSrv.Shutdown(ctx)
	}
	for _, se := range sessions {
		_ = se.sess.Close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) shutdownTimeout() time.Duration {
	if s.cfg.ShutdownTimeout > 0 {
		return s.cfg.ShutdownTimeout
	}
	return DefaultShutdownTimeout
}

// Drain gracefully stops the server: new statements are refused with
// ErrShuttingDown (HTTP 503, text "!error: server is shutting down")
// while in-flight ones run to completion, then the server closes. When
// ctx expires first, the remaining statements are cancelled by Close.
// A nil ctx means the configured ShutdownTimeout. sciqld calls this on
// SIGTERM/SIGINT.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	if ctx == nil {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), s.shutdownTimeout())
		defer cancel()
	}
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	for s.waiting.Load() > 0 || len(s.sem) > 0 {
		select {
		case <-ctx.Done():
			return s.Close()
		case <-tick.C:
		}
	}
	return s.Close()
}

// Draining reports whether the server is refusing new statements.
func (s *Server) Draining() bool { return s.draining.Load() }

// admit blocks until a worker token is free; beyond MaxQueue waiting
// statements it sheds load immediately. release must be called when the
// statement ends. Executing statements hold sem and do not count as
// waiting.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.draining.Load() {
		s.rejected.Add(1)
		return nil, ErrShuttingDown
	}
	if s.waiting.Add(1) > int64(s.cfg.MaxQueue) {
		s.waiting.Add(-1)
		s.rejected.Add(1)
		return nil, ErrOverloaded
	}
	defer s.waiting.Add(-1)
	select {
	case s.sem <- struct{}{}:
		s.queries.Add(1)
		return func() { <-s.sem }, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// queryCtx derives the execution context of one statement batch from its
// transport context (HTTP request or text connection), applying the
// configured per-query timeout.
func (s *Server) queryCtx(parent context.Context) (context.Context, context.CancelFunc) {
	if s.cfg.QueryTimeout > 0 {
		return context.WithTimeout(parent, s.cfg.QueryTimeout)
	}
	return context.WithCancel(parent)
}

// ---------------------------------------------------------------- HTTP

// queryRequest is the body of POST /query.
type queryRequest struct {
	Query string `json:"query"`
	// Session pins the statement to a named session created via
	// POST /session (transactions, prepared statements). Empty runs the
	// statement on an ephemeral autocommit session.
	Session string `json:"session,omitempty"`
}

// errorResponse is the body of a request that failed before any
// statement ran. A /query answer is built by encoder.response.
type errorResponse struct {
	Error string `json:"error,omitempty"`
}

// Handler returns the HTTP API (also used directly by tests and fuzzing).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/session", s.handleSession)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/repl/wal", s.handleReplWAL)
	mux.HandleFunc("/repl/snapshot", s.handleReplSnapshot)
	mux.HandleFunc("/promote", s.handlePromote)
	return mux
}

// writeJSON sends v as a JSON body. The body is encoded before the
// header goes out, so a value encoding/json rejects becomes a clean 500
// with an error body instead of a 200 cut short.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		status = http.StatusInternalServerError
		body, _ = json.Marshal(errorResponse{Error: fmt.Sprintf("encode response: %v", err)})
	}
	writeBody(w, status, append(body, '\n'))
}

// writeBody sends a complete JSON body with its length, so the client
// reads it without chunk framing and the connection stays reusable.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	var req queryRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad request: %v", err)})
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "empty query"})
		return
	}

	enc := getEncoder()
	defer enc.release()
	var (
		body []byte
		err  error
	)
	if req.Session != "" {
		se, ok := s.lookupSession(req.Session)
		if !ok {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown session %q", req.Session)})
			return
		}
		// Serialise on the session before admission: a request queued
		// behind a slow same-session statement must not hold a worker
		// token while it waits (that would starve other sessions).
		se.mu.Lock()
		release, aerr := s.admit(r.Context())
		if aerr != nil {
			se.mu.Unlock()
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: aerr.Error()})
			return
		}
		se.used = time.Now()
		qctx, cancel := s.queryCtx(r.Context())
		var results []*core.Result
		results, err = se.sess.ExecContext(qctx, req.Query)
		cancel()
		// Encode under the session lock: an in-transaction SELECT result
		// references live storage, which the session's next statement may
		// mutate in place.
		body = enc.response(results, err)
		release()
		se.mu.Unlock()
	} else {
		// Ephemeral autocommit session: cheap, and a leaked transaction
		// cannot outlive the request.
		release, aerr := s.admit(r.Context())
		if aerr != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: aerr.Error()})
			return
		}
		sess := s.db.NewSession()
		qctx, cancel := s.queryCtx(r.Context())
		var results []*core.Result
		results, err = sess.ExecContext(qctx, req.Query)
		cancel()
		body = enc.response(results, err)
		_ = sess.Close()
		release()
	}

	status := http.StatusOK
	if err != nil {
		status = http.StatusUnprocessableEntity
	}
	writeBody(w, status, body)
}

func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodPost:
		id, err := s.createSession()
		if err != nil {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"session": id})
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == "" {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "missing session id"})
			return
		}
		if !s.dropSession(id) {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("unknown session %q", id)})
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"closed": id})
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST or DELETE required"})
	}
}

// handleHealthz reports liveness plus the degradation states an operator
// (or load balancer) must react to: "draining" while a graceful stop is
// in progress, "degraded" (with the latched cause) while the engine is
// read-only after a durability failure, "ok" otherwise. Non-ok states
// answer 503 so probes fail the instance out of rotation without parsing
// the body.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	live := len(s.sessions) + s.textLive
	s.mu.Unlock()
	status, cause := "ok", ""
	if derr := s.db.Degraded(); derr != nil {
		status, cause = "degraded", derr.Error()
	}
	if s.draining.Load() {
		status, cause = "draining", ""
	}
	code := http.StatusOK
	if status != "ok" {
		code = http.StatusServiceUnavailable
	}
	// mode distinguishes the node's role — a replica or a -read-only node
	// is healthy (reads work; probes must keep it in rotation), so mode is
	// reported alongside status rather than folded into it.
	mode := "primary"
	if s.db.IsReplica() {
		mode = "replica"
	} else if s.db.ReadOnlyReason() != "" {
		mode = "read-only"
	}
	body := map[string]any{
		"status":    status,
		"cause":     cause,
		"mode":      mode,
		"read_only": s.db.ReadOnlyReason(),
		"wal":       s.db.WALPosition(),
		"sessions":  live,
		"queries":   s.queries.Load(),
		"rejected":  s.rejected.Load(),
		"workers":   s.cfg.Workers,
		// Per-column encoding mix and encoded-vs-logical bytes of the
		// published snapshot (compression observability).
		"encodings": s.db.EncodingStats(),
	}
	if s.repl != nil {
		rs := s.repl.ReplStatus()
		body["replication"] = &rs
	}
	writeJSON(w, code, body)
}

// ------------------------------------------------------ session registry

func (s *Server) createSession() (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return "", fmt.Errorf("server is shutting down")
	}
	if len(s.sessions)+s.textLive >= s.cfg.MaxSessions {
		return "", fmt.Errorf("too many sessions (max %d)", s.cfg.MaxSessions)
	}
	s.nextID++
	id := fmt.Sprintf("s%d", s.nextID)
	s.sessions[id] = &session{id: id, sess: s.db.NewSession(), used: time.Now()}
	return id, nil
}

func (s *Server) lookupSession(id string) (*session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	se, ok := s.sessions[id]
	return se, ok
}

func (s *Server) dropSession(id string) bool {
	s.mu.Lock()
	se, ok := s.sessions[id]
	delete(s.sessions, id)
	s.mu.Unlock()
	if ok {
		_ = se.sess.Close()
	}
	return ok
}

// acquireTextSlot reserves a session slot for a text connection.
func (s *Server) acquireTextSlot() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("server is shutting down")
	}
	if len(s.sessions)+s.textLive >= s.cfg.MaxSessions {
		return fmt.Errorf("too many sessions (max %d)", s.cfg.MaxSessions)
	}
	s.textLive++
	return nil
}

func (s *Server) releaseTextSlot() {
	s.mu.Lock()
	s.textLive--
	s.mu.Unlock()
}
