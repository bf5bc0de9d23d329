package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"

	"repro/internal/core"
)

// The text protocol: newline-delimited statements in, rendered results
// out. It exists for CLI use (netcat, the sciql shell's remote mode) and
// mirrors the HTTP endpoint's semantics with a per-connection session.
//
//	client: one SQL batch per line (a trailing ';' is fine)
//	server: the rendered result of each statement, then a line "."
//	errors: a line "!error: <message>", then "."
//	"\q" (or EOF) closes the connection.
//
// The client speaks first (the shared port sniffs the first token to
// tell SQL from HTTP), so there is no greeting banner.
//
// Each connection owns a core.Session, so BEGIN/COMMIT work naturally and
// concurrent connections read in parallel.

const maxTextLine = 1 << 20 // 1 MiB per statement batch

func (s *Server) serveText(c net.Conn) {
	defer func() { _ = c.Close() }()
	if err := s.acquireTextSlot(); err != nil {
		fmt.Fprintf(c, "!error: %v\n.\n", err)
		return
	}
	defer s.releaseTextSlot()

	// All admission waits and statement execution on this connection run
	// under a context tied to its lifetime: when the server closes the
	// connection (shutdown past the drain deadline), the statement it is
	// executing aborts instead of running to completion against a closed
	// socket.
	connCtx, connCancel := context.WithCancel(context.Background())
	defer connCancel()
	s.bindConnCancel(c, connCancel)

	sess := s.db.NewSession()
	defer func() { _ = sess.Close() }()

	var enc textEncoder
	w := bufio.NewWriter(c)
	sc := bufio.NewScanner(c)
	sc.Buffer(make([]byte, 64*1024), maxTextLine)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == `\q`:
			return
		}
		release, err := s.admit(connCtx)
		if err != nil {
			if connCtx.Err() != nil {
				return // connection torn down while queued
			}
			fmt.Fprintf(w, "!error: %v\n.\n", err)
			_ = w.Flush()
			continue
		}
		qctx, cancel := s.queryCtx(connCtx)
		results, err := sess.ExecContext(qctx, line)
		cancel()
		release()
		enc.answer(w, results, err)
		if err := w.Flush(); err != nil {
			return
		}
	}
	// A scan failure (e.g. a statement over the 1 MiB line limit) is
	// reported in-band before closing, so the client can tell it from a
	// crash.
	if err := sc.Err(); err != nil {
		fmt.Fprintf(w, "!error: %v\n.\n", err)
		_ = w.Flush()
	}
}

// textEncoder writes batch answers for one text connection, reusing one
// formatter and one rendering buffer.
type textEncoder struct {
	f   core.Formatter
	out []byte
}

// answer writes the answer to one statement batch: each result's
// rendering (Result.String's bytes), ending in a newline, then
// "!error: ..." if the batch failed, then ".".
func (e *textEncoder) answer(w *bufio.Writer, results []*core.Result, err error) {
	for _, r := range results {
		e.f.Format(r)
		e.out = e.f.AppendText(e.out[:0])
		if len(e.out) == 0 || e.out[len(e.out)-1] != '\n' {
			e.out = append(e.out, '\n')
		}
		_, _ = w.Write(e.out)
	}
	e.f.Reset()
	if err != nil {
		fmt.Fprintf(w, "!error: %v\n", err)
	}
	_, _ = w.WriteString(".\n")
}
