// Command sciqld serves a SciQL database over the network: an HTTP/JSON
// endpoint (POST /query, GET /healthz) and a newline-delimited text
// protocol share one port. It is the engine's mserver equivalent — many
// concurrent clients, snapshot-isolated parallel reads, single-writer
// transactions.
//
// Usage:
//
//	sciqld [-addr :8642] [-db dir] [-threads n] [-max-sessions n]
//	       [-wal-checkpoint-bytes n] [-query-timeout d] [-drain-timeout d]
//	       [-shutdown-timeout d] [-read-only] [-replica-of host:port]
//	       [-encodings=false]
//
// SIGTERM/SIGINT drain gracefully: new statements are refused (HTTP
// 503, text "!error: server is shutting down") while in-flight ones
// finish, bounded by -drain-timeout, then the store checkpoints and
// closes.
//
// -replica-of runs the node as a WAL-shipped read replica of another
// sciqld: it bootstraps from the primary's checkpoint snapshot, tails
// the primary's log, and serves snapshot-isolated reads while refusing
// writes. POST /promote (or SIGUSR1) stops the stream, verifies the
// applied prefix and opens the write path — failover. -read-only serves
// an existing database without ever writing it.
//
// Try it:
//
//	sciqld -addr :8642 &
//	curl -s localhost:8642/query -d '{"query":"SELECT 1 + 1"}'
//	printf 'SELECT 40 + 2\n' | nc localhost 8642
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	sciql "repro"
	"repro/internal/core"
	"repro/internal/repl"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", ":8642", "TCP listen address (HTTP/JSON + text protocol)")
	dir := flag.String("db", "", "database directory (empty: in-memory)")
	threads := flag.Int("threads", 0, "kernel worker threads (0: GOMAXPROCS)")
	maxSessions := flag.Int("max-sessions", server.DefaultMaxSessions, "maximum concurrent client sessions")
	workers := flag.Int("workers", 0, "concurrent statement executions admitted (0: GOMAXPROCS)")
	ckptBytes := flag.Int64("wal-checkpoint-bytes", core.DefaultCheckpointBytes,
		"WAL size that triggers an incremental checkpoint (<=0: only checkpoint on shutdown)")
	queryTimeout := flag.Duration("query-timeout", 0,
		"per-statement execution deadline; past it the running kernel is cancelled (0: none)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long shutdown waits for in-flight statements before cancelling them")
	shutdownTimeout := flag.Duration("shutdown-timeout", server.DefaultShutdownTimeout,
		"how long a forced close waits for in-flight HTTP requests")
	readOnly := flag.Bool("read-only", false,
		"serve the database without ever writing it (writes refused, no checkpoints)")
	replicaOf := flag.String("replica-of", "",
		"primary address to replicate from; serves reads, refuses writes until promoted")
	encodings := flag.Bool("encodings", true,
		"compress column segments per 64K slab (RLE/dict/FOR/delta) at checkpoints")
	flag.Parse()

	sciql.SetThreads(*threads)
	sciql.SetEncodingsEnabled(*encodings)

	var (
		db     *sciql.DB
		tailer *repl.Tailer
		err    error
	)
	switch {
	case *replicaOf != "":
		if *dir == "" {
			fmt.Fprintln(os.Stderr, "sciqld: -replica-of requires -db (the replica must persist what it applies)")
			os.Exit(1)
		}
		tailer, err = repl.Open(repl.Options{Primary: *replicaOf, Dir: *dir, CheckpointBytes: *ckptBytes})
		if tailer != nil {
			db = tailer.DB()
		}
	case *dir != "":
		// The threshold is passed into Open so it also governs whether a
		// large recovered log is folded during startup.
		opts := core.OpenOptions{CheckpointBytes: *ckptBytes}
		if *readOnly {
			opts.ReadOnly = "-read-only flag"
		}
		db, err = core.OpenDB(*dir, opts)
	case *readOnly:
		err = fmt.Errorf("-read-only requires -db (an in-memory database has nothing to serve)")
	default:
		db = sciql.New()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sciqld:", err)
		os.Exit(1)
	}

	srv := server.New(db, server.Config{
		Addr:            *addr,
		MaxSessions:     *maxSessions,
		Workers:         *workers,
		QueryTimeout:    *queryTimeout,
		ShutdownTimeout: *shutdownTimeout,
	})
	if tailer != nil {
		srv.SetReplication(tailer)
	}
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "sciqld:", err)
		os.Exit(1)
	}
	fmt.Printf("sciqld listening on %s (db: %s)\n", srv.Addr(), dbLabel(*dir))
	if tailer != nil {
		tailer.Start()
		fmt.Printf("sciqld: replicating from %s (SIGUSR1 or POST /promote to promote)\n", *replicaOf)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	promote := make(chan os.Signal, 1)
	signal.Notify(promote, syscall.SIGUSR1)
	for done := false; !done; {
		select {
		case <-promote:
			if tailer == nil {
				fmt.Fprintln(os.Stderr, "sciqld: SIGUSR1 ignored: not a replica")
				continue
			}
			pos, perr := tailer.Promote(context.Background())
			if perr != nil {
				fmt.Fprintln(os.Stderr, "sciqld: promote:", perr)
				continue
			}
			fmt.Printf("sciqld: promoted to primary at generation %d offset %d\n", pos.Gen, pos.Offset)
		case <-sig:
			done = true
		}
	}
	fmt.Println("sciqld: draining (refusing new statements)")
	if tailer != nil {
		tailer.Stop()
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	_ = srv.Drain(ctx)
	cancel()
	if err := db.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "sciqld:", err)
		os.Exit(1)
	}
}

func dbLabel(dir string) string {
	if dir == "" {
		return "in-memory"
	}
	return dir
}
