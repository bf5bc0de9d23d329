// Package repl implements the replica side of WAL shipping: a Tailer
// that bootstraps a local database from a primary's checkpoint snapshot,
// streams the primary's write-ahead log over HTTP, applies each record
// through the engine's crash-recovery path, and publishes the result as
// snapshot-isolated read-only state.
//
// The protocol leans entirely on the log's physical properties. Records
// are shipped as raw framed bytes and appended to the replica's own log
// with identical framing, so the replica's log is a byte prefix of the
// primary's: the local log size is the resume position, a replica crash
// recovers through the ordinary open-and-replay path and resumes tailing
// from wherever its log ends, and torn or corrupt stream tails are
// discarded by the same CRC scan that discards torn crash tails. A
// checkpoint on the primary resets the log generation; the tailer sees
// the generation mismatch and re-bootstraps from a fresh snapshot.
// Promote stops the stream, verifies the applied prefix and opens the
// write path — failover to the exact acked-commit prefix the replica
// holds.
package repl

import (
	"context"
	"errors"
	"fmt"
	"log"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Options configures a Tailer.
type Options struct {
	// Primary is the primary's address ("host:port").
	Primary string
	// Dir is the replica's database directory.
	Dir string
	// CheckpointBytes is the checkpoint threshold that takes effect after
	// promotion (replicas never checkpoint; a promoted primary does),
	// with OpenOptions' rule: 0 means core.DefaultCheckpointBytes, < 0
	// disables the trigger.
	CheckpointBytes int64
	// Retry shapes reconnect backoff (zero: client.DefaultRetryPolicy
	// delays; MaxAttempts is ignored — a replica retries indefinitely).
	Retry client.RetryPolicy
	// PollWait is the long-poll hold per WAL fetch (default 10s).
	PollWait time.Duration
	// ChunkBytes caps one WAL fetch (default 4 MiB, server-capped).
	ChunkBytes int64
	// FS overrides the replica's filesystem (fault injection).
	FS vfs.FS
}

// Tailer replicates one primary into a local database. Create with Open,
// then Start; reads may be served from DB() throughout. Stop or Promote
// ends the stream. Implements server.Replication.
type Tailer struct {
	db   *core.DB
	cl   *client.Client
	opts Options

	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}
	once   sync.Once

	mu         sync.Mutex
	primary    client.WALPos // last position the primary reported
	lastErr    error
	bootstraps int64
	reconnects int64
	promoted   bool
}

// Open opens (or creates) the replica database in o.Dir and returns the
// unstarted tailer. A directory whose last bootstrap was interrupted is
// wiped and re-bootstrapped; an intact directory resumes from its local
// log end — crash-safe catch-up is just crash recovery plus tailing.
func Open(o Options) (*Tailer, error) {
	if o.Primary == "" {
		return nil, fmt.Errorf("repl: no primary address")
	}
	if o.Dir == "" {
		return nil, fmt.Errorf("repl: replication requires a database directory")
	}
	if o.PollWait <= 0 {
		o.PollWait = 10 * time.Second
	}
	fsys := o.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	db, err := core.OpenDB(o.Dir, core.OpenOptions{CheckpointBytes: o.CheckpointBytes, FS: fsys, Replica: true})
	if errors.Is(err, core.ErrBootstrapIncomplete) {
		log.Printf("repl: %s holds an interrupted bootstrap; wiping for a fresh one", o.Dir)
		if cerr := core.ClearIncompleteBootstrap(fsys, o.Dir); cerr != nil {
			return nil, cerr
		}
		db, err = core.OpenDB(o.Dir, core.OpenOptions{CheckpointBytes: o.CheckpointBytes, FS: fsys, Replica: true})
	}
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Tailer{
		db: db, cl: client.New(o.Primary), opts: o,
		ctx: ctx, cancel: cancel, done: make(chan struct{}),
	}, nil
}

// DB returns the replica database (serve reads from it; writes are
// refused until Promote).
func (t *Tailer) DB() *core.DB { return t.db }

// Start launches the tail loop.
func (t *Tailer) Start() { go t.run() }

// Stop ends the tail loop and waits for it to exit. Idempotent; the
// database stays open (and still a replica — use Promote to open writes).
func (t *Tailer) Stop() {
	t.once.Do(t.cancel)
	<-t.done
}

// Promote stops the stream, verifies the applied prefix and opens the
// write path. The returned position is the exact acked prefix the new
// primary starts from. Implements server.Replication.
func (t *Tailer) Promote(ctx context.Context) (core.WALPos, error) {
	stopped := make(chan struct{})
	go func() { t.Stop(); close(stopped) }()
	select {
	case <-stopped:
	case <-ctx.Done():
		return core.WALPos{}, ctx.Err()
	}
	pos, err := t.db.Promote()
	if err != nil {
		return pos, err
	}
	t.mu.Lock()
	t.promoted = true
	t.mu.Unlock()
	return pos, nil
}

// ReplStatus reports the stream state for /healthz. Implements
// server.Replication.
func (t *Tailer) ReplStatus() server.ReplStatus {
	applied := t.db.WALPosition()
	t.mu.Lock()
	defer t.mu.Unlock()
	st := server.ReplStatus{
		Source:     t.opts.Primary,
		Primary:    core.WALPos{Gen: t.primary.Gen, Offset: t.primary.Offset, Records: t.primary.Records},
		Applied:    applied,
		Bootstraps: t.bootstraps,
		Reconnects: t.reconnects,
		Promoted:   t.promoted,
	}
	if t.primary.Gen == applied.Gen && t.primary.Offset > applied.Offset {
		st.LagBytes = t.primary.Offset - applied.Offset
		st.LagRecords = t.primary.Records - applied.Records
	}
	if t.lastErr != nil {
		st.LastError = t.lastErr.Error()
	}
	return st
}

// run is the tail loop: fetch a chunk from the local log end, apply the
// complete frames, repeat. Errors reconnect with exponential backoff and
// jitter; a generation mismatch re-bootstraps; an apply fault latches the
// database degraded and parks the loop (promotion is refused; reads keep
// serving the pre-fault snapshot).
func (t *Tailer) run() {
	defer close(t.done)
	attempt := 0
	for {
		if t.ctx.Err() != nil {
			return
		}
		pos := t.db.WALPosition()
		data, ppos, err := t.cl.WALChunk(t.ctx, pos.Gen, pos.Offset, t.opts.ChunkBytes, t.opts.PollWait)
		switch {
		case t.ctx.Err() != nil:
			return
		case errors.Is(err, client.ErrGenMismatch):
			// The primary checkpointed (or was replaced): our position is
			// void. Re-bootstrap in place from a fresh snapshot.
			t.note(ppos, err)
			if berr := t.bootstrap(); berr != nil {
				t.note(ppos, berr)
				if !t.sleep(t.backoff(&attempt)) {
					return
				}
				continue
			}
			attempt = 0
		case err != nil:
			t.note(client.WALPos{}, err)
			t.mu.Lock()
			t.reconnects++
			t.mu.Unlock()
			if !t.sleep(t.backoff(&attempt)) {
				return
			}
		default:
			attempt = 0
			t.note(ppos, nil)
			if len(data) == 0 {
				continue // caught up; the long poll parks server-side
			}
			payloads, _, ferr := wal.Frames(data)
			if len(payloads) > 0 {
				if _, aerr := t.db.ApplyReplicated(pos.Offset, payloads); aerr != nil {
					// The engine latched degraded mode: stop streaming (a
					// gap would only compound) and leave the fault visible
					// in /healthz until an operator reopens the replica.
					t.note(ppos, aerr)
					log.Printf("repl: apply fault, tailer parked: %v", aerr)
					return
				}
			}
			if ferr != nil {
				// Bytes corrupted in transit past the applied prefix: drop
				// the tail and re-request from the last good frame end,
				// exactly as recovery truncates a torn log tail.
				t.note(ppos, ferr)
				log.Printf("repl: corrupt stream tail discarded, resuming from %d: %v",
					t.db.WALPosition().Offset, ferr)
				if len(payloads) == 0 {
					// No forward progress this round: back off so a
					// persistently corrupting path cannot spin the loop hot.
					if !t.sleep(t.backoff(&attempt)) {
						return
					}
				}
			}
		}
	}
}

// bootstrap replaces the replica's state with a fresh primary snapshot.
func (t *Tailer) bootstrap() error {
	raw, _, err := t.cl.Snapshot()
	if err != nil {
		return fmt.Errorf("snapshot fetch: %w", err)
	}
	pos, files, err := core.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	if err := t.db.InstallSnapshot(pos, files); err != nil {
		return fmt.Errorf("snapshot install: %w", err)
	}
	t.mu.Lock()
	t.bootstraps++
	t.mu.Unlock()
	log.Printf("repl: bootstrapped from %s at generation %d (offset %d, %d records behind)",
		t.opts.Primary, pos.Gen, pos.Offset, pos.Records)
	return nil
}

// note records the last reported primary position and stream error.
func (t *Tailer) note(pos client.WALPos, err error) {
	t.mu.Lock()
	if pos != (client.WALPos{}) {
		t.primary = pos
	}
	t.lastErr = err
	t.mu.Unlock()
}

// backoff yields the next reconnect delay, advancing the attempt counter.
func (t *Tailer) backoff(attempt *int) time.Duration {
	p := t.opts.Retry
	if p.MaxAttempts == 0 && p.BaseDelay == 0 && p.MaxDelay == 0 {
		p = client.DefaultRetryPolicy
	}
	d := p.Backoff(*attempt)
	*attempt++
	return d
}

// sleep waits d, reporting false when the tailer is stopped meanwhile.
func (t *Tailer) sleep(d time.Duration) bool {
	select {
	case <-t.ctx.Done():
		return false
	case <-time.After(d):
		return true
	}
}
