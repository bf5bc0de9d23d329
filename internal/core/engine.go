// Package core is the SciQL engine: it ties the parser, binder, MAL
// compiler/interpreter and storage kernel into a database with sessions,
// transactions and persistence. It is the public API of the library; the
// root package re-exports it.
package core

import (
	"context"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// DB is a SciQL database: a catalog of tables and arrays plus the engine
// state.
//
// Statement execution is split into two paths. Reads (SELECT, EXPLAIN,
// PLAN) run lock-free against the last published catalog snapshot, so any
// number of concurrent readers execute truly in parallel with each other
// and with the writer. Writes (DDL, DML, transaction control) keep
// single-writer semantics under mu: each mutating statement executes
// against the live catalog and then publishes a fresh copy-on-write
// snapshot, so readers always observe statement-atomic (and, inside
// explicit transactions, commit-atomic) state — snapshot isolation.
type DB struct {
	// mu is the writer lock: held exclusively for every mutating
	// statement (and briefly, shared, by readers to route against the
	// transaction state). The published snapshot is what lets readers
	// drop the lock before executing.
	mu  sync.RWMutex
	cat *catalog.Catalog // live catalog, mutated only under mu
	dir string           // persistence directory; empty = in-memory

	// view is the published immutable snapshot readers execute against.
	// Objects in it are frozen (catalog.Table.Freeze): their storage is
	// never mutated in place once published.
	view atomic.Pointer[catalog.Catalog]

	// dirty names the objects mutated since the last publication; the
	// next publish re-freezes exactly these (copy-on-write granularity).
	dirty map[string]struct{}

	// wal is the write-ahead log of a directory-backed database (nil for
	// in-memory). Committed write statements queue encoded effect records
	// in walPending; the autocommit boundary or COMMIT appends them as one
	// fsynced batch, ROLLBACK drops them. ckptDirty maps objects that
	// diverged from the last checkpoint to whether their segment *data*
	// changed (true) or only manifest-level state like a table's deletion
	// mask (false): a checkpoint rewrites segments only for data-dirty
	// objects, so a DELETE-heavy workload does not reintroduce O(table)
	// write amplification. Once the log outgrows ckptBytes (< 0 disables
	// the trigger) a checkpoint folds it into versioned segment files and
	// resets it.
	wal         *wal.Log
	walGen      uint64
	walPending  [][]byte
	ckptDirty   map[string]bool
	ckptBytes   int64
	ckptWritten int64 // segment bytes written by checkpoints (accounting)

	// fs is the filesystem every durability-bearing operation (WAL,
	// segments, manifest) goes through: vfs.OS in production, a failpoint
	// implementation in the fault-injection suites.
	fs vfs.FS

	// degraded, when non-nil, is the cause that latched read-only
	// degraded mode: a WAL append/reset or checkpoint failure left the
	// in-memory state and the disk (possibly) diverged, so further writes
	// are refused (reads keep working) rather than compounding the
	// divergence into silent data loss or an unreplayable log. See
	// degraded.go; a successful Save or a reopen recovers.
	degraded error

	// readOnly, when non-empty, is the reason SQL writes are refused by
	// policy (the -read-only flag); unlike degraded it is not a fault and
	// never clears on Save. replica additionally marks the database as a
	// replication target: SQL writes are refused, checkpoints are
	// disabled (a checkpoint would reset the log generation and break the
	// byte-identity with the primary's log), and the only mutation path
	// is ApplyReplicated/InstallSnapshot, until Promote opens the write
	// path. See repl.go.
	readOnly string
	replica  bool

	// Group commit state (commit.go): commitQ is the queue between
	// committers and the loop goroutine (nil = inline commits: in-memory,
	// read-only and replica databases, or a stopped loop), commitGroup
	// the max batches coalesced per fsync (DefaultCommitGroup; tests
	// shrink it), commitDone the loop's exit signal.
	// pendingCommit/pendingMsg thread a commit request from a nested
	// boundary (txnStmt's COMMIT, which runs under mu) out to
	// execStmtCtx, which waits on it after unlocking.
	// commits/syncsRetired are the CommitStats accounting.
	commitQ       *commitQueue
	commitGroup   int
	commitDone    chan struct{}
	pendingCommit *commitReq
	pendingMsg    string
	commits       int64
	syncsRetired  int64

	// modSeq is the database-wide modification sequence feeding every
	// catalog object's Mod stamp (see stampMod in txn.go); mutated only
	// under mu.
	modSeq uint64

	txn      *txn     // open explicit transaction, nil in autocommit
	txnOwner *Session // session holding the open transaction

	session *Session // default session used by the DB-level Exec/Query

	pcache *parseCache // bounded LRU of parsed statements

	// width and cutoff shape every statement's par.Job (0: GOMAXPROCS
	// and par.DefaultMorselThreshold); hook, when non-nil, runs before
	// each MAL instruction. Only tests set them, while no statement runs.
	width, cutoff int
	hook          func(*mal.Instr)
}

// DefaultCheckpointBytes is the WAL size past which a commit triggers an
// incremental checkpoint when OpenOptions.CheckpointBytes is zero.
const DefaultCheckpointBytes = 4 << 20

// New creates an empty in-memory database.
func New() *DB {
	db := &DB{cat: catalog.New(), dirty: map[string]struct{}{}, pcache: newParseCache(),
		ckptDirty: map[string]bool{}, fs: vfs.OS}
	db.session = &Session{db: db}
	db.view.Store(catalog.New())
	return db
}

// OpenOptions configures OpenDB beyond the directory. The zero value is
// the production configuration.
type OpenOptions struct {
	// CheckpointBytes is the WAL size past which a commit triggers an
	// incremental checkpoint: 0 means DefaultCheckpointBytes, < 0
	// disables the trigger (the final checkpoint on Close still runs).
	// It also governs whether an oversized recovered log is folded
	// during the open itself.
	CheckpointBytes int64
	// FS overrides the filesystem; nil means vfs.OS. The fault-injection
	// and chaos suites use it to make fsyncs, renames and segment writes
	// fail on demand.
	FS vfs.FS
	// ReadOnly, when non-empty, refuses every SQL write with ErrReadOnly
	// carrying this reason, and skips all checkpoints (including the
	// final one on Close) so the mode truly never writes the store.
	ReadOnly string
	// Replica additionally opens the database as a replication target:
	// read-only to SQL, checkpoints disabled, mutated only through
	// ApplyReplicated/InstallSnapshot until Promote.
	Replica bool
}

// OpenDB loads (or initialises) a database persisted in dir: it reads the
// last checkpoint manifest and its BAT segments, then replays the
// write-ahead log tail — committed work a crash or exit-without-Close
// left out of the segment store — discarding any torn trailing records.
func OpenDB(dir string, o OpenOptions) (*DB, error) {
	fsys := o.FS
	if fsys == nil {
		fsys = vfs.OS
	}
	ckptBytes := o.CheckpointBytes
	if ckptBytes == 0 {
		ckptBytes = DefaultCheckpointBytes
	}
	readOnly := o.ReadOnly
	if o.Replica && readOnly == "" {
		readOnly = replicaReadOnlyReason
	}
	db := &DB{cat: catalog.New(), dir: dir, dirty: map[string]struct{}{}, pcache: newParseCache(),
		ckptDirty: map[string]bool{}, ckptBytes: ckptBytes, fs: fsys,
		readOnly: readOnly, replica: o.Replica, commitGroup: DefaultCommitGroup}
	db.session = &Session{db: db}
	if err := db.checkBootstrapMarker(); err != nil {
		return nil, err
	}
	if err := db.load(); err != nil {
		return nil, err
	}
	if err := db.recoverWAL(); err != nil {
		return nil, err
	}
	// Publish the recovered state as the first snapshot.
	for _, n := range db.cat.TableNames() {
		db.dirty[n] = struct{}{}
	}
	for _, n := range db.cat.ArrayNames() {
		db.dirty[n] = struct{}{}
	}
	db.view.Store(catalog.New())
	db.publishLocked()
	// A recovered log past the threshold is folded immediately so the
	// next open does not pay the same replay again. Read-only and
	// replica opens never checkpoint (maybeCheckpointLocked refuses).
	if err := db.maybeCheckpointLocked(); err != nil {
		if db.wal != nil {
			_ = db.wal.Close()
		}
		return nil, err
	}
	// Start the group-commit pipeline last, once recovery and the
	// opening checkpoint are done: from here on, commits and checkpoints
	// belong to the loop. Read-only and replica opens stay serialized
	// (their only mutation paths bypass the commit boundary; Promote
	// starts the loop when it opens the write path).
	if db.readOnly == "" && !db.replica {
		db.startCommitLoopLocked()
	}
	return db, nil
}

// CheckIntegrity validates the structural invariants of the live catalog:
// every column of a table holds the same row count, deletion masks fit
// the physical row count, and array attribute/dimension BATs are aligned
// with the declared shape. Recovery tests and the WAL-replay fuzzer use
// it as the "no silent corruption" oracle after reopening a database.
func (db *DB) CheckIntegrity() error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.checkIntegrityLocked()
}

// checkIntegrityLocked is CheckIntegrity under an already-held lock
// (promotion verifies the applied prefix while holding the writer lock).
func (db *DB) checkIntegrityLocked() error {
	for _, name := range db.cat.TableNames() {
		t, _ := db.cat.Table(name)
		if len(t.Bats) != len(t.Columns) {
			return fmt.Errorf("table %s: %d columns, %d BATs", name, len(t.Columns), len(t.Bats))
		}
		rows := t.PhysRows()
		for i, b := range t.Bats {
			if b.Len() != rows {
				return fmt.Errorf("table %s: column %s has %d rows, expected %d", name, t.Columns[i].Name, b.Len(), rows)
			}
		}
		if t.Deleted != nil && t.Deleted.Len() > rows {
			return fmt.Errorf("table %s: deletion mask covers %d rows, table has %d", name, t.Deleted.Len(), rows)
		}
	}
	for _, name := range db.cat.ArrayNames() {
		a, _ := db.cat.Array(name)
		cells := a.Cells()
		if len(a.AttrBats) != len(a.Attrs) {
			return fmt.Errorf("array %s: %d attributes, %d BATs", name, len(a.Attrs), len(a.AttrBats))
		}
		for i, b := range a.AttrBats {
			if b.Len() != cells {
				return fmt.Errorf("array %s: attribute %s has %d cells, shape has %d", name, a.Attrs[i].Name, b.Len(), cells)
			}
		}
		if len(a.DimBats) != len(a.Shape) {
			return fmt.Errorf("array %s: %d dimensions, %d dim BATs", name, len(a.Shape), len(a.DimBats))
		}
		for k, b := range a.DimBats {
			if b.Len() != cells {
				return fmt.Errorf("array %s: dimension %s has %d cells, shape has %d", name, a.Shape[k].Name, b.Len(), cells)
			}
		}
	}
	return nil
}

// Catalog exposes the live database catalog (read-mostly; used by tools).
// It is not synchronised against concurrent writers beyond its own map
// locks; concurrent readers should prefer Snapshot.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// Snapshot returns the last published immutable catalog snapshot: the
// state every new read statement observes. Safe for concurrent use.
func (db *DB) Snapshot() *catalog.Catalog { return db.view.Load() }

// Close releases the database. A directory-backed database flushes a
// final checkpoint — folding the WAL tail into the segment store so the
// log does not grow across restarts — and closes the log. An open
// transaction is rolled back.
func (db *DB) Close() error {
	// Stop the commit loop before taking the lock for the final
	// checkpoint: the loop drains and acks every queued commit on the
	// way out, and it needs db.mu itself to run checkpoint barriers.
	db.stopCommitLoop()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn != nil {
		db.txn.rollback(db)
		db.txn = nil
		db.txnOwner = nil
		db.discardWALPending()
		db.publishLocked()
	}
	if db.dir == "" {
		return nil
	}
	var ckptErr error
	// A read-only or replica database never writes checkpoints — its WAL
	// tail simply replays again on the next open (and a replica's log
	// must stay a byte prefix of its primary's).
	if db.readOnly == "" && !db.replica {
		ckptErr = db.checkpointLocked()
	}
	// Release the log handle even when the final fold fails: the
	// committed records are already durable in it and will replay on the
	// next Open.
	if db.wal != nil {
		closeErr := db.wal.Close()
		db.wal = nil
		if ckptErr == nil {
			ckptErr = closeErr
		}
	}
	return ckptErr
}

// Exec parses and executes a semicolon-separated batch on the default
// session, returning one result per statement. Repeated batches skip the
// parser via the DB's statement cache. Safe for concurrent use; reads run
// in parallel, writes serialise.
func (db *DB) Exec(query string) ([]*Result, error) { return db.session.Exec(query) }

// ExecContext is Exec under a context: cancelling ctx (or its deadline
// expiring) aborts the batch between statements, between MAL
// instructions, and — for kernels on large inputs — at morsel
// granularity mid-kernel. The returned error is ctx.Err() when the
// context caused the abort.
func (db *DB) ExecContext(ctx context.Context, query string) ([]*Result, error) {
	return db.session.ExecContext(ctx, query)
}

// Query executes exactly one statement on the default session and returns
// its result. Repeated statements skip the parser via the DB's statement
// cache. Safe for concurrent use.
func (db *DB) Query(query string) (*Result, error) { return db.session.Query(query) }

// QueryContext is Query under a context (see ExecContext for the
// cancellation semantics).
func (db *DB) QueryContext(ctx context.Context, query string) (*Result, error) {
	return db.session.QueryContext(ctx, query)
}

// MustQuery executes a statement and panics on error (testing/examples).
func (db *DB) MustQuery(query string) *Result {
	r, err := db.Query(query)
	if err != nil {
		panic(fmt.Sprintf("query %q: %v", query, err))
	}
	return r
}

// ExecStmt executes one parsed statement on the default session.
func (db *DB) ExecStmt(stmt ast.Statement) (*Result, error) {
	return db.execStmt(db.session, stmt)
}

// parse resolves a query text to parsed statements through the cache.
func (db *DB) parse(query string) ([]ast.Statement, error) {
	if stmts, ok := db.pcache.get(query); ok {
		return stmts, nil
	}
	stmts, err := parser.Parse(query)
	if err != nil {
		return nil, err
	}
	db.pcache.put(query, stmts)
	return stmts, nil
}

// execStmt routes one statement for a session: reads execute lock-free
// against the published snapshot unless the session holds the open
// transaction (read-your-writes); everything else takes the writer lock.
func (db *DB) execStmt(s *Session, stmt ast.Statement) (*Result, error) {
	return db.execStmtCtx(context.Background(), s, stmt)
}

// execStmtCtx is execStmt under a context, and the engine's panic
// containment boundary: a panicking kernel (or interpreter bug) is
// converted into an error instead of tearing down the process. The
// recovery is sound because statement execution never leaves shared
// state inconsistent at a panic point — reads run against an immutable
// snapshot, and a write that panics mid-statement is in the same
// position as a write that errors mid-statement (partial effects,
// logged as applied), which the engine already tolerates. The writer
// lock, when held, is released by its own defer during unwinding.
func (db *DB) execStmtCtx(ctx context.Context, s *Session, stmt ast.Statement) (res *Result, err error) {
	if cerr := ctx.Err(); cerr != nil {
		return nil, cerr
	}
	job := db.newJob()
	defer func() {
		if r := recover(); r != nil {
			log.Printf("sciql: query panic (answered as error): %v\n%s", r, debug.Stack())
			res = nil
			err = fmt.Errorf("internal error: query execution panicked: %v", r)
		}
	}()
	switch stmt.(type) {
	case *ast.Select, *ast.Explain:
		db.mu.RLock()
		inTxn := db.txn != nil && db.txnOwner == s
		snap := db.view.Load()
		db.mu.RUnlock()
		if !inTxn {
			return db.execRead(ctx, job, snap, stmt)
		}
	case *ast.Insert, *ast.Update, *ast.Delete:
		// Parallel prepare (optimistic.go): plan the statement against
		// the published snapshot outside the writer lock, hold the lock
		// only for first-committer-wins validation + apply + enqueue.
		// ok=false (ineligible shape, open transaction, conflict storm,
		// prepare error) falls through to the serialized path below.
		if r, req, ok, oerr := db.execOptimistic(ctx, job, stmt); ok {
			if req != nil {
				if werr := <-req.done; werr != nil && oerr == nil {
					oerr = werr
				}
			}
			return r, oerr
		}
	}
	r, req, msg, err := db.execWrite(ctx, job, s, stmt)
	// With group commit, the writer lock is already released: block here
	// until the loop has fsynced the batch (or failed the whole group).
	// Holding db.mu across this wait would serialise exactly the fsyncs
	// the pipeline exists to share.
	if req != nil {
		if werr := <-req.done; werr != nil && err == nil {
			if msg != "" {
				err = fmt.Errorf("%s: %v", msg, werr)
			} else {
				err = werr
			}
		}
	}
	return r, err
}

// execWrite runs one statement under the writer lock and returns the
// commit request (if any) the caller must wait on after the lock is
// released, plus an optional message to wrap a durability error with
// (COMMIT's "committed but not persisted" contract).
func (db *DB) execWrite(ctx context.Context, job *par.Job, s *Session, stmt ast.Statement) (*Result, *commitReq, string, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txn != nil && db.txnOwner != s {
		return nil, nil, "", fmt.Errorf("another session holds an open transaction; writes are blocked until it commits or rolls back")
	}
	if werr := db.writeBlockedErr(); werr != nil && isWriteStmt(stmt) {
		return nil, nil, "", werr
	}
	r, err := db.execLocked(ctx, job, s, stmt)
	// Autocommit boundary: make the statement durable (one fsynced WAL
	// batch; partial effects of a failed statement are logged exactly as
	// applied) and publish it statement-atomically. Inside an explicit
	// transaction both wait for COMMIT, so concurrent readers never
	// observe uncommitted state and rolled-back work never hits the log.
	if db.txn != nil {
		return r, nil, "", err
	}
	if req, msg := db.takePendingCommitLocked(); req != nil {
		// txnStmt's COMMIT already ran the boundary and registered the
		// request to wait on.
		return r, req, msg, err
	}
	req, berr := db.commitBoundaryLocked()
	if berr != nil && err == nil {
		err = berr
	}
	return r, req, "", err
}

// isWriteStmt reports whether a statement mutates the database.
func isWriteStmt(stmt ast.Statement) bool {
	switch stmt.(type) {
	case *ast.Select, *ast.Explain:
		return false
	}
	return true
}

// execRead executes a read-only statement against an immutable snapshot.
// It runs without any engine lock: the snapshot's storage is frozen.
func (db *DB) execRead(ctx context.Context, job *par.Job, cat *catalog.Catalog, stmt ast.Statement) (*Result, error) {
	switch s := stmt.(type) {
	case *ast.Select:
		return db.runSelect(ctx, job, cat, s)
	case *ast.Explain:
		return db.explain(cat, s)
	default:
		return nil, fmt.Errorf("unsupported read statement %T", stmt)
	}
}

func (db *DB) execLocked(ctx context.Context, job *par.Job, s *Session, stmt ast.Statement) (*Result, error) {
	switch st := stmt.(type) {
	case *ast.Select:
		// A read inside the session's own transaction runs against the
		// live catalog and may hand back the catalog's own columns:
		// freeze them, so the transaction's later writes copy them
		// instead of changing this result under its holder.
		r, err := db.runSelect(ctx, job, db.cat, st)
		if err != nil {
			return nil, err
		}
		for i, c := range r.Cols {
			r.Cols[i] = c.Freeze()
		}
		return r, nil
	case *ast.CreateTable:
		return db.createTable(st)
	case *ast.CreateArray:
		return db.createArray(st)
	case *ast.Drop:
		return db.drop(st)
	case *ast.AlterDimension:
		return db.alterDimension(job, st)
	case *ast.Insert:
		return db.insert(ctx, job, st)
	case *ast.Update, *ast.Delete:
		return db.write(ctx, job, st)
	case *ast.Txn:
		return db.txnStmt(s, st)
	case *ast.Explain:
		return db.explain(db.cat, st)
	default:
		return nil, fmt.Errorf("unsupported statement %T", stmt)
	}
}

// runSelect binds, optimizes, compiles and interprets a SELECT against the
// given catalog (live for writers/transactions, a snapshot for readers).
func (db *DB) runSelect(ctx context.Context, job *par.Job, cat *catalog.Catalog, sel *ast.Select) (*Result, error) {
	prog, err := compile(cat, sel)
	if err != nil {
		return nil, err
	}
	mctx, err := mal.Run(ctx, prog, job, db.hook)
	if err != nil {
		return nil, err
	}
	return assembleResult(job, prog, mctx)
}

// newJob returns a fresh job for one statement at the DB's shape.
func (db *DB) newJob() *par.Job { return par.NewJob(db.width, db.cutoff) }

// bindPlan binds a SELECT, UPDATE or DELETE against cat into its
// optimized logical plan.
func bindPlan(cat *catalog.Catalog, stmt ast.Statement) (rel.Node, error) {
	b := rel.NewBinder(cat)
	var (
		plan rel.Node
		err  error
	)
	switch s := stmt.(type) {
	case *ast.Select:
		plan, err = b.BindSelect(s)
	case *ast.Update:
		plan, err = b.BindUpdate(s)
	case *ast.Delete:
		plan, err = b.BindDelete(s)
	default:
		return nil, fmt.Errorf("EXPLAIN/PLAN supports SELECT, UPDATE and DELETE statements")
	}
	if err != nil {
		return nil, err
	}
	return rel.Optimize(plan), nil
}

// compile runs the full front-end pipeline of Fig. 2.
func compile(cat *catalog.Catalog, stmt ast.Statement) (*mal.Program, error) {
	plan, err := bindPlan(cat, stmt)
	if err != nil {
		return nil, err
	}
	return mal.Compile(plan)
}

// explain renders the logical plan (EXPLAIN) or the MAL program (PLAN);
// nothing runs.
func (db *DB) explain(cat *catalog.Catalog, e *ast.Explain) (*Result, error) {
	plan, err := bindPlan(cat, e.Stmt)
	if err != nil {
		return nil, err
	}
	if !e.MAL {
		return textResult(rel.Explain(plan)), nil
	}
	prog, err := mal.Compile(plan)
	if err != nil {
		return nil, err
	}
	return textResult(prog.String()), nil
}
