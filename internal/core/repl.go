package core

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/catalog"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// Physical replication support. The logical-effect WAL is deterministic
// and parser-free, so a replica that copies the primary's checkpoint
// files (InstallSnapshot) and then applies the primary's log records in
// order (ApplyReplicated) reconstructs the primary's state exactly — the
// same code path crash recovery already trusts. The replica appends every
// record it applies to its own log with identical framing, so its local
// log is a byte prefix of the primary's: its log size IS its replication
// position, and a replica crash recovers by ordinary Open + resume from
// that position. Promote verifies the applied prefix and opens the write
// path, turning the replica into a primary whose log continues where the
// stream stopped.

// replicaReadOnlyReason is the writeBlockedErr reason while in replica
// mode (cleared by Promote).
const replicaReadOnlyReason = "replica; promote to enable writes"

// bootstrapMarker is dropped in the directory for the duration of
// InstallSnapshot's non-atomic rewrite: a crash mid-install leaves the
// marker behind, telling the next open the directory is an incomplete
// bootstrap to be wiped, not a store to recover.
const bootstrapMarker = "repl-bootstrap.partial"

// ErrBootstrapIncomplete reports a directory whose last snapshot install
// was interrupted: nothing in it can be trusted. Wipe and re-bootstrap.
var ErrBootstrapIncomplete = fmt.Errorf("replica bootstrap was interrupted; wipe the directory and re-bootstrap")

// WALPos is a position in the replicated log stream: the generation, the
// byte offset just past the last committed record, and how many records
// the prefix up to that offset holds.
type WALPos struct {
	Gen     uint64 `json:"gen"`
	Offset  int64  `json:"offset"`
	Records int64  `json:"records"`
}

// WALPosition returns the current log position (zero for in-memory
// databases): what a replica at this exact state would resume from, and
// the primary-side half of every lag computation.
func (db *DB) WALPosition() WALPos {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.walPosLocked()
}

func (db *DB) walPosLocked() WALPos {
	if db.wal == nil {
		return WALPos{}
	}
	return WALPos{Gen: db.wal.Gen(), Offset: db.wal.Size(), Records: db.wal.Records()}
}

// WALTruncated returns how many torn trailing bytes the last open
// discarded from the log — the visible data-loss window after a crash
// mid-append (0 after a clean shutdown or for in-memory databases).
func (db *DB) WALTruncated() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Truncated()
}

// IsReplica reports whether the database is in replica mode.
func (db *DB) IsReplica() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.replica
}

// ReadOnlyReason returns the policy reason SQL writes are refused ("" for
// a writable database). Degraded mode is reported separately (Degraded).
func (db *DB) ReadOnlyReason() string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.readOnly
}

// SnapshotFile is one file of a bootstrap snapshot, named relative to the
// database directory ("catalog.json", "bats/t.a.3.bat").
type SnapshotFile struct {
	Name string
	Data []byte
}

// ReplSnapshot captures the current checkpoint — manifest plus every
// referenced segment file — together with the log generation it pairs
// with. A replica that installs these files and then applies the log of
// that generation from its start reaches the primary's exact state. Runs
// under the read lock, which excludes checkpoints (they hold the writer
// lock), so the captured file set is always internally consistent; the
// log itself is not part of the snapshot — the replica streams it.
func (db *DB) ReplSnapshot() (WALPos, []SnapshotFile, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.dir == "" || db.wal == nil {
		return WALPos{}, nil, fmt.Errorf("replication requires a directory-backed database")
	}
	pos := db.walPosLocked()
	manifest, err := db.fs.ReadFile(filepath.Join(db.dir, "catalog.json"))
	if os.IsNotExist(err) {
		// Never checkpointed: the log alone carries the whole history.
		return pos, nil, nil
	}
	if err != nil {
		return WALPos{}, nil, err
	}
	files := []SnapshotFile{{Name: "catalog.json", Data: manifest}}
	batDir := filepath.Join(db.dir, "bats")
	entries, err := db.fs.ReadDir(batDir)
	if err != nil && !os.IsNotExist(err) {
		return WALPos{}, nil, err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".bat") {
			continue
		}
		data, err := db.fs.ReadFile(filepath.Join(batDir, e.Name()))
		if err != nil {
			return WALPos{}, nil, err
		}
		files = append(files, SnapshotFile{Name: "bats/" + e.Name(), Data: data})
	}
	return pos, files, nil
}

// ReadWALChunk serves up to max raw log bytes from byte offset off of
// generation gen, for streaming to a replica, plus the current position
// (the replica derives its lag from it). A gen that is not the current
// one — or an offset past the committed size, which can only mean the
// reader's position belongs to a discarded log — returns
// wal.ErrGenMismatch: the caller must re-bootstrap from a snapshot.
// Only committed (fsynced) bytes are served, so a served byte can never
// disappear in a primary crash.
func (db *DB) ReadWALChunk(gen uint64, off, max int64) ([]byte, WALPos, error) {
	db.mu.RLock()
	pos := db.walPosLocked()
	dir, fsys, haveWAL := db.dir, db.fs, db.wal != nil
	db.mu.RUnlock()
	if dir == "" || !haveWAL {
		return nil, pos, fmt.Errorf("replication requires a directory-backed database")
	}
	if gen != pos.Gen || off > pos.Offset {
		return nil, pos, fmt.Errorf("%w: stream at (gen %d, offset %d), log at (gen %d, offset %d)",
			wal.ErrGenMismatch, gen, off, pos.Gen, pos.Offset)
	}
	if off == pos.Offset {
		return nil, pos, nil // caught up
	}
	if n := pos.Offset - off; max > n {
		max = n
	}
	// Read outside the lock: a concurrent checkpoint can swap the file,
	// but ChunkFS re-validates the generation against the header, and an
	// open handle on the old inode still yields committed prefix bytes.
	data, err := wal.ChunkFS(fsys, filepath.Join(dir, "wal.log"), gen, off, max)
	if err != nil {
		return nil, pos, err
	}
	return data, pos, nil
}

// InstallSnapshot replaces the replica's entire state — directory and
// memory — with a bootstrap snapshot taken at (pos, files): the
// checkpoint files are written, a fresh log of pos.Gen is created, the
// in-memory catalog is rebuilt from the files and republished. The
// rewrite is guarded by a marker file so a crash mid-install reads as an
// incomplete bootstrap (ErrBootstrapIncomplete on the next open), never
// as a silently inconsistent store. Replica mode only.
func (db *DB) InstallSnapshot(pos WALPos, files []SnapshotFile) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.replica {
		return fmt.Errorf("InstallSnapshot: not a replica")
	}
	if db.dir == "" {
		return fmt.Errorf("InstallSnapshot: replication requires a directory-backed database")
	}
	for _, f := range files {
		if f.Name != "catalog.json" && !strings.HasPrefix(f.Name, "bats/") {
			return fmt.Errorf("InstallSnapshot: unexpected file %q in snapshot", f.Name)
		}
	}
	if db.wal != nil {
		_ = db.wal.Close()
		db.wal = nil
	}

	// Marker up first: from here until it is removed, the directory is
	// officially trash.
	marker := filepath.Join(db.dir, bootstrapMarker)
	if err := db.fs.MkdirAll(db.dir, 0o755); err != nil {
		return err
	}
	mf, err := db.fs.Create(marker)
	if err != nil {
		return err
	}
	if err := mf.Close(); err != nil {
		return err
	}

	if err := db.installFilesLocked(pos, files); err != nil {
		// The marker stays: the next open refuses the directory.
		return err
	}

	// Rebuild memory from the just-installed files, exactly as Open does.
	db.cat = catalog.New()
	db.walGen = 0
	clear(db.ckptDirty)
	clear(db.dirty)
	if err := db.load(); err != nil {
		return err
	}
	db.walGen = pos.Gen // authoritative even when no manifest travelled
	l, err := wal.OpenFS(db.fs, filepath.Join(db.dir, "wal.log"), nil)
	if err != nil {
		return err
	}
	db.wal = l

	// Publish the new state wholesale, dropping objects that no longer
	// exist.
	db.publishAllLocked()
	db.pcache.purge() // schema may have changed wholesale

	// The store now mirrors a healthy primary checkpoint: any earlier
	// degraded latch is healed by construction.
	db.degraded = nil
	if err := db.fs.Remove(marker); err != nil {
		return err
	}
	if err := db.fs.SyncDir(db.dir); err != nil {
		return err
	}
	return nil
}

// installFilesLocked rewrites the on-disk state from snapshot files: old
// manifest and segments go, new ones land, and a fresh empty log of the
// snapshot's generation is created.
func (db *DB) installFilesLocked(pos WALPos, files []SnapshotFile) error {
	// Drop the old state (manifest first, so a crash window never pairs
	// the old manifest with new segments).
	if err := db.fs.Remove(filepath.Join(db.dir, "catalog.json")); err != nil && !os.IsNotExist(err) {
		return err
	}
	batDir := filepath.Join(db.dir, "bats")
	if entries, err := db.fs.ReadDir(batDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				_ = db.fs.Remove(filepath.Join(batDir, e.Name()))
			}
		}
	}
	if err := db.fs.MkdirAll(batDir, 0o755); err != nil {
		return err
	}
	for _, f := range files {
		path := filepath.Join(db.dir, filepath.FromSlash(f.Name))
		w, err := db.fs.Create(path)
		if err != nil {
			return err
		}
		if _, err := w.Write(f.Data); err != nil {
			w.Close()
			return err
		}
		if err := w.Sync(); err != nil {
			w.Close()
			return err
		}
		if err := w.Close(); err != nil {
			return err
		}
	}
	if err := db.fs.SyncDir(batDir); err != nil {
		return err
	}
	l, err := wal.CreateFS(db.fs, filepath.Join(db.dir, "wal.log"), pos.Gen)
	if err != nil {
		return err
	}
	return l.Close()
}

// checkBootstrapMarker refuses to open a directory whose last snapshot
// install was interrupted.
func (db *DB) checkBootstrapMarker() error {
	if db.dir == "" {
		return nil
	}
	if _, err := db.fs.ReadFile(filepath.Join(db.dir, bootstrapMarker)); err == nil {
		return ErrBootstrapIncomplete
	}
	return nil
}

// ClearIncompleteBootstrap wipes the data files of a directory whose open
// failed with ErrBootstrapIncomplete (manifest, segments, log, marker),
// leaving it ready for a fresh bootstrap. It refuses directories without
// the marker: a directory that opens normally is never wiped.
func ClearIncompleteBootstrap(fsys vfs.FS, dir string) error {
	if fsys == nil {
		fsys = vfs.OS
	}
	marker := filepath.Join(dir, bootstrapMarker)
	if _, err := fsys.ReadFile(marker); err != nil {
		return fmt.Errorf("%s: no interrupted bootstrap to clear", dir)
	}
	for _, name := range []string{"catalog.json", "catalog.json.tmp", "wal.log", "wal.log.tmp"} {
		if err := fsys.Remove(filepath.Join(dir, name)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	batDir := filepath.Join(dir, "bats")
	if entries, err := fsys.ReadDir(batDir); err == nil {
		for _, e := range entries {
			if !e.IsDir() {
				if err := fsys.Remove(filepath.Join(batDir, e.Name())); err != nil {
					return err
				}
			}
		}
	}
	if err := fsys.Remove(marker); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// ApplyReplicated applies streamed log records: payloads are the decoded
// record payloads of consecutive frames starting at stream byte offset
// off. Each is appended to the local log (one fsynced batch, identical
// framing — so local log bytes stay identical to the primary's) and then
// applied to the catalog through the WAL replay path, and the result is
// published snapshot-atomically per batch.
//
// The offset makes re-delivery safe: frames that lie entirely below the
// local log size were applied before a reconnect resent them and are
// skipped (the idempotence the stream needs — the records themselves are
// not idempotent), a frame straddling the local size or a gap above it
// is a protocol error. Returns the new local position. Replica mode only.
func (db *DB) ApplyReplicated(off int64, payloads [][]byte) (WALPos, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.replica {
		return db.walPosLocked(), fmt.Errorf("ApplyReplicated: not a replica")
	}
	if db.wal == nil {
		return db.walPosLocked(), fmt.Errorf("ApplyReplicated: no local log")
	}
	size := db.wal.Size()
	i := 0
	for i < len(payloads) {
		end := off + wal.FrameSize(len(payloads[i]))
		if end > size {
			break
		}
		off = end // already durable locally: skip the re-delivery
		i++
	}
	if off < size {
		return db.walPosLocked(), fmt.Errorf("ApplyReplicated: frame at %d straddles local log end %d", off, size)
	}
	if off > size {
		return db.walPosLocked(), fmt.Errorf("ApplyReplicated: gap — stream at %d, local log ends at %d", off, size)
	}
	fresh := payloads[i:]
	if len(fresh) == 0 {
		return db.walPosLocked(), nil
	}
	// Durability first (exactly the order recovery assumes): a crash
	// between append and apply replays the records from the local log.
	if err := db.wal.Append(fresh...); err != nil {
		cause := fmt.Errorf("replica wal append: %v", err)
		db.degradeLocked(cause)
		return db.walPosLocked(), cause
	}
	for _, p := range fresh {
		if err := db.applyWALBatch(p); err != nil {
			// The record is durable locally but could not be applied: the
			// live state is now behind the log. Reads stay consistent (the
			// snapshot predates the batch); latch degraded so the fault is
			// visible and promotion is refused, and let a reopen replay
			// the log from disk.
			cause := fmt.Errorf("replica apply: %v", err)
			db.degradeLocked(cause)
			return db.walPosLocked(), cause
		}
	}
	db.publishLocked()
	return db.walPosLocked(), nil
}

// Promote ends replica mode: the tailer must already be stopped. The
// applied prefix is verified (structural integrity; a degraded latch —
// an apply or append that failed — refuses promotion outright), then the
// write path opens. The local log simply continues at its current
// generation and offset: the promoted node is a primary whose history is
// the exact acked prefix it replicated.
func (db *DB) Promote() (WALPos, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if !db.replica {
		return db.walPosLocked(), fmt.Errorf("promote: not a replica")
	}
	if db.degraded != nil {
		return db.walPosLocked(), fmt.Errorf("promote refused: replica is degraded: %v", db.degraded)
	}
	if err := db.checkIntegrityLocked(); err != nil {
		return db.walPosLocked(), fmt.Errorf("promote refused: applied prefix fails verification: %v", err)
	}
	db.replica = false
	if db.readOnly == replicaReadOnlyReason {
		db.readOnly = ""
	}
	// The write path is open now: start the group-commit pipeline the
	// replica open skipped (no-op when group commit is disabled).
	db.startCommitLoopLocked()
	pos := db.walPosLocked()
	log.Printf("sciql: promoted to primary at generation %d, offset %d (%d records)",
		pos.Gen, pos.Offset, pos.Records)
	return pos, nil
}
