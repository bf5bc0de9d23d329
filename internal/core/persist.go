package core

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"path/filepath"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/shape"
	"repro/internal/types"
	"repro/internal/vfs"
	"repro/internal/wal"
)

// On-disk layout of a database directory:
//
//	catalog.json — checkpoint manifest: schema (tables, arrays, shapes,
//	               defaults), per-object segment versions, deletion masks
//	               and the WAL generation the checkpoint pairs with
//	bats/<obj>.<col>.<ver>.bat — one binary BAT segment per column, at the
//	               checkpoint generation that last wrote it
//	wal.log      — write-ahead log of committed effects since the last
//	               checkpoint (internal/wal framing)
//
// Durability is WAL-first: every committed write appends records and
// fsyncs, so COMMIT costs O(delta). A checkpoint folds the log into the
// segment store — it writes only the BATs of objects dirtied since the
// last checkpoint (temp-file + rename + fsync), publishes a manifest at
// the next generation, then starts a fresh log of that generation. A
// crash at any point leaves either the old manifest + old log (replayed
// on open) or the new manifest + a stale log the generation check
// discards: never a torn store.

type manifest struct {
	Version int `json:"version"`
	// WALGen pairs the manifest with its log: wal.log is replayed on open
	// only when its header carries the same generation.
	WALGen uint64          `json:"wal_gen,omitempty"`
	Tables []manifestTable `json:"tables"`
	Arrays []manifestArray `json:"arrays"`
}

type manifestCol struct {
	Name    string  `json:"name"`
	Type    string  `json:"type"`
	Default *string `json:"default,omitempty"`
	DefNull bool    `json:"default_null,omitempty"`
	// Encodings describes the per-slab physical encoding of the column's
	// segment at this checkpoint ("plain", "rle", "dict", "for",
	// "delta"); absent for all-plain segments. Descriptive only — the
	// segment file carries the authoritative layout — but it lets
	// operators and tooling see the compression mix without opening
	// segments, and EncodedBytes/LogicalBytes summarise the win.
	Encodings    []string `json:"encodings,omitempty"`
	EncodedBytes int64    `json:"encoded_bytes,omitempty"`
	LogicalBytes int64    `json:"logical_bytes,omitempty"`
	// Stats carries the column's property claims across restarts: the
	// order flags double the segment-file flags (the manifest is the
	// authority), the bounds exist only here. WAL replay then maintains
	// them incrementally through the ordinary DML paths, so a recovered
	// database resumes with sound statistics without rescanning.
	Stats *manifestStats `json:"stats,omitempty"`
}

type manifestStats struct {
	Sorted     bool    `json:"sorted,omitempty"`
	SortedDesc bool    `json:"sorted_desc,omitempty"`
	Key        bool    `json:"key,omitempty"`
	Min        *string `json:"min,omitempty"`
	Max        *string `json:"max,omitempty"`
}

// statsToManifest snapshots a column's property claims for the manifest
// (nil when nothing is claimed, keeping the JSON clean).
func statsToManifest(b *bat.BAT) *manifestStats {
	lo, hi, okMM := b.MinMax()
	if !b.Sorted && !b.SortedDesc && !b.Key && !okMM {
		return nil
	}
	ms := &manifestStats{Sorted: b.Sorted, SortedDesc: b.SortedDesc, Key: b.Key}
	if okMM {
		los, his := lo.String(), hi.String()
		ms.Min, ms.Max = &los, &his
	}
	return ms
}

// applyManifestStats installs manifest property claims on a loaded column.
func applyManifestStats(b *bat.BAT, ms *manifestStats, kind types.Kind) {
	if ms == nil {
		return
	}
	b.Sorted, b.SortedDesc, b.Key = ms.Sorted, ms.SortedDesc, ms.Key
	if ms.Min != nil && ms.Max != nil {
		lo, err1 := types.Str(*ms.Min).Cast(kind)
		hi, err2 := types.Str(*ms.Max).Cast(kind)
		if err1 == nil && err2 == nil {
			b.SetMinMax(lo, hi)
		}
	}
}

type manifestTable struct {
	Name    string        `json:"name"`
	Columns []manifestCol `json:"columns"`
	Deleted []int         `json:"deleted,omitempty"`
	// Ver is the checkpoint generation of this table's segment files;
	// 0 names the legacy unversioned <obj>.<col>.bat layout.
	Ver uint64 `json:"ver,omitempty"`
}

type manifestDim struct {
	Name      string `json:"name"`
	Start     int64  `json:"start"`
	Step      int64  `json:"step"`
	Stop      int64  `json:"stop"`
	Unbounded bool   `json:"unbounded,omitempty"`
}

type manifestArray struct {
	Name  string        `json:"name"`
	Dims  []manifestDim `json:"dims"`
	Attrs []manifestCol `json:"attrs"`
	Ver   uint64        `json:"ver,omitempty"`
}

// encToManifest records a column's slab-encoding descriptors on its
// manifest entry (no-op for plain columns, keeping the JSON clean).
func encToManifest(mc *manifestCol, b *bat.BAT) {
	if !b.Encoded() {
		return
	}
	encs := b.SlabEncodings()
	mc.Encodings = make([]string, len(encs))
	for i, e := range encs {
		mc.Encodings[i] = e.String()
	}
	mc.EncodedBytes = b.EncodedBytes()
	mc.LogicalBytes = b.LogicalBytes()
}

func colToManifest(c catalog.Column) manifestCol {
	mc := manifestCol{Name: c.Name, Type: c.Type.Name}
	if c.HasDef {
		if c.Default.IsNull() {
			mc.DefNull = true
		} else {
			s := c.Default.String()
			mc.Default = &s
		}
	}
	return mc
}

func colFromManifest(mc manifestCol) (catalog.Column, error) {
	st, ok := types.SQLTypeByName(mc.Type)
	if !ok {
		return catalog.Column{}, fmt.Errorf("unknown type %q in catalog", mc.Type)
	}
	col := catalog.Column{Name: mc.Name, Type: st}
	if mc.DefNull {
		col.HasDef = true
		col.Default = types.Null(st.Kind)
	} else if mc.Default != nil {
		v, err := types.Str(*mc.Default).Cast(st.Kind)
		if err != nil {
			return catalog.Column{}, fmt.Errorf("column %q default: %v", mc.Name, err)
		}
		col.HasDef = true
		col.Default = v
	}
	return col, nil
}

// segPath names the segment file of one column at a checkpoint version
// (version 0 is the legacy pre-WAL layout without a version infix).
func segPath(batDir, obj, col string, ver uint64) string {
	if ver == 0 {
		return filepath.Join(batDir, fmt.Sprintf("%s.%s.bat", obj, col))
	}
	return filepath.Join(batDir, fmt.Sprintf("%s.%s.%d.bat", obj, col, ver))
}

// Save forces a checkpoint: dirty objects are folded into segment files
// and the WAL is reset. The on-disk state is always complete afterwards
// (clean objects are covered by their existing segments). With group
// commit active the checkpoint runs on the commit loop — as a barrier
// behind every queued commit, so the fold can never strand an applied
// batch on the wrong side of a generation reset — and Save blocks until
// it completes.
func (db *DB) Save() error {
	db.mu.Lock()
	if db.commitQ == nil {
		defer db.mu.Unlock()
		return db.checkpointLocked()
	}
	req := &commitReq{ckpt: true, done: make(chan error, 1)}
	err := db.commitQ.enqueue(req)
	db.mu.Unlock()
	if err != nil {
		return err
	}
	return <-req.done
}

// WALSize returns the current write-ahead log size in bytes (0 for
// in-memory databases): header plus committed records since the last
// checkpoint.
func (db *DB) WALSize() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.wal == nil {
		return 0
	}
	return db.wal.Size()
}

// CheckpointBytes returns the bytes of BAT segment data written by
// checkpoints so far.
func (db *DB) CheckpointBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.ckptWritten
}

// maybeCheckpointLocked folds the log into the segment store once it
// crosses the configured threshold. Must be called under the writer lock.
func (db *DB) maybeCheckpointLocked() error {
	if db.readOnly != "" || db.replica {
		return nil // never write the store in read-only/replica mode
	}
	if db.wal == nil || db.ckptBytes <= 0 || db.wal.Size() <= db.ckptBytes {
		return nil
	}
	return db.checkpointLocked()
}

// checkpointLocked writes the BAT segments of every object dirtied since
// the last checkpoint at the next generation, publishes the manifest,
// and resets the WAL to that generation. Must be called under the writer
// lock.
func (db *DB) checkpointLocked() error {
	if db.dir == "" {
		return fmt.Errorf("database is in-memory; open it with a directory to persist")
	}
	if db.replica {
		// A checkpoint would reset the log to a new local generation,
		// destroying the byte-identity with the primary's log that the
		// replica's resume position depends on.
		return fmt.Errorf("replica: checkpoints are driven by the primary")
	}
	if db.readOnly != "" {
		return fmt.Errorf("read-only (%s): checkpoint refused", db.readOnly)
	}
	if db.txn != nil {
		// The live catalog holds uncommitted effects whose WAL records are
		// still pending; folding it into segments would double-apply them
		// on COMMIT + crash (and persist them on ROLLBACK).
		return fmt.Errorf("cannot checkpoint while a transaction is open")
	}
	// Past the guard clauses, every failure is a durability-affecting I/O
	// error: latch read-only degraded mode so writes are refused instead
	// of diverging further from the disk. A later successful checkpoint
	// (Save, Close) or a reopen clears it.
	if err := db.checkpointIOLocked(); err != nil {
		db.degradeLocked(fmt.Errorf("checkpoint: %v", err))
		return err
	}
	return nil
}

// checkpointIOLocked is the I/O body of checkpointLocked.
func (db *DB) checkpointIOLocked() error {
	batDir := filepath.Join(db.dir, "bats")
	if err := db.fs.MkdirAll(batDir, 0o755); err != nil {
		return err
	}
	newGen := db.walGen + 1

	// Write the segments of data-dirty objects first: until the manifest
	// rename below, nothing references them. Meta-dirty objects (deletion
	// mask changes) are covered by the manifest alone.
	// Dirty columns are re-encoded before the fold: EncodeAuto picks a
	// per-slab encoding (RLE/dict/FOR/delta) where it at least halves the
	// slab, and the encoded BAT replaces the in-memory column too — reads
	// serve the compressed form, mutations decode transparently, and the
	// next checkpoint re-evaluates. The encoded column round-trips the
	// plain tail bit-exactly, so this never changes query results.
	for name, dataDirty := range db.ckptDirty {
		if !dataDirty {
			continue
		}
		if t, ok := db.cat.Table(name); ok {
			for i, c := range t.Columns {
				t.Bats[i] = bat.EncodeAuto(t.Bats[i])
				n, err := t.Bats[i].SaveSizeFS(db.fs, segPath(batDir, t.Name, c.Name, newGen))
				if err != nil {
					return fmt.Errorf("checkpoint table %s: %v", t.Name, err)
				}
				db.ckptWritten += n
			}
			t.Version = newGen
			continue
		}
		if a, ok := db.cat.Array(name); ok {
			for i, c := range a.Attrs {
				a.AttrBats[i] = bat.EncodeAuto(a.AttrBats[i])
				n, err := a.AttrBats[i].SaveSizeFS(db.fs, segPath(batDir, a.Name, c.Name, newGen))
				if err != nil {
					return fmt.Errorf("checkpoint array %s: %v", a.Name, err)
				}
				db.ckptWritten += n
			}
			a.Version = newGen
		}
		// Dropped objects simply vanish from the manifest.
	}
	// Make the segment renames durable before a manifest references them.
	if err := db.fs.SyncDir(batDir); err != nil {
		return err
	}

	m := manifest{Version: 3, WALGen: newGen}
	for _, name := range db.cat.TableNames() {
		t, _ := db.cat.Table(name)
		mt := manifestTable{Name: t.Name, Ver: t.Version}
		for ci, c := range t.Columns {
			mc := colToManifest(c)
			mc.Stats = statsToManifest(t.Bats[ci])
			encToManifest(&mc, t.Bats[ci])
			mt.Columns = append(mt.Columns, mc)
		}
		if t.Deleted != nil {
			for i := 0; i < t.PhysRows(); i++ {
				if t.Deleted.Get(i) {
					mt.Deleted = append(mt.Deleted, i)
				}
			}
		}
		m.Tables = append(m.Tables, mt)
	}
	for _, name := range db.cat.ArrayNames() {
		a, _ := db.cat.Array(name)
		ma := manifestArray{Name: a.Name, Ver: a.Version}
		for k, d := range a.Shape {
			ma.Dims = append(ma.Dims, manifestDim{
				Name: d.Name, Start: d.Start, Step: d.Step, Stop: d.Stop,
				Unbounded: a.Unbounded[k],
			})
		}
		for ci, c := range a.Attrs {
			mc := colToManifest(c)
			mc.Stats = statsToManifest(a.AttrBats[ci])
			encToManifest(&mc, a.AttrBats[ci])
			ma.Attrs = append(ma.Attrs, mc)
		}
		m.Arrays = append(m.Arrays, ma)
	}
	if err := writeManifest(db.fs, db.dir, m); err != nil {
		return err
	}

	// The manifest now covers everything the log held: start generation
	// newGen with an empty log. A crash before this point leaves the old
	// manifest + old log (still replayable); after the manifest rename the
	// old log's generation no longer matches and is discarded on open.
	if db.wal != nil {
		db.syncsRetired += db.wal.Syncs()
		_ = db.wal.Close()
	}
	l, err := wal.CreateFS(db.fs, filepath.Join(db.dir, "wal.log"), newGen)
	if err != nil {
		// The manifest is already durable but there is no log to append
		// to: latch degraded mode (reads stay up, a later Save can retry)
		// instead of silently accepting non-durable writes.
		db.wal = nil
		return fmt.Errorf("resetting wal: %v", err)
	}
	db.wal = l
	db.walGen = newGen
	clear(db.ckptDirty)
	// A successful checkpoint folds the full in-memory state into the
	// store, re-converging disk with memory: any earlier durability
	// failure is healed and writes may resume.
	db.degraded = nil
	db.gcSegments(batDir, m)
	return nil
}

// writeManifest atomically replaces catalog.json (temp file + fsync +
// rename + directory fsync).
func writeManifest(fsys vfs.FS, dir string, m manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "catalog.json.tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, filepath.Join(dir, "catalog.json")); err != nil {
		return err
	}
	return fsys.SyncDir(dir)
}

// gcSegments removes segment files the new manifest no longer references
// (old versions, dropped objects, stale temp files). Best effort: a
// leftover file is wasted space, not corruption.
func (db *DB) gcSegments(batDir string, m manifest) {
	keep := map[string]struct{}{}
	for _, mt := range m.Tables {
		for _, c := range mt.Columns {
			keep[filepath.Base(segPath(batDir, mt.Name, c.Name, mt.Ver))] = struct{}{}
		}
	}
	for _, ma := range m.Arrays {
		for _, c := range ma.Attrs {
			keep[filepath.Base(segPath(batDir, ma.Name, c.Name, ma.Ver))] = struct{}{}
		}
	}
	entries, err := db.fs.ReadDir(batDir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if _, ok := keep[e.Name()]; !ok {
			_ = db.fs.Remove(filepath.Join(batDir, e.Name()))
		}
	}
}

// load reads the checkpoint manifest and its segment files into the live
// catalog and records the WAL generation to pair with. The WAL itself is
// replayed afterwards by recoverWAL.
func (db *DB) load() error {
	path := filepath.Join(db.dir, "catalog.json")
	data, err := db.fs.ReadFile(path)
	if os.IsNotExist(err) {
		return db.fs.MkdirAll(db.dir, 0o755) // fresh database
	}
	if err != nil {
		return err
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("corrupt catalog: %v", err)
	}
	// Version 2 added segment versioning, version 3 per-column encoding
	// descriptors; both load older manifests unchanged (a v2 manifest
	// simply describes all-plain segments).
	if m.Version < 1 || m.Version > 3 {
		return fmt.Errorf("unsupported catalog version %d", m.Version)
	}
	db.walGen = m.WALGen
	batDir := filepath.Join(db.dir, "bats")
	for _, mt := range m.Tables {
		t := &catalog.Table{Name: mt.Name, Version: mt.Ver}
		for _, mc := range mt.Columns {
			col, err := colFromManifest(mc)
			if err != nil {
				return err
			}
			t.Columns = append(t.Columns, col)
			b, err := bat.LoadFS(db.fs, segPath(batDir, mt.Name, mc.Name, mt.Ver))
			if err != nil {
				return fmt.Errorf("table %s column %s: %v", mt.Name, mc.Name, err)
			}
			applyManifestStats(b, mc.Stats, col.Type.Kind)
			t.Bats = append(t.Bats, b)
		}
		if len(mt.Deleted) > 0 {
			t.Deleted = bat.NewBitmap(t.PhysRows())
			for _, i := range mt.Deleted {
				if i < 0 || i >= t.PhysRows() {
					return fmt.Errorf("table %s: deleted row %d out of range", mt.Name, i)
				}
				t.Deleted.Set(i, true)
			}
		}
		if err := db.cat.AddTable(t); err != nil {
			return err
		}
	}
	for _, ma := range m.Arrays {
		a := &catalog.Array{Name: ma.Name, Version: ma.Ver}
		for _, md := range ma.Dims {
			a.Shape = append(a.Shape, shape.Dim{Name: md.Name, Start: md.Start, Step: md.Step, Stop: md.Stop})
			a.Unbounded = append(a.Unbounded, md.Unbounded)
		}
		for _, mc := range ma.Attrs {
			col, err := colFromManifest(mc)
			if err != nil {
				return err
			}
			a.Attrs = append(a.Attrs, col)
			b, err := bat.LoadFS(db.fs, segPath(batDir, ma.Name, mc.Name, ma.Ver))
			if err != nil {
				return fmt.Errorf("array %s attribute %s: %v", ma.Name, mc.Name, err)
			}
			applyManifestStats(b, mc.Stats, col.Type.Kind)
			a.AttrBats = append(a.AttrBats, b)
		}
		if err := a.RebuildDims(); err != nil {
			return err
		}
		if err := db.cat.AddArray(a); err != nil {
			return err
		}
	}
	return nil
}

// recoverWAL opens the write-ahead log, replaying the tail of committed
// effects the last checkpoint does not cover. A log from a different
// generation is a leftover of an interrupted (but completed-enough)
// checkpoint and is discarded. Torn or checksum-failing trailing records
// are truncated by the log layer; a record that fails to decode or apply
// aborts the open with a recovery error.
func (db *DB) recoverWAL() error {
	path := filepath.Join(db.dir, "wal.log")
	gen, err := wal.HeaderFS(db.fs, path)
	if os.IsNotExist(err) {
		l, cerr := wal.CreateFS(db.fs, path, db.walGen)
		if cerr != nil {
			return cerr
		}
		db.wal = l
		return nil
	}
	if err != nil {
		return fmt.Errorf("wal recovery: %v", err)
	}
	if gen != db.walGen {
		// Pre-checkpoint leftover: its effects are already in the
		// segment store. Replace it with a fresh log of our generation.
		l, cerr := wal.CreateFS(db.fs, path, db.walGen)
		if cerr != nil {
			return cerr
		}
		db.wal = l
		return nil
	}
	l, err := wal.OpenFS(db.fs, path, db.applyWALBatch)
	if err != nil {
		return fmt.Errorf("wal recovery: %v", err)
	}
	if n := l.Truncated(); n > 0 {
		// The discarded bytes were written but never became a committed
		// record — a real (if expected) data-loss window after a crash
		// mid-append. Logged and kept on the open result (WALTruncated)
		// so operators and replicas can see it instead of the old
		// silent truncation.
		log.Printf("sciql: wal recovery truncated %d torn trailing bytes of %s (generation %d, %d records kept)",
			n, path, l.Gen(), l.Records())
	}
	db.wal = l
	return nil
}

// discardWALPending drops queued records (ROLLBACK, session abort).
func (db *DB) discardWALPending() {
	db.walPending = db.walPending[:0]
}
