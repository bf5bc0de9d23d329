package core

import "repro/internal/catalog"

// Snapshot publication: the copy-on-write half of the engine's
// concurrency model, and the whole of its transaction rollback.
//
// The live catalog (db.cat) is owned by the writer lock. Readers never
// touch it: they execute against db.view, an immutable catalog published
// after every autocommitted write statement, on COMMIT and after a
// checkpoint (which re-versions and re-encodes what it folds).
// Publication is incremental — it clones the previous snapshot's maps and
// re-freezes only the objects the statement actually dirtied. Freezing (catalog.Freeze /
// bat.Freeze) shares the backing data arrays with the live object but
// fixes row counts, ends the frozen slices at that count and deep-clones
// the NULL/deletion bitmaps, so:
//
//   - appends by the writer land at or beyond every published count and
//     stay invisible to readers;
//   - bitmap flips (DELETE, NULL punching) hit the writer's private mask;
//   - in-place data overwrites (UPDATE, array INSERT) go through
//     bat.Writable, which deep-clones shared storage first.
//
// The result: a snapshot, once published, is immutable forever, and a
// reader holding one sees a consistent statement boundary no matter what
// the writer does next.
//
// Rollback = re-adopt the snapshot. An open transaction publishes
// nothing, so the snapshot is its base; ROLLBACK runs the publication
// loop the other way round (snapshot → live) over the same dirty set.
// The live objects it installs are frozen copies themselves, so their
// first overwrite clones and their first append reallocates: neither can
// reach storage the snapshot, or a result read inside the transaction,
// still shows.

// touch records that an object's storage or existence changed since the
// last publication (snapshot granularity) and since the last checkpoint
// (persistence granularity). touchMeta is the variant for changes that
// live only in the manifest (a table's deletion mask): the object must
// re-publish and re-manifest, but its segment files still match and need
// no rewrite. Must be called under the writer lock.
func (db *DB) touch(name string)     { db.touchLevel(name, true) }
func (db *DB) touchMeta(name string) { db.touchLevel(name, false) }

func (db *DB) touchLevel(name string, data bool) {
	db.dirty[name] = struct{}{}
	if db.dir == "" {
		return
	}
	n := catalog.Normalize(name)
	db.ckptDirty[n] = db.ckptDirty[n] || data
}

// publishLocked builds and installs a fresh immutable snapshot from the
// previous one, re-freezing the dirty objects. Must be called under the
// writer lock.
func (db *DB) publishLocked() {
	if len(db.dirty) == 0 {
		return
	}
	db.publishOnto(db.view.Load().CloneRefs())
}

// publishAllLocked installs a snapshot of the whole live catalog, built
// from scratch: the first publication of an opened database and the one
// after a replica's bootstrap. Objects absent from the live catalog are
// absent from the new snapshot. Must be called under the writer lock.
func (db *DB) publishAllLocked() {
	for _, n := range db.cat.TableNames() {
		db.dirty[n] = struct{}{}
	}
	for _, n := range db.cat.ArrayNames() {
		db.dirty[n] = struct{}{}
	}
	db.publishOnto(catalog.New())
}

func (db *DB) publishOnto(snap *catalog.Catalog) {
	refreeze(snap, db.cat, db.dirty)
	clear(db.dirty)
	db.view.Store(snap)
}

// refreeze makes dst's object of every listed name a frozen copy of
// src's, or removes it when src has none. Publication runs it live →
// snapshot, rollback snapshot → live.
func refreeze(dst, src *catalog.Catalog, names map[string]struct{}) {
	for name := range names {
		if t, ok := src.Table(name); ok {
			dst.ReplaceTable(t.Freeze())
		} else if a, ok := src.Array(name); ok {
			dst.ReplaceArray(a.Freeze())
		} else {
			dst.Remove(name)
		}
	}
}
