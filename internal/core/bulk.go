package core

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/types"
)

// BulkSetAttrInts replaces every cell of an array attribute with the given
// data, in row-major cell order. It is the fast ingestion path used by the
// data vault (internal/vault) to load images without going through one
// INSERT per pixel, mirroring MonetDB's bulk-loading interfaces.
func (db *DB) BulkSetAttrInts(array, attr string, data []int64) error {
	req, err := db.bulkSetAttrIntsLocked(array, attr, data)
	if req != nil {
		// Group commit: the batch is on the queue; wait for its fsync
		// outside the writer lock (see execStmtCtx).
		if werr := <-req.done; werr != nil && err == nil {
			err = werr
		}
	}
	return err
}

func (db *DB) bulkSetAttrIntsLocked(array, attr string, data []int64) (*commitReq, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.writeBlockedErr(); err != nil {
		return nil, err
	}
	a, ok := db.cat.Array(array)
	if !ok {
		return nil, fmt.Errorf("no such array: %q", array)
	}
	ai, ok := a.AttrIndex(attr)
	if !ok {
		return nil, fmt.Errorf("array %q has no attribute %q", array, attr)
	}
	if len(data) != a.Cells() {
		return nil, fmt.Errorf("array %q has %d cells, got %d values", array, a.Cells(), len(data))
	}
	if k := a.Attrs[ai].Type.Kind; k != types.KindInt {
		return nil, fmt.Errorf("attribute %q is %s, not integer", attr, k)
	}
	col := bat.FromInts(append([]int64(nil), data...))
	db.setAttr(a, ai, col)
	if db.durable() {
		db.logRecord(encBulkAttr(a.Name, ai, col))
	}
	if db.txn == nil {
		// The shared autocommit boundary: durability first, then
		// publication — and publish even when the flush fails, so readers
		// stay consistent with the applied in-memory state.
		return db.commitBoundaryLocked()
	}
	return nil, nil
}

// setAttr is the mutation of a bulk load, shared with WAL replay: col
// replaces attribute ai outright.
func (db *DB) setAttr(a *catalog.Array, ai int, col *bat.BAT) {
	db.noteModifyArray(a)
	a.AttrBats[ai] = col
}

// ReadAttrInts copies the cell values of an integer array attribute, in
// row-major cell order; holes read as (0, false).
func (db *DB) ReadAttrInts(array, attr string) ([]int64, []bool, error) {
	// Read from the published snapshot — consistent and concurrent with
	// other readers. With an explicit transaction open, read the live
	// catalog instead (read-your-writes: bulk loads inside a transaction
	// are unpublished until COMMIT); the read lock excludes the writer.
	db.mu.RLock()
	defer db.mu.RUnlock()
	cat := db.view.Load()
	if db.txn != nil {
		cat = db.cat
	}
	a, ok := cat.Array(array)
	if !ok {
		return nil, nil, fmt.Errorf("no such array: %q", array)
	}
	ai, ok := a.AttrIndex(attr)
	if !ok {
		return nil, nil, fmt.Errorf("array %q has no attribute %q", array, attr)
	}
	b := a.AttrBats[ai]
	if b.ValueKind() != types.KindInt && b.ValueKind() != types.KindOID {
		return nil, nil, fmt.Errorf("attribute %q is %s, not integer", attr, b.ValueKind())
	}
	vals := make([]int64, b.Len())
	valid := make([]bool, b.Len())
	src := b.DecodedInts()
	for i := 0; i < b.Len(); i++ {
		if !b.IsNull(i) {
			vals[i] = src[i]
			valid[i] = true
		}
	}
	return vals, valid, nil
}
