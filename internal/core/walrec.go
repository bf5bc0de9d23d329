package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/shape"
	"repro/internal/types"
	"repro/internal/wal"
)

// WAL record encoding: every committed write statement appends one
// logical record describing the effect it applied — not the SQL text, so
// replay needs no parser and is deterministic by construction. A record is
// an opcode byte and a body:
//
//	create table/array  the schema as JSON (the checkpoint's manifest structs)
//	drop                isArray byte, name
//	alter dimension     name, dimension ordinal, start, step, stop
//	table append        name, column count, n, one column per table column
//	                    (n × columns ≤ maxRecordCells; larger appends split)
//	table update        name, SET ordinals, n, positions, one column per SET
//	table delete        name, n, positions
//	array insert        name, the (possibly grown) dimension ranges,
//	                    attribute ordinals, n, positions, one column each
//	array update        name, attribute ordinals, n, positions, one column each
//	array delete        name, n, positions
//	bulk load           name, attribute ordinal, one int column of every cell
//
// Integers are varints, names and ordinal lists length-prefixed. n is the
// row count of the write; positions (row or cell ordinals) and columns are
// bat's typed column codec (internal/bat/column.go): one start and a
// frame-of-reference column of gaps for the positions, one typed column
// per value target — the statement's own value columns, already cast to
// their targets' kinds, so encoding is a pass per column, not per cell.
// An UPDATE of every cell to a constant logs a few bytes.
//
// Logs written before the typed records hold the same writes as per-cell
// tagged values under their own opcodes (the V1 opcodes below). They are
// decode-only (walrec_v1.go): old logs replay, nothing writes them.
//
// Replay (applyWALRecord) is the recovery half, and a replica's apply: it
// decodes a record into the write set the live statement staged — a
// table's append columns, positions with SET ordinals and typed value
// columns, an arrayWrite — and applies it with the statement's own
// mutation (appendRows, writeTable, writeArray, writeCells, setAttr,
// addTable, addArray, dropObject). Replay therefore changes storage,
// copy-on-write state and dirty marks exactly as the statement did, and a
// snapshot a reader holds never changes under it. Every decode is
// bounds-checked and every name, ordinal, position, shape and value is
// validated before the mutation runs — row counts against the rows or
// cells of the target (a table append's against maxRecordCells), never
// against the record's length, since a constant column of any length
// takes a few bytes — so a
// corrupted-but-checksum-valid record yields a clean recovery error,
// never a panic, and changes nothing: replay is atomic per record.

// Record opcodes (first payload byte).
const (
	recCreateTable byte = iota + 1
	recCreateArray
	recDrop
	recAlterDim
	// Decode-only: DML records with per-cell tagged values (walrec_v1.go).
	recTableAppendV1
	recTableUpdateV1
	recTableDeleteV1
	recArrayCellsV1
	recArrayUpdateV1
	recArrayDeleteV1
	recBulkAttrIntsV1
	// Typed DML records: positions and values as bat columns.
	recTableAppend
	recTableUpdate
	recTableDelete
	recArrayCells // INSERT INTO array: the grown shape + cell overwrites
	recArrayUpdate
	recArrayDelete
	recBulkAttr
)

// maxReplayCells bounds array shapes, and the rows of a table, accepted
// during replay; anything larger is treated as corruption (it would dwarf
// what this engine can materialise anyway) instead of driving a huge
// allocation.
const maxReplayCells = 1 << 31

// maxRecordCells bounds the cells (rows × columns) of one table append
// record: as many 8-byte values as the largest record holds. A constant
// column takes a few bytes whatever its length, so neither the record's
// size nor the target's rows bound an append; without this a record of a
// few dozen bytes could make replay allocate gigabytes. Larger appends
// are logged as several records (encTableAppend).
const maxRecordCells = wal.MaxRecord / 8

// ------------------------------------------------------------- encoding

type recEnc struct{ b []byte }

func newRecEnc(op byte) *recEnc { return &recEnc{b: []byte{op}} }

func (e *recEnc) u64(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *recEnc) i64(v int64)  { e.b = binary.AppendVarint(e.b, v) }

func (e *recEnc) str(s string) {
	e.u64(uint64(len(s)))
	e.b = append(e.b, s...)
}

func (e *recEnc) bool(v bool) {
	if v {
		e.b = append(e.b, 1)
	} else {
		e.b = append(e.b, 0)
	}
}

func (e *recEnc) dims(sh shape.Shape) {
	e.u64(uint64(len(sh)))
	for _, d := range sh {
		e.i64(d.Start)
		e.i64(d.Step)
		e.i64(d.Stop)
	}
}

// columns appends the row count n, the positions when the record has
// them (pos != nil) and one typed column per value target.
func (e *recEnc) columns(n int, pos []int, vals []*bat.BAT) {
	e.u64(uint64(n))
	e.b = bat.AppendPositions(e.b, pos)
	for _, v := range vals {
		e.b = bat.AppendColumn(e.b, v)
	}
}

func (e *recEnc) ordinals(idx []int) {
	e.u64(uint64(len(idx)))
	for _, i := range idx {
		e.u64(uint64(i))
	}
}

// ------------------------------------------------------------- decoding

type recDec struct {
	b   []byte
	off int
	err error
}

func (d *recDec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wal record: "+format, args...)
	}
}

func (d *recDec) u64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated uvarint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *recDec) i64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b[d.off:])
	if n <= 0 {
		d.fail("truncated varint at %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *recDec) count(what string) int {
	v := d.u64()
	if d.err == nil && v > uint64(len(d.b)) {
		// Any per-item count is bounded by the record size (every item
		// takes at least one byte), so a larger count is corruption.
		d.fail("implausible %s count %d", what, v)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// index decodes a row/cell/column ordinal: unlike count it is not
// bounded by the record size (a 5-byte record can delete row 1e6), only
// by what fits engine-side storage. Callers range-check it against the
// live object.
func (d *recDec) index(what string) int {
	v := d.u64()
	if d.err == nil && v > math.MaxInt32 {
		d.fail("implausible %s %d", what, v)
	}
	return int(v)
}

func (d *recDec) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.b) {
		d.fail("truncated byte at %d", d.off)
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *recDec) str() string {
	n := d.count("string length")
	if d.err != nil {
		return ""
	}
	if d.off+n > len(d.b) {
		d.fail("truncated string at %d", d.off)
		return ""
	}
	s := string(d.b[d.off : d.off+n])
	d.off += n
	return s
}

// ordinals decodes a list of column or attribute ordinals, each below n.
func (d *recDec) ordinals(what string, n int) []int {
	out := make([]int, d.count(what))
	for i := range out {
		out[i] = d.index(what + " index")
		if d.err == nil && out[i] >= n {
			d.fail("%s index %d out of range", what, out[i])
		}
	}
	return out
}

// rows decodes a write's row count, at most most: the rows or cells the
// target holds, or can grow to.
func (d *recDec) rows(most int) int {
	v := d.u64()
	if d.err == nil && v > uint64(max(most, 0)) {
		d.fail("%d rows, at most %d fit the target", v, most)
	}
	if d.err != nil {
		return 0
	}
	return int(v)
}

// positions decodes n row or cell positions, each below limit.
func (d *recDec) positions(n, limit int) []int {
	if d.err != nil {
		return nil
	}
	pos, used, err := bat.DecodePositions(d.b[d.off:], n, limit)
	if err != nil {
		d.fail("%v", err)
	}
	d.off += used
	return pos
}

// columns decodes one n-row typed column of each kind in kinds.
func (d *recDec) columns(n int, kinds []types.Kind) []*bat.BAT {
	cols := make([]*bat.BAT, len(kinds))
	for c, k := range kinds {
		if d.err != nil {
			return nil
		}
		col, used, err := bat.DecodeColumn(d.b[d.off:], k, n)
		if err != nil {
			d.fail("%v", err)
		}
		cols[c], d.off = col, d.off+used
	}
	return cols
}

// dims decodes dimension ranges onto a copy of base (names and count must
// match the live array; only the ranges travel in the record).
func (d *recDec) dims(base shape.Shape) shape.Shape {
	n := d.count("dimension")
	if d.err != nil {
		return nil
	}
	if n != len(base) {
		d.fail("dimension count %d, object has %d", n, len(base))
		return nil
	}
	out := append(shape.Shape{}, base...)
	for k := range out {
		out[k].Start = d.i64()
		out[k].Step = d.i64()
		out[k].Stop = d.i64()
	}
	d.checkShape(out)
	return out
}

// checkShape fails the decode on a shape checkReplayShape refuses.
func (d *recDec) checkShape(sh shape.Shape) {
	if d.err == nil {
		if err := checkReplayShape(sh); err != nil {
			d.fail("%v", err)
		}
	}
}

func (d *recDec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wal record: %d trailing bytes", len(d.b)-d.off)
	}
	return nil
}

// ------------------------------------------------------------- records

// logRecord queues an encoded record for the current statement; it is
// flushed (with one fsync) at the autocommit boundary or on COMMIT, and
// dropped on ROLLBACK. No-op for in-memory databases. Must be called
// under the writer lock.
func (db *DB) logRecord(rec []byte) {
	if db.wal == nil {
		return
	}
	db.walPending = append(db.walPending, rec)
}

// durable reports whether effects must be captured for the WAL. Sites
// that pay to collect deltas (e.g. UPDATE row captures) check it first.
func (db *DB) durable() bool { return db.wal != nil }

func encCreateTable(t *catalog.Table) []byte {
	mt := manifestTable{Name: t.Name}
	for _, c := range t.Columns {
		mt.Columns = append(mt.Columns, colToManifest(c))
	}
	data, _ := json.Marshal(mt)
	e := newRecEnc(recCreateTable)
	e.b = append(e.b, data...)
	return e.b
}

func encCreateArray(a *catalog.Array) []byte {
	ma := manifestArray{Name: a.Name}
	for k, d := range a.Shape {
		ma.Dims = append(ma.Dims, manifestDim{
			Name: d.Name, Start: d.Start, Step: d.Step, Stop: d.Stop,
			Unbounded: a.Unbounded[k],
		})
	}
	for _, c := range a.Attrs {
		ma.Attrs = append(ma.Attrs, colToManifest(c))
	}
	data, _ := json.Marshal(ma)
	e := newRecEnc(recCreateArray)
	e.b = append(e.b, data...)
	return e.b
}

func encDrop(name string, isArray bool) []byte {
	e := newRecEnc(recDrop)
	e.bool(isArray)
	e.str(name)
	return e.b
}

func encAlterDim(name string, dim int, d shape.Dim) []byte {
	e := newRecEnc(recAlterDim)
	e.str(name)
	e.u64(uint64(dim))
	e.i64(d.Start)
	e.i64(d.Step)
	e.i64(d.Stop)
	return e.b
}

// encTableAppend encodes the columns a table INSERT appended, as one
// record per maxCells cells (at least a row each); replay refuses a
// record of more than maxRecordCells.
func encTableAppend(name string, cols []*bat.BAT, maxCells int) [][]byte {
	n, step := cols[0].Len(), max(maxCells/len(cols), 1)
	var recs [][]byte
	for lo := 0; lo < n; lo += step {
		part := cols
		if hi := min(lo+step, n); lo > 0 || hi < n {
			part = make([]*bat.BAT, len(cols))
			for i, c := range cols {
				part[i] = c.Slice(lo, hi)
			}
		}
		e := newRecEnc(recTableAppend)
		e.str(name)
		e.u64(uint64(len(part)))
		e.columns(part[0].Len(), nil, part)
		recs = append(recs, e.b)
	}
	return recs
}

func encTableUpdate(name string, sets []int, pos []int, vals []*bat.BAT) []byte {
	e := newRecEnc(recTableUpdate)
	e.str(name)
	e.ordinals(sets)
	e.columns(len(pos), pos, vals)
	return e.b
}

// encDelete encodes the rows (recTableDelete) or cells (recArrayDelete) a
// DELETE removed.
func encDelete(op byte, name string, pos []int) []byte {
	e := newRecEnc(op)
	e.str(name)
	e.columns(len(pos), pos, nil)
	return e.b
}

// encArrayCells encodes array cell overwrites: the positions, then the
// values of each written attribute. INSERT records (recArrayCells) lead
// with the array's possibly grown shape.
func encArrayCells(op byte, name string, sh shape.Shape, attrs []int, pos []int, vals []*bat.BAT) []byte {
	e := newRecEnc(op)
	e.str(name)
	if op == recArrayCells {
		e.dims(sh)
	}
	e.ordinals(attrs)
	e.columns(len(pos), pos, vals)
	return e.b
}

// encBulkAttr encodes a bulk load: col holds every cell of attribute attr.
func encBulkAttr(name string, attr int, col *bat.BAT) []byte {
	e := newRecEnc(recBulkAttr)
	e.str(name)
	e.u64(uint64(attr))
	e.b = bat.AppendColumn(e.b, col)
	return e.b
}

// --------------------------------------------------------------- replay

// encodeBatch frames the records of one commit unit as a single WAL
// record: uvarint count, then each record length-prefixed. The log layer
// checksums the whole batch, making a commit atomic under torn writes.
func encodeBatch(recs [][]byte) []byte {
	n := binary.MaxVarintLen64
	for _, r := range recs {
		n += binary.MaxVarintLen64 + len(r)
	}
	b := make([]byte, 0, n)
	b = binary.AppendUvarint(b, uint64(len(recs)))
	for _, r := range recs {
		b = binary.AppendUvarint(b, uint64(len(r)))
		b = append(b, r...)
	}
	return b
}

// applyWALBatch replays one commit unit: every record in it, in order.
func (db *DB) applyWALBatch(batch []byte) error {
	d := &recDec{b: batch}
	n := d.count("batch record")
	if d.err != nil {
		return d.err
	}
	for i := 0; i < n; i++ {
		l := d.count("record length")
		if d.err != nil {
			return d.err
		}
		if d.off+l > len(batch) {
			return fmt.Errorf("wal record: truncated batch entry at %d", d.off)
		}
		rec := batch[d.off : d.off+l]
		d.off += l
		if err := db.applyWALRecord(rec); err != nil {
			return err
		}
	}
	return d.done()
}

// applyWALRecord decodes one record and applies it with the live
// statement's mutation (see the file comment). The mutation's own
// bookkeeping marks what it touched publish- and checkpoint-dirty:
// recovery publishes everything afterwards anyway, and streamed
// replication (ApplyReplicated) re-freezes exactly the objects a batch
// touched.
func (db *DB) applyWALRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("wal record: empty")
	}
	op, d := rec[0], &recDec{b: rec[1:]}
	switch op {
	case recCreateTable:
		return db.replayCreateTable(d.b)
	case recCreateArray:
		return db.replayCreateArray(d.b)
	case recDrop:
		isArray := d.byte() != 0
		name := d.str()
		if err := d.done(); err != nil {
			return err
		}
		if err := db.dropObject(name, isArray); err != nil {
			return fmt.Errorf("wal drop: %v", err)
		}
		return nil
	case recTableAppend, recTableUpdate, recTableDelete,
		recTableAppendV1, recTableUpdateV1, recTableDeleteV1:
		return db.replayTableWrite(op, d)
	case recAlterDim, recArrayCells, recArrayUpdate, recArrayDelete, recBulkAttr,
		recArrayCellsV1, recArrayUpdateV1, recArrayDeleteV1, recBulkAttrIntsV1:
		return db.replayArrayWrite(op, d)
	}
	return fmt.Errorf("wal record: unknown opcode %d", op)
}

func (db *DB) replayCreateTable(body []byte) error {
	var mt manifestTable
	if err := json.Unmarshal(body, &mt); err != nil {
		return fmt.Errorf("wal create table: %v", err)
	}
	cols := make([]catalog.Column, 0, len(mt.Columns))
	for _, mc := range mt.Columns {
		col, err := colFromManifest(mc)
		if err != nil {
			return fmt.Errorf("wal create table %s: %v", mt.Name, err)
		}
		cols = append(cols, col)
	}
	if err := db.addTable(catalog.NewTable(mt.Name, cols)); err != nil {
		return fmt.Errorf("wal create table: %v", err)
	}
	return nil
}

func (db *DB) replayCreateArray(body []byte) error {
	var ma manifestArray
	if err := json.Unmarshal(body, &ma); err != nil {
		return fmt.Errorf("wal create array: %v", err)
	}
	a, err := arrayFromManifest(ma)
	if err != nil {
		return fmt.Errorf("wal create array %s: %v", ma.Name, err)
	}
	if err := db.addArray(a); err != nil {
		return fmt.Errorf("wal create array: %v", err)
	}
	return nil
}

// arrayFromManifest materialises a fresh array from schema metadata (used
// by CREATE ARRAY replay; attribute cells start at their defaults — cell
// writes follow as separate records).
func arrayFromManifest(ma manifestArray) (*catalog.Array, error) {
	var (
		sh        shape.Shape
		unbounded []bool
	)
	for _, md := range ma.Dims {
		sh = append(sh, shape.Dim{Name: md.Name, Start: md.Start, Step: md.Step, Stop: md.Stop})
		unbounded = append(unbounded, md.Unbounded)
	}
	if err := checkReplayShape(sh); err != nil {
		return nil, err
	}
	attrs := make([]catalog.Column, 0, len(ma.Attrs))
	for _, mc := range ma.Attrs {
		col, err := colFromManifest(mc)
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, col)
	}
	return catalog.NewArray(ma.Name, sh, attrs, unbounded)
}

// checkReplayShape rejects shapes a corrupt record could smuggle in: a
// zero step, a negative extent, or a cell count past maxReplayCells.
func checkReplayShape(sh shape.Shape) error {
	cells := int64(1)
	for _, d := range sh {
		if d.Step == 0 {
			return fmt.Errorf("zero step in dimension %q", d.Name)
		}
		n := int64(d.N())
		if n < 0 {
			return fmt.Errorf("negative extent in dimension %q", d.Name)
		}
		if n > 0 && cells > maxReplayCells/n {
			return fmt.Errorf("implausible cell count")
		}
		cells *= n
	}
	return nil
}

// kindsOf lists the kinds of the columns at the ordinals idx.
func kindsOf(cols []catalog.Column, idx []int) []types.Kind {
	out := make([]types.Kind, len(idx))
	for k, i := range idx {
		out[k] = cols[i].Type.Kind
	}
	return out
}

// replayTableWrite decodes a table append, update or delete record into
// the statement's write set and applies it with appendRows or writeTable.
func (db *DB) replayTableWrite(op byte, d *recDec) error {
	name := d.str()
	if d.err != nil {
		return d.err
	}
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("wal record: no such table %q", name)
	}
	var (
		pos, cols []int
		vals      []*bat.BAT
	)
	rows := t.PhysRows()
	switch op {
	case recTableAppend, recTableAppendV1:
		cols = make([]int, d.count("column"))
		if d.err == nil && len(cols) != len(t.Columns) {
			return fmt.Errorf("wal record: table %q has %d columns, record has %d", name, len(t.Columns), len(cols))
		}
		for i := range cols {
			cols[i] = i
		}
		if op == recTableAppendV1 {
			_, vals = d.cellsV1(-1, kindsOf(t.Columns, cols))
			break
		}
		// An append grows the table by its row count: bounded like a
		// shape, and by the cells one record may hold.
		n := d.rows(min(maxReplayCells-rows, maxRecordCells/max(len(cols), 1)))
		vals = d.columns(n, kindsOf(t.Columns, cols))
	case recTableUpdate:
		cols = d.ordinals("column", len(t.Columns))
		n := d.rows(rows)
		pos = d.positions(n, rows)
		vals = d.columns(n, kindsOf(t.Columns, cols))
	case recTableUpdateV1:
		cols = d.ordinals("column", len(t.Columns))
		pos, vals = d.cellsV1(rows, kindsOf(t.Columns, cols))
	case recTableDelete:
		pos = d.positions(d.rows(rows), rows)
	case recTableDeleteV1:
		pos = d.positionsV1(rows)
	}
	if err := d.done(); err != nil {
		return err
	}
	if op == recTableAppend || op == recTableAppendV1 {
		return db.appendRows(t, vals)
	}
	return db.writeTable(t, op == recTableDelete || op == recTableDeleteV1, pos, cols, vals)
}

// replayArrayWrite decodes an array record into the statement's write
// set and applies it with writeCells (INSERT, ALTER DIMENSION),
// writeArray (UPDATE, DELETE) or setAttr (bulk load).
func (db *DB) replayArrayWrite(op byte, d *recDec) error {
	name := d.str()
	if d.err != nil {
		return d.err
	}
	a, ok := db.cat.Array(name)
	if !ok {
		return fmt.Errorf("wal record: no such array %q", name)
	}
	w := &arrayWrite{shape: a.Shape}
	switch op {
	case recAlterDim:
		k := d.index("dimension index")
		start, step, stop := d.i64(), d.i64(), d.i64()
		if d.err == nil && k >= len(a.Shape) {
			d.fail("dimension index %d out of range", k)
		}
		if d.err == nil {
			w.shape = append(shape.Shape{}, a.Shape...)
			w.shape[k].Start, w.shape[k].Step, w.shape[k].Stop = start, step, stop
			d.checkShape(w.shape)
		}
	case recArrayCells, recArrayUpdate, recArrayCellsV1, recArrayUpdateV1:
		if op == recArrayCells || op == recArrayCellsV1 {
			w.shape = d.dims(a.Shape)
		}
		w.attrs = d.ordinals("attribute", len(a.Attrs))
		kinds, cells := kindsOf(a.Attrs, w.attrs), w.shape.Cells()
		if op == recArrayCellsV1 || op == recArrayUpdateV1 {
			w.pos, w.vals = d.cellsV1(cells, kinds)
			break
		}
		// An INSERT's write set holds one row per cell at most (see
		// stageArrayInsert), in the grown shape.
		n := d.rows(cells)
		w.pos = d.positions(n, cells)
		w.vals = d.columns(n, kinds)
	case recArrayDelete:
		w.pos = d.positions(d.rows(a.Cells()), a.Cells())
	case recArrayDeleteV1:
		w.pos = d.positionsV1(a.Cells())
	case recBulkAttr, recBulkAttrIntsV1:
		w.attrs = []int{d.index("attribute index")}
		switch ai := w.attrs[0]; {
		case d.err != nil:
		case ai >= len(a.Attrs):
			d.fail("attribute index %d out of range", ai)
		case a.Attrs[ai].Type.Kind != types.KindInt:
			d.fail("attribute %q is %s, not integer", a.Attrs[ai].Name, a.Attrs[ai].Type.Kind)
		case op == recBulkAttrIntsV1:
			w.vals = []*bat.BAT{d.bulkV1(a.Cells())}
		default:
			w.vals = d.columns(a.Cells(), []types.Kind{types.KindInt})
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	switch op {
	case recArrayUpdate, recArrayDelete, recArrayUpdateV1, recArrayDeleteV1:
		del := op == recArrayDelete || op == recArrayDeleteV1
		return db.writeArray(a, del, w.pos, w.attrs, w.vals)
	case recBulkAttr, recBulkAttrIntsV1:
		db.setAttr(a, w.attrs[0], w.vals[0])
		return nil
	}
	_, err := db.writeCells(db.newJob(), a, w)
	return err
}
