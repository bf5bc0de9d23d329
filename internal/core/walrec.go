package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/shape"
	"repro/internal/types"
)

// WAL record encoding: every committed write statement appends one
// logical record describing the effect it applied — not the SQL text, so
// replay needs no parser and is deterministic by construction. DDL
// records carry the schema as JSON (the same manifest structs the
// checkpoint writes); DML records carry tight binary deltas: varint
// framing, values tagged with their kind, row/cell positions as written.
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
// validated before the mutation runs, so a corrupted-but-checksum-valid
// record yields a clean recovery error, never a panic, and changes
// nothing: replay is atomic per record.

// Record opcodes (first payload byte).
const (
	recCreateTable byte = iota + 1
	recCreateArray
	recDrop
	recAlterDim
	recTableAppend
	recTableUpdate
	recTableDelete
	recArrayCells // INSERT INTO array: optional growth + cell overwrites
	recArrayUpdate
	recArrayDelete
	recBulkAttrInts
)

// maxReplayCells bounds array shapes accepted during replay; anything
// larger is treated as corruption (it would dwarf what this engine can
// materialise anyway) instead of driving a huge allocation.
const maxReplayCells = 1 << 31

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

// positions decodes a list of row or cell positions, each below n.
func (d *recDec) positions(n int) []int {
	out := make([]int, d.count("position"))
	for i := range out {
		out[i] = d.position(n)
	}
	return out
}

func (d *recDec) position(n int) int {
	p := d.index("position")
	if d.err == nil && p >= n {
		d.fail("position %d out of range [0,%d)", p, n)
	}
	return p
}

// cells decodes what recEnc.cells encodes: per row its position (each
// below limit; a negative limit means the rows carry none) and one
// tagged value per column, into a typed column of each kind in kinds.
func (d *recDec) cells(limit int, kinds []types.Kind) (pos []int, cols []*bat.BAT) {
	n := d.count("row")
	if n*len(kinds) > len(d.b)-d.off {
		// Every value takes at least one byte.
		d.fail("implausible row count %d for %d columns", n, len(kinds))
		n = 0
	}
	cols = make([]*bat.BAT, len(kinds))
	for c, k := range kinds {
		cols[c] = bat.New(k, n)
	}
	if limit >= 0 {
		pos = make([]int, n)
	}
	for j := 0; j < n && d.err == nil; j++ {
		if limit >= 0 {
			pos[j] = d.position(limit)
		}
		for _, col := range cols {
			d.value(col)
		}
	}
	return pos, cols
}

// value decodes one tagged value and appends it to col, converted as
// BAT.Replace converts a value: integers and floats to either numeric
// kind (a float truncated toward zero, failing outside the integer
// range), booleans and strings only to their own kind. Anything else is
// corruption.
func (d *recDec) value(col *bat.BAT) {
	tag := d.byte()
	from, to := types.Kind(tag&^0x80), col.Kind()
	toInt := to == types.KindInt || to == types.KindOID
	switch {
	case d.err != nil:
	case from > types.KindStr:
		d.fail("unknown value kind %d", from)
	case tag&0x80 != 0:
		col.AppendNull()
	case from == types.KindInt || from == types.KindOID:
		v := d.i64()
		switch {
		case toInt:
			col.AppendInt(v)
		case to == types.KindFloat:
			col.AppendFloat(float64(v))
		default:
			d.fail("%s value for a %s column", from, to)
		}
	case from == types.KindFloat:
		if d.off+8 > len(d.b) {
			d.fail("truncated float at %d", d.off)
			return
		}
		f := math.Float64frombits(binary.LittleEndian.Uint64(d.b[d.off:]))
		d.off += 8
		switch {
		case to == types.KindFloat:
			col.AppendFloat(f)
		case toInt:
			v, err := types.FloatToInt(f)
			if err != nil {
				d.fail("%v", err)
				return
			}
			col.AppendInt(v)
		default:
			d.fail("%s value for a %s column", from, to)
		}
	case from == types.KindVoid:
		d.fail("non-NULL void value")
	case from != to:
		d.fail("%s value for a %s column", from, to)
	case from == types.KindBool:
		col.AppendBool(d.byte() != 0)
	default:
		col.AppendStr(d.str())
	}
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

// encTableAppend encodes the columns a table INSERT appended: the column
// count, then every row's value in each column.
func encTableAppend(name string, cols []*bat.BAT) []byte {
	e := newRecEnc(recTableAppend)
	e.str(name)
	e.u64(uint64(len(cols)))
	e.cells(cols[0].Len(), nil, cols)
	return e.b
}

// encCol is a value column as the encoder reads it: the kind and the
// typed storage, decoded once.
type encCol struct {
	kind   types.Kind
	nulls  *bat.Bitmap
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
}

func newEncCol(b *bat.BAT) encCol {
	c := encCol{kind: b.ValueKind(), nulls: b.NullMask()}
	switch c.kind {
	case types.KindInt, types.KindOID:
		c.ints = b.Materialize().DecodedInts()
	case types.KindFloat:
		c.floats = b.DecodedFloats()
	case types.KindBool:
		c.bools = b.DecodedBools()
	case types.KindStr:
		c.strs = b.DecodedStrs()
	}
	return c
}

// cells appends the row count n and, per row j, its position pos[j] (no
// positions when pos is nil) and then row j of every value column: the
// new values of the rows or cells a write touched, already cast to their
// targets' kinds. A value is one kind byte (0x80 = NULL) plus its
// payload: a varint, 8 little-endian float bytes, a bool byte, or a
// length-prefixed string.
func (e *recEnc) cells(n int, pos []int, vals []*bat.BAT) {
	cols := make([]encCol, len(vals))
	for k, v := range vals {
		cols[k] = newEncCol(v)
	}
	// Grow once for the common sizes — a position of up to three bytes, a
	// tag and up to three bytes per value — instead of doubling.
	b := slices.Grow(e.b, n*(3+4*len(vals)))
	b = binary.AppendUvarint(b, uint64(n))
	for j := 0; j < n; j++ {
		if pos != nil {
			b = binary.AppendUvarint(b, uint64(pos[j]))
		}
		for c := range cols {
			col := &cols[c]
			if col.nulls.Get(j) {
				b = append(b, byte(col.kind)|0x80)
				continue
			}
			b = append(b, byte(col.kind))
			switch col.kind {
			case types.KindInt, types.KindOID:
				b = binary.AppendVarint(b, col.ints[j])
			case types.KindFloat:
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(col.floats[j]))
			case types.KindBool:
				if col.bools[j] {
					b = append(b, 1)
				} else {
					b = append(b, 0)
				}
			case types.KindStr:
				b = binary.AppendUvarint(b, uint64(len(col.strs[j])))
				b = append(b, col.strs[j]...)
			}
		}
	}
	e.b = b
}

func encTableUpdate(name string, cols []int, pos []int, vals []*bat.BAT) []byte {
	e := newRecEnc(recTableUpdate)
	e.str(name)
	e.u64(uint64(len(cols)))
	for _, c := range cols {
		e.u64(uint64(c))
	}
	e.cells(len(pos), pos, vals)
	return e.b
}

func encPositions(op byte, name string, idxs []int) []byte {
	e := newRecEnc(op)
	e.str(name)
	e.u64(uint64(len(idxs)))
	for _, i := range idxs {
		e.u64(uint64(i))
	}
	return e.b
}

// encArrayCells encodes array cell overwrites: per cell its position,
// then its value in each written attribute's column. INSERT records
// (recArrayCells) lead with the array's possibly grown shape.
func encArrayCells(op byte, name string, sh shape.Shape, attrs []int, pos []int, vals []*bat.BAT) []byte {
	e := newRecEnc(op)
	e.str(name)
	if op == recArrayCells {
		e.dims(sh)
	}
	e.u64(uint64(len(attrs)))
	for _, a := range attrs {
		e.u64(uint64(a))
	}
	e.cells(len(pos), pos, vals)
	return e.b
}

func encBulkAttrInts(name string, attr int, data []int64) []byte {
	e := newRecEnc(recBulkAttrInts)
	e.str(name)
	e.u64(uint64(attr))
	e.u64(uint64(len(data)))
	for _, v := range data {
		e.i64(v)
	}
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
	case recTableAppend, recTableUpdate, recTableDelete:
		return db.replayTableWrite(op, d)
	case recAlterDim, recArrayCells, recArrayUpdate, recArrayDelete, recBulkAttrInts:
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
	switch op {
	case recTableAppend:
		cols = make([]int, d.count("column"))
		if d.err == nil && len(cols) != len(t.Columns) {
			return fmt.Errorf("wal record: table %q has %d columns, record has %d", name, len(t.Columns), len(cols))
		}
		for i := range cols {
			cols[i] = i
		}
		_, vals = d.cells(-1, kindsOf(t.Columns, cols))
	case recTableUpdate:
		cols = d.ordinals("column", len(t.Columns))
		pos, vals = d.cells(t.PhysRows(), kindsOf(t.Columns, cols))
	default:
		pos = d.positions(t.PhysRows())
	}
	if err := d.done(); err != nil {
		return err
	}
	if op == recTableAppend {
		return db.appendRows(t, vals)
	}
	return db.writeTable(t, op == recTableDelete, pos, cols, vals)
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
	case recArrayCells, recArrayUpdate:
		if op == recArrayCells {
			w.shape = d.dims(a.Shape)
		}
		w.attrs = d.ordinals("attribute", len(a.Attrs))
		w.pos, w.vals = d.cells(w.shape.Cells(), kindsOf(a.Attrs, w.attrs))
	case recArrayDelete:
		w.pos = d.positions(a.Cells())
	case recBulkAttrInts:
		w.attrs = []int{d.index("attribute index")}
		data := make([]int64, d.count("value"))
		switch ai := w.attrs[0]; {
		case d.err != nil:
		case ai >= len(a.Attrs):
			d.fail("attribute index %d out of range", ai)
		case a.Attrs[ai].Type.Kind != types.KindInt:
			d.fail("attribute %q is %s, not integer", a.Attrs[ai].Name, a.Attrs[ai].Type.Kind)
		case len(data) != a.Cells():
			d.fail("%d values for %d cells of %q", len(data), a.Cells(), name)
		}
		for i := range data {
			data[i] = d.i64()
		}
		w.vals = []*bat.BAT{bat.FromInts(data)}
	}
	if err := d.done(); err != nil {
		return err
	}
	switch op {
	case recArrayUpdate, recArrayDelete:
		return db.writeArray(a, op == recArrayDelete, w.pos, w.attrs, w.vals)
	case recBulkAttrInts:
		db.setAttr(a, w.attrs[0], w.vals[0])
		return nil
	}
	_, err := db.writeCells(a, w)
	return err
}
