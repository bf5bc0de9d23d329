package core

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
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
// Replay (applyWALRecord) is the recovery half: it decodes a record and
// re-applies it to the live catalog. Every decode is bounds-checked and
// every apply validates object names, column counts and positions, so a
// corrupted-but-checksum-valid record yields a clean recovery error, not
// a panic.

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

// val encodes a scalar: one kind byte (0x80 = NULL) plus the payload.
func (e *recEnc) val(v types.Value) {
	k := v.Kind()
	if v.IsNull() {
		e.b = append(e.b, byte(k)|0x80)
		return
	}
	e.b = append(e.b, byte(k))
	switch k {
	case types.KindInt, types.KindOID:
		e.i64(v.Int64())
	case types.KindFloat:
		f, _ := v.AsFloat()
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		e.b = append(e.b, buf[:]...)
	case types.KindBool:
		e.bool(v.BoolVal())
	case types.KindStr:
		e.str(v.StrVal())
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

func (d *recDec) val() types.Value {
	tag := d.byte()
	if d.err != nil {
		return types.Value{}
	}
	k := types.Kind(tag &^ 0x80)
	if k > types.KindStr {
		d.fail("unknown value kind %d", k)
		return types.Value{}
	}
	if tag&0x80 != 0 {
		return types.Null(k)
	}
	switch k {
	case types.KindInt:
		return types.Int(d.i64())
	case types.KindOID:
		return types.Oid(types.OID(d.i64()))
	case types.KindFloat:
		if d.off+8 > len(d.b) {
			d.fail("truncated float at %d", d.off)
			return types.Value{}
		}
		bits := binary.LittleEndian.Uint64(d.b[d.off:])
		d.off += 8
		return types.Float(math.Float64frombits(bits))
	case types.KindBool:
		return types.Bool(d.byte() != 0)
	case types.KindStr:
		return types.Str(d.str())
	case types.KindVoid:
		d.fail("non-NULL void value")
	}
	return types.Value{}
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
	return out
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

func encTableAppend(name string, ncols int, rows [][]types.Value) []byte {
	e := newRecEnc(recTableAppend)
	e.str(name)
	e.u64(uint64(ncols))
	e.u64(uint64(len(rows)))
	for _, row := range rows {
		for _, v := range row {
			e.val(v)
		}
	}
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

// cells appends, per position j, the position and then row j of every
// value column: the new values of the rows or cells a write touched,
// already cast to their targets' kinds. Each value is exactly what
// val(col.Get(j)) appends, without boxing it.
func (e *recEnc) cells(pos []int, vals []*bat.BAT) {
	cols := make([]encCol, len(vals))
	for k, v := range vals {
		cols[k] = newEncCol(v)
	}
	// Grow once for the common sizes — a position of up to three bytes, a
	// tag and up to three bytes per value — instead of doubling.
	b := slices.Grow(e.b, len(pos)*(3+4*len(vals)))
	b = binary.AppendUvarint(b, uint64(len(pos)))
	for j, p := range pos {
		b = binary.AppendUvarint(b, uint64(p))
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
	e.cells(pos, vals)
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
	e.cells(pos, vals)
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

// applyWALRecord decodes one record and re-applies its effect to the live
// catalog during recovery. The touched object is marked checkpoint-dirty:
// its state now differs from its on-disk segment files.
func (db *DB) applyWALRecord(rec []byte) error {
	if len(rec) == 0 {
		return fmt.Errorf("wal record: empty")
	}
	op, body := rec[0], rec[1:]
	switch op {
	case recCreateTable:
		return db.applyCreateTable(body)
	case recCreateArray:
		return db.applyCreateArray(body)
	case recDrop:
		return db.applyDrop(body)
	case recAlterDim:
		return db.applyAlterDim(body)
	case recTableAppend:
		return db.applyTableAppend(body)
	case recTableUpdate:
		return db.applyTableUpdate(body)
	case recTableDelete:
		return db.applyTableDelete(body)
	case recArrayCells, recArrayUpdate:
		return db.applyArrayCells(op, body)
	case recArrayDelete:
		return db.applyArrayDelete(body)
	case recBulkAttrInts:
		return db.applyBulkAttrInts(body)
	default:
		return fmt.Errorf("wal record: unknown opcode %d", op)
	}
}

// ckptTouch marks a replayed object as diverged from its checkpointed
// segments; data=false when only manifest-level state (a deletion mask)
// changed. Replay runs outside any transaction, so no upgrade tracking.
// The object is also marked publish-dirty: recovery publishes everything
// afterwards anyway, and streamed replication (ApplyReplicated) relies
// on the mark to re-freeze exactly the objects a batch touched.
func (db *DB) ckptTouch(name string, data bool) {
	n := catalog.Normalize(name)
	db.ckptDirty[n] = db.ckptDirty[n] || data
	db.dirty[n] = struct{}{}
}

func (db *DB) applyCreateTable(body []byte) error {
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
	if err := db.cat.AddTable(catalog.NewTable(mt.Name, cols)); err != nil {
		return fmt.Errorf("wal create table: %v", err)
	}
	db.ckptTouch(mt.Name, true)
	return nil
}

func (db *DB) applyCreateArray(body []byte) error {
	var ma manifestArray
	if err := json.Unmarshal(body, &ma); err != nil {
		return fmt.Errorf("wal create array: %v", err)
	}
	a, err := arrayFromManifest(ma)
	if err != nil {
		return fmt.Errorf("wal create array %s: %v", ma.Name, err)
	}
	if err := db.cat.AddArray(a); err != nil {
		return fmt.Errorf("wal create array: %v", err)
	}
	db.ckptTouch(ma.Name, true)
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

func (db *DB) applyDrop(body []byte) error {
	d := &recDec{b: body}
	isArray := d.byte() != 0
	name := d.str()
	if err := d.done(); err != nil {
		return err
	}
	if isArray {
		if err := db.cat.DropArray(name); err != nil {
			return fmt.Errorf("wal drop: %v", err)
		}
	} else if err := db.cat.DropTable(name); err != nil {
		return fmt.Errorf("wal drop: %v", err)
	}
	db.ckptTouch(name, true)
	return nil
}

func (db *DB) applyAlterDim(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	k := d.index("dimension index")
	start, step, stop := d.i64(), d.i64(), d.i64()
	if err := d.done(); err != nil {
		return err
	}
	a, ok := db.cat.Array(name)
	if !ok {
		return fmt.Errorf("wal alter dimension: no such array %q", name)
	}
	if k >= len(a.Shape) {
		return fmt.Errorf("wal alter dimension: index %d out of range", k)
	}
	newShape := append(shape.Shape{}, a.Shape...)
	newShape[k].Start, newShape[k].Step, newShape[k].Stop = start, step, stop
	if err := checkReplayShape(newShape); err != nil {
		return fmt.Errorf("wal alter dimension: %v", err)
	}
	if err := reshapeArrayTo(a, newShape); err != nil {
		return fmt.Errorf("wal alter dimension: %v", err)
	}
	db.ckptTouch(name, true)
	return nil
}

// reshapeArrayTo re-grids every attribute onto newShape (overlapping
// cells keep their values, fresh cells get the attribute default) and
// rebuilds the dimension BATs. Shared by ALTER DIMENSION, unbounded
// growth and their WAL replays.
func reshapeArrayTo(a *catalog.Array, newShape shape.Shape) error {
	for i, col := range a.Attrs {
		def := col.Default
		if !col.HasDef {
			def = types.NullUnknown()
		}
		nb, err := gdk.Reshape(nil, a.AttrBats[i], a.Shape, newShape, def)
		if err != nil {
			return err
		}
		a.AttrBats[i] = nb
	}
	a.Shape = newShape
	return a.RebuildDims()
}

func (db *DB) applyTableAppend(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	ncols := d.count("column")
	nrows := d.count("row")
	if d.err != nil {
		return d.err
	}
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("wal append: no such table %q", name)
	}
	if ncols != len(t.Columns) {
		return fmt.Errorf("wal append: table %q has %d columns, record has %d", name, len(t.Columns), ncols)
	}
	for r := 0; r < nrows; r++ {
		for c := 0; c < ncols; c++ {
			v := d.val()
			if d.err != nil {
				return d.err
			}
			if err := t.Bats[c].Append(v); err != nil {
				return fmt.Errorf("wal append: table %q column %q: %v", name, t.Columns[c].Name, err)
			}
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	if t.Deleted != nil {
		t.Deleted.Resize(t.PhysRows())
	}
	db.ckptTouch(name, true)
	return nil
}

func (db *DB) applyTableUpdate(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	ncols := d.count("column")
	if d.err != nil {
		return d.err
	}
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("wal update: no such table %q", name)
	}
	cols := make([]int, ncols)
	for i := range cols {
		cols[i] = d.index("column index")
		if d.err == nil && cols[i] >= len(t.Columns) {
			return fmt.Errorf("wal update: column index %d out of range for %q", cols[i], name)
		}
	}
	nrows := d.count("row")
	phys := t.PhysRows()
	for r := 0; r < nrows; r++ {
		idx := d.index("row index")
		if d.err != nil {
			return d.err
		}
		if idx >= phys {
			return fmt.Errorf("wal update: row %d out of range for %q", idx, name)
		}
		for _, c := range cols {
			v := d.val()
			if d.err != nil {
				return d.err
			}
			if err := t.Bats[c].Replace(idx, v); err != nil {
				return fmt.Errorf("wal update: %v", err)
			}
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	db.ckptTouch(name, true)
	return nil
}

func (db *DB) applyTableDelete(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	n := d.count("row")
	if d.err != nil {
		return d.err
	}
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("wal delete: no such table %q", name)
	}
	phys := t.PhysRows()
	if t.Deleted == nil {
		t.Deleted = bat.NewBitmap(phys)
	}
	for i := 0; i < n; i++ {
		idx := d.index("row index")
		if d.err != nil {
			return d.err
		}
		if idx >= phys {
			return fmt.Errorf("wal delete: row %d out of range for %q", idx, name)
		}
		t.Deleted.Set(idx, true)
	}
	if err := d.done(); err != nil {
		return err
	}
	db.ckptTouch(name, false)
	return nil
}

func (db *DB) applyArrayCells(op byte, body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	if d.err != nil {
		return d.err
	}
	a, ok := db.cat.Array(name)
	if !ok {
		return fmt.Errorf("wal array write: no such array %q", name)
	}
	if op == recArrayCells {
		newShape := d.dims(a.Shape)
		if d.err != nil {
			return d.err
		}
		if err := checkReplayShape(newShape); err != nil {
			return fmt.Errorf("wal array write: %v", err)
		}
		if !shapesEqual(a.Shape, newShape) {
			if err := reshapeArrayTo(a, newShape); err != nil {
				return fmt.Errorf("wal array write: %v", err)
			}
		}
	}
	nattrs := d.count("attribute")
	attrs := make([]int, nattrs)
	for i := range attrs {
		attrs[i] = d.index("attribute index")
		if d.err == nil && attrs[i] >= len(a.AttrBats) {
			return fmt.Errorf("wal array write: attribute index %d out of range for %q", attrs[i], name)
		}
	}
	ncells := d.count("cell")
	cells := a.Cells()
	for c := 0; c < ncells; c++ {
		pos := d.index("cell position")
		if d.err != nil {
			return d.err
		}
		if pos >= cells {
			return fmt.Errorf("wal array write: position %d out of range for %q", pos, name)
		}
		for _, ai := range attrs {
			v := d.val()
			if d.err != nil {
				return d.err
			}
			if err := a.AttrBats[ai].Replace(pos, v); err != nil {
				return fmt.Errorf("wal array write: %v", err)
			}
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	db.ckptTouch(name, true)
	return nil
}

func (db *DB) applyArrayDelete(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	n := d.count("cell")
	if d.err != nil {
		return d.err
	}
	a, ok := db.cat.Array(name)
	if !ok {
		return fmt.Errorf("wal array delete: no such array %q", name)
	}
	cells := a.Cells()
	for i := 0; i < n; i++ {
		pos := d.index("cell position")
		if d.err != nil {
			return d.err
		}
		if pos >= cells {
			return fmt.Errorf("wal array delete: position %d out of range for %q", pos, name)
		}
		for _, ab := range a.AttrBats {
			ab.SetNull(pos, true)
		}
	}
	if err := d.done(); err != nil {
		return err
	}
	db.ckptTouch(name, true)
	return nil
}

func (db *DB) applyBulkAttrInts(body []byte) error {
	d := &recDec{b: body}
	name := d.str()
	attr := d.index("attribute index")
	n := d.count("value")
	if d.err != nil {
		return d.err
	}
	a, ok := db.cat.Array(name)
	if !ok {
		return fmt.Errorf("wal bulk load: no such array %q", name)
	}
	if attr >= len(a.AttrBats) {
		return fmt.Errorf("wal bulk load: attribute index %d out of range for %q", attr, name)
	}
	if k := a.Attrs[attr].Type.Kind; k != types.KindInt {
		return fmt.Errorf("wal bulk load: attribute %q is %s, not integer", a.Attrs[attr].Name, k)
	}
	if n != a.Cells() {
		return fmt.Errorf("wal bulk load: %d values for %d cells of %q", n, a.Cells(), name)
	}
	data := make([]int64, n)
	for i := range data {
		data[i] = d.i64()
	}
	if err := d.done(); err != nil {
		return err
	}
	a.AttrBats[attr] = bat.FromInts(data)
	db.ckptTouch(name, true)
	return nil
}

func shapesEqual(a, b shape.Shape) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || a[i].Step != b[i].Step || a[i].Stop != b[i].Stop {
			return false
		}
	}
	return true
}
