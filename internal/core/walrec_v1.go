package core

import (
	"encoding/binary"
	"math"

	"repro/internal/bat"
	"repro/internal/types"
)

// Decoders of the DML records logs carried before the typed records
// (walrec.go): the same bodies, except that positions are one uvarint
// each and values one tagged value per row and column — a kind byte
// (0x80 = NULL) and a varint, 8 little-endian float bytes, a bool byte or
// a length-prefixed string — and a bulk load is a value count and one
// varint per cell. Nothing writes these opcodes any more; they are
// decoded so that a log written by an older release still replays.

// positionsV1 decodes a counted list of uvarint positions, each below n.
func (d *recDec) positionsV1(n int) []int {
	out := make([]int, d.count("position"))
	for i := range out {
		out[i] = d.index("position")
		if d.err == nil && out[i] >= n {
			d.fail("position %d out of range [0,%d)", out[i], n)
		}
	}
	return out
}

// cellsV1 decodes the row count and, per row, its position (each below
// limit; a negative limit means the rows carry none) and one tagged value
// per column, into a typed column of each kind in kinds.
func (d *recDec) cellsV1(limit int, kinds []types.Kind) (pos []int, cols []*bat.BAT) {
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
			pos[j] = d.index("position")
			if d.err == nil && pos[j] >= limit {
				d.fail("position %d out of range [0,%d)", pos[j], limit)
			}
		}
		for _, col := range cols {
			d.valueV1(col)
		}
	}
	return pos, cols
}

// valueV1 decodes one tagged value and appends it to col, converted as
// BAT.Replace converts a value: integers and floats to either numeric
// kind (a float truncated toward zero, failing outside the integer
// range), booleans and strings only to their own kind. Anything else is
// corruption.
func (d *recDec) valueV1(col *bat.BAT) {
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

// bulkV1 decodes a bulk load's value count, which must be cells, and its
// varint values.
func (d *recDec) bulkV1(cells int) *bat.BAT {
	data := make([]int64, d.count("value"))
	if d.err == nil && len(data) != cells {
		d.fail("%d values for %d cells", len(data), cells)
	}
	for i := range data {
		data[i] = d.i64()
	}
	return bat.FromInts(data)
}
