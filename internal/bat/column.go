package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"repro/internal/types"
)

// Typed column codec: the value and position columns of write-ahead log
// records. A write statement already holds its values as typed columns,
// so a column travels whole, without a per-value tag. The row count n is
// not part of the column; the record carries it once for all its columns.
//
// A column of n > 0 rows is (a column of no rows is empty):
//
//	header  uvarint  width<<4 | kind<<1 | hasNulls
//	nulls   ⌈n/8⌉ bytes, row i is bit i%8 of byte i/8 (only when hasNulls)
//	payload by kind:
//	  int, oid  base (zigzag varint); when width > 0, a uvarint word count,
//	            which must be ⌈n·width/64⌉, then the words, 8 little-endian
//	            bytes each, holding every row's offset from base in width
//	            bits (frame of reference). A constant column has width 0
//	            and no words.
//	  dbl       n × 8 little-endian bytes
//	  bit       ⌈n/8⌉ bytes, bit-packed like the nulls
//	  str       n × (uvarint length, bytes)
//
// Width is 0 for every kind but int and oid. NULL rows keep whatever value
// their slot holds, so a column round-trips exactly. Unlike the segment
// encodings (encoding.go) nothing is chosen by analysis: one min/max pass
// and one packing pass (packFOR, shared with the segment FOR and delta
// encodings) — a write-ahead log pays for every microsecond of encoding
// on the commit path.
//
// Positions (row or cell ordinals of a write) are a uvarint first position
// followed by an int column of the n-1 signed gaps between neighbours: a
// dense run is gaps of 1, width 0 and no payload; unsorted and repeated
// positions take the same rule with wider gaps.

// maxColumnWidth is the widest frame-of-reference offset.
const maxColumnWidth = 64

// AppendColumn appends b's rows to dst as one typed column.
func AppendColumn(dst []byte, b *BAT) []byte {
	n := b.Len()
	if n == 0 {
		return dst
	}
	kind := b.ValueKind()
	switch kind {
	case types.KindInt, types.KindOID:
		return appendInts(dst, kind, b.Materialize().DecodedInts(nil), b.nulls)
	case types.KindFloat:
		dst = appendHeader(dst, 0, kind, b.nulls, n)
		for _, f := range b.DecodedFloats(nil) {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
	case types.KindBool:
		dst = appendHeader(dst, 0, kind, b.nulls, n)
		dst = appendBits(dst, n, b.DecodedBools(nil), nil)
	case types.KindStr:
		dst = appendHeader(dst, 0, kind, b.nulls, n)
		for _, s := range b.DecodedStrs(nil) {
			dst = binary.AppendUvarint(dst, uint64(len(s)))
			dst = append(dst, s...)
		}
	}
	return dst
}

// appendHeader appends the column header and, when any of the first n
// rows is NULL, the null bitmap.
func appendHeader(dst []byte, w uint8, kind types.Kind, nulls *Bitmap, n int) []byte {
	has := nulls.Any()
	h := uint64(w)<<4 | uint64(kind)<<1
	if has {
		h |= 1
	}
	dst = binary.AppendUvarint(dst, h)
	if has {
		dst = appendBits(dst, n, nil, nulls)
	}
	return dst
}

// appendBits bit-packs n flags, taken from bools or else from m, into
// ⌈n/8⌉ bytes.
func appendBits(dst []byte, n int, bools []bool, m *Bitmap) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, (n+7)/8)...)
	out := dst[start:]
	for i := 0; i < n; i++ {
		if (bools != nil && bools[i]) || (bools == nil && m.Get(i)) {
			out[i>>3] |= 1 << (i & 7)
		}
	}
	return dst
}

// appendInts appends an int or oid column: frame-of-reference offsets
// from the minimum at the width of the range.
func appendInts(dst []byte, kind types.Kind, vals []int64, nulls *Bitmap) []byte {
	lo, hi := vals[0], vals[0]
	for _, v := range vals[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	return appendFOR(dst, kind, len(vals), vals, nulls, lo, hi)
}

// appendFOR appends an n-row int or oid column whose values lie in
// [lo, hi]; vals may be nil when lo == hi.
func appendFOR(dst []byte, kind types.Kind, n int, vals []int64, nulls *Bitmap, lo, hi int64) []byte {
	w := uint8(bits.Len64(uint64(hi) - uint64(lo)))
	dst = appendHeader(dst, w, kind, nulls, n)
	dst = binary.AppendVarint(dst, lo)
	if w == 0 {
		return dst
	}
	l := packedLen(n, w)
	dst = binary.AppendUvarint(dst, uint64(l/8))
	start := len(dst)
	dst = append(dst, make([]byte, l)...)
	packFOR(dst[start:], vals, lo, w)
	return dst
}

// AppendPositions appends row or cell positions: the first, then the
// gaps between neighbours as an int column. No positions append nothing.
func AppendPositions(dst []byte, pos []int) []byte {
	if len(pos) == 0 {
		return dst
	}
	dst = binary.AppendUvarint(dst, uint64(pos[0]))
	if len(pos) == 1 {
		return dst
	}
	// One pass for the gaps' range: a dense or evenly strided run (width
	// 0) needs no gap column at all.
	lo, hi := int64(pos[1]-pos[0]), int64(pos[1]-pos[0])
	for i := 2; i < len(pos); i++ {
		g := int64(pos[i] - pos[i-1])
		lo, hi = min(lo, g), max(hi, g)
	}
	var gaps []int64
	if lo != hi {
		gaps = make([]int64, len(pos)-1)
		for i := range gaps {
			gaps[i] = int64(pos[i+1] - pos[i])
		}
	}
	return appendFOR(dst, types.KindInt, len(pos)-1, gaps, nil, lo, hi)
}

// DecodeColumn decodes a column of n rows written by AppendColumn into a
// new BAT of kind and reports how many bytes of src it took. The column
// must hold kind's values (int and oid read as each other). n is the
// caller's to bound: a constant int column of any length takes a few
// bytes, so src cannot bound it.
func DecodeColumn(src []byte, kind types.Kind, n int) (*BAT, int, error) {
	if n < 0 {
		return nil, 0, fmt.Errorf("column: negative row count %d", n)
	}
	if n == 0 {
		return New(kind, 0), 0, nil
	}
	r := colReader{b: src}
	nulls := r.header(kind, n)
	var b *BAT
	switch kind {
	case types.KindInt, types.KindOID:
		b = FromIntsOfKind(r.ints(n), kind)
	case types.KindFloat:
		raw := r.take(n, 8)
		fs := make([]float64, len(raw)/8)
		for i := range fs {
			fs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		b = FromFloats(fs)
	case types.KindBool:
		var bs []bool
		if bm := r.bits(n); r.err == nil {
			bs = make([]bool, n)
			for i := range bs {
				bs[i] = bm.Get(i)
			}
		}
		b = FromBools(bs)
	case types.KindStr:
		b = FromStrings(r.strs(n))
	default:
		r.fail("no %s columns", kind)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	b.SetNullMask(nulls)
	return b, r.off, nil
}

// DecodePositions decodes n positions written by AppendPositions, each in
// [0, limit), and reports how many bytes of src they took.
func DecodePositions(src []byte, n, limit int) ([]int, int, error) {
	if n <= 0 {
		return nil, 0, nil
	}
	r := colReader{b: src}
	first := r.uvarint()
	if r.err == nil && first >= uint64(limit) {
		r.fail("position %d out of range [0,%d)", first, limit)
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	pos := make([]int, n)
	pos[0] = int(first)
	if n > 1 {
		r.header(types.KindInt, n-1)
		gaps := r.ints(n - 1)
		if r.err == nil && r.nulls {
			r.fail("NULL position gap")
		}
		for i := 1; i < n && r.err == nil; i++ {
			p, g := int64(pos[i-1]), gaps[i-1]
			// p + g in [0, limit), without computing an overflowing sum.
			if g < -p || g >= int64(limit)-p {
				r.fail("position gap %d at %d leaves [0,%d)", g, p, limit)
				break
			}
			pos[i] = int(p + g)
		}
	}
	if r.err != nil {
		return nil, 0, r.err
	}
	return pos, r.off, nil
}

// colReader is a bounds-checked cursor over an encoded column; the first
// failure sticks and every later read returns zero values.
type colReader struct {
	b     []byte
	off   int
	err   error
	width uint8
	nulls bool
}

func (r *colReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("column: "+format, args...)
	}
}

func (r *colReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Uvarint(r.b[r.off:])
	if k <= 0 {
		r.fail("truncated uvarint at %d", r.off)
		return 0
	}
	r.off += k
	return v
}

func (r *colReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, k := binary.Varint(r.b[r.off:])
	if k <= 0 {
		r.fail("truncated varint at %d", r.off)
		return 0
	}
	r.off += k
	return v
}

// take returns the next n items of size bytes each, failing when src is
// shorter.
func (r *colReader) take(n, size int) []byte {
	if r.err != nil {
		return nil
	}
	if uint64(len(r.b)-r.off)/uint64(size) < uint64(n) {
		r.fail("truncated payload: %d items of %d bytes at %d", n, size, r.off)
		return nil
	}
	out := r.b[r.off : r.off+n*size]
	r.off += n * size
	return out
}

// bits reads n bit-packed flags.
func (r *colReader) bits(n int) *Bitmap {
	raw := r.take((n+7)/8, 1)
	if r.err != nil {
		return nil
	}
	m := NewBitmap(n)
	for i, c := range raw {
		m.words[i>>3] |= uint64(c) << (8 * (i & 7))
	}
	if rem := n & 63; rem != 0 {
		m.words[len(m.words)-1] &= 1<<rem - 1
	}
	return m
}

// header reads and checks a column header for n rows of kind, and the
// null bitmap it announces (nil when none).
func (r *colReader) header(kind types.Kind, n int) *Bitmap {
	h := r.uvarint()
	if r.err != nil {
		return nil
	}
	w, got := h>>4, types.Kind(h>>1&7)
	intLike := func(k types.Kind) bool { return k == types.KindInt || k == types.KindOID }
	switch {
	case got != kind && !(intLike(got) && intLike(kind)):
		r.fail("%s column for a %s target", got, kind)
	case w > maxColumnWidth:
		r.fail("implausible width %d", w)
	case w != 0 && !intLike(got):
		r.fail("width %d on a %s column", w, got)
	}
	r.width, r.nulls = uint8(w), h&1 != 0
	if !r.nulls {
		return nil
	}
	return r.bits(n)
}

// ints reads an int column's payload after its header.
func (r *colReader) ints(n int) []int64 {
	base := r.varint()
	w := r.width
	var raw []byte
	if r.err == nil && w > 0 {
		want := uint64(packedLen(n, w) / 8)
		if nw := r.uvarint(); r.err == nil && nw != want {
			r.fail("%d packed words for %d rows of width %d, want %d", nw, n, w, want)
		}
		raw = r.take(int(want), 8)
	}
	if r.err != nil {
		return nil
	}
	out := make([]int64, n)
	unpackFOR(out, raw, w, base)
	return out
}

// strs reads n length-prefixed strings.
func (r *colReader) strs(n int) []string {
	if r.err == nil && n > len(r.b)-r.off {
		// Every string takes at least its length byte.
		r.fail("%d strings in %d bytes", n, len(r.b)-r.off)
	}
	if r.err != nil {
		return nil
	}
	out := make([]string, n)
	for i := range out {
		l := r.uvarint()
		if r.err == nil && l > uint64(len(r.b)-r.off) {
			r.fail("truncated string at %d", r.off)
		}
		if r.err != nil {
			return nil
		}
		out[i] = string(r.b[r.off : r.off+int(l)])
		r.off += int(l)
	}
	return out
}
