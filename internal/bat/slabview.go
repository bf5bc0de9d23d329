package bat

import (
	"sync/atomic"

	"repro/internal/types"
)

// Slab-granular column access — the read API kernels use instead of raw
// tail slices.
//
// A SlabView is a typed window over one SlabRows-sized slab of a column.
// Plain slabs are borrowed zero-copy; encoded slabs either expose their
// encoded form directly (Runs, Dict) for kernels that can execute on it,
// or decode into a caller-provided scratch buffer. Void columns
// materialise their sequence on demand, so every kernel can treat any
// column uniformly.
//
// The package also keeps a process-wide "bytes touched" counter: each
// accessor charges the physical bytes a scan of that slab reads (plain
// size when borrowing, encoded payload size when decoding or walking runs
// or codes). Tests reset and read it to pin the compression win that
// timings alone understate on memory-bound scans.

var touchedBytes atomic.Int64

func addTouched(n int64) { touchedBytes.Add(n) }

// ResetTouchedBytes zeroes the counter and returns the prior value.
func ResetTouchedBytes() int64 { return touchedBytes.Swap(0) }

// NumSlabs returns the number of SlabRows-sized slabs covering the column.
func (b *BAT) NumSlabs() int {
	return (b.count + SlabRows - 1) / SlabRows
}

// SlabView is a read-only view of one slab of a column.
type SlabView struct {
	b      *BAT
	lo, hi int      // row range [lo,hi) in the column
	es     *encSlab // nil when the column is plain (or void)
}

// Slab returns the view of slab s (0 <= s < NumSlabs()).
func (b *BAT) Slab(s int) SlabView {
	lo := s * SlabRows
	hi := lo + SlabRows
	if hi > b.count {
		hi = b.count
	}
	v := SlabView{b: b, lo: lo, hi: hi}
	if b.enc != nil {
		v.es = &b.enc.slabs[s]
	}
	return v
}

// Start returns the column row index of the view's first row.
func (v SlabView) Start() int { return v.lo }

// Len returns the number of rows in the view.
func (v SlabView) Len() int { return v.hi - v.lo }

// Enc returns the slab's physical encoding (EncPlain for plain storage
// and void columns).
func (v SlabView) Enc() Encoding {
	if v.es == nil {
		return EncPlain
	}
	return v.es.enc
}

// Kind returns the column's tail kind.
func (v SlabView) Kind() types.Kind { return v.b.kind }

// Bounds returns the slab's raw int value bounds (every slot, NULL or
// not). ok is false for non-int slabs and plain storage (use the zonemap
// there).
func (v SlabView) Bounds() (lo, hi int64, ok bool) {
	if v.es == nil || !v.es.hasMM {
		return 0, 0, false
	}
	return v.es.minI, v.es.maxI, true
}

// Ints returns the slab's decoded int64 values. Plain slabs are borrowed
// zero-copy; encoded slabs decode into buf (grown as needed) and return
// it. Void slabs materialise their sequence into buf. The result is valid
// until the next reuse of buf and must not be written.
func (v SlabView) Ints(buf []int64) []int64 {
	n := v.hi - v.lo
	switch {
	case v.b.kind == types.KindVoid:
		buf = growInts(buf, n)
		base := int64(v.b.seqbase) + int64(v.lo)
		for i := 0; i < n; i++ {
			buf[i] = base + int64(i)
		}
		addTouched(int64(n) * 8)
		return buf
	case v.es == nil:
		addTouched(int64(n) * 8)
		return v.b.ints[v.lo:v.hi]
	case v.es.enc == EncPlain:
		addTouched(v.es.bytes)
		return v.es.ints
	default:
		buf = growInts(buf, n)
		v.es.decodeInts(buf)
		addTouched(v.es.bytes)
		return buf
	}
}

// Floats is Ints for float columns.
func (v SlabView) Floats(buf []float64) []float64 {
	n := v.hi - v.lo
	switch {
	case v.es == nil:
		addTouched(int64(n) * 8)
		return v.b.floats[v.lo:v.hi]
	case v.es.enc == EncPlain:
		addTouched(v.es.bytes)
		return v.es.floats
	default:
		buf = growFloats(buf, n)
		v.es.decodeFloats(buf)
		addTouched(v.es.bytes)
		return buf
	}
}

// Strs is Ints for string columns.
func (v SlabView) Strs(buf []string) []string {
	n := v.hi - v.lo
	switch {
	case v.es == nil:
		addTouched(plainStrBytes(v.b.strs[v.lo:v.hi]))
		return v.b.strs[v.lo:v.hi]
	case v.es.enc == EncPlain:
		addTouched(v.es.bytes)
		return v.es.strs
	default:
		buf = growStrs(buf, n)
		v.es.decodeStrs(buf)
		addTouched(v.es.bytes)
		return buf
	}
}

// Bools returns the slab's bool values (bool columns are never encoded).
func (v SlabView) Bools() []bool {
	n := v.hi - v.lo
	addTouched(int64(n))
	return v.b.bools[v.lo:v.hi]
}

// IntRuns exposes an RLE-encoded int slab directly: parallel run values
// and lengths (lengths sum to Len()). ok is false for any other form —
// callers fall back to Ints.
func (v SlabView) IntRuns() (vals []int64, lens []uint32, ok bool) {
	if v.es == nil || v.es.enc != EncRLE || v.b.kind == types.KindFloat {
		return nil, nil, false
	}
	addTouched(v.es.bytes)
	return v.es.ints, v.es.lens, true
}

// FloatRuns is IntRuns for float columns.
func (v SlabView) FloatRuns() (vals []float64, lens []uint32, ok bool) {
	if v.es == nil || v.es.enc != EncRLE || v.b.kind != types.KindFloat {
		return nil, nil, false
	}
	addTouched(v.es.bytes)
	return v.es.floats, v.es.lens, true
}

// DictInts exposes a dictionary-encoded int slab directly: the distinct
// values and one code per row indexing them.
func (v SlabView) DictInts() (dict []int64, codes []uint16, ok bool) {
	if v.es == nil || v.es.enc != EncDict || v.b.kind == types.KindStr {
		return nil, nil, false
	}
	addTouched(v.es.bytes)
	return v.es.ints, v.es.codes, true
}

// DictStrs is DictInts for string columns.
func (v SlabView) DictStrs() (dict []string, codes []uint16, ok bool) {
	if v.es == nil || v.es.enc != EncDict || v.b.kind != types.KindStr {
		return nil, nil, false
	}
	addTouched(v.es.bytes)
	return v.es.strs, v.es.codes, true
}

// ---------------------------------------------------------------------------
// Full-column decoded views. These are the flat-slice escape hatch for
// kernels whose access pattern has no slab locality (hash builds, random
// probes): plain columns are returned as-is, encoded columns decode once
// into a cache shared by all readers of the column version.

// DecodedInts returns the full int64 tail, decoding (once, cached) when
// the column is encoded. The slice must be treated as read-only.
func (b *BAT) DecodedInts() []int64 {
	if b.enc != nil {
		addTouched(b.enc.encodedBytes)
		return b.enc.decodeAll(b.kind).ints
	}
	addTouched(int64(len(b.ints)) * 8)
	return b.ints
}

// DecodedFloats is DecodedInts for float columns.
func (b *BAT) DecodedFloats() []float64 {
	if b.enc != nil {
		addTouched(b.enc.encodedBytes)
		return b.enc.decodeAll(b.kind).floats
	}
	addTouched(int64(len(b.floats)) * 8)
	return b.floats
}

// DecodedBools returns the full bool tail (never encoded).
func (b *BAT) DecodedBools() []bool {
	addTouched(int64(len(b.bools)))
	return b.bools
}

// DecodedStrs is DecodedInts for string columns.
func (b *BAT) DecodedStrs() []string {
	if b.enc != nil {
		addTouched(b.enc.encodedBytes)
		return b.enc.decodeAll(b.kind).strs
	}
	addTouched(plainStrBytes(b.strs))
	return b.strs
}

func plainStrBytes(ss []string) int64 {
	var sz int64
	for _, s := range ss {
		sz += int64(len(s)) + 16
	}
	return sz
}

func scratchCap(n int) int {
	if n > SlabRows {
		return n
	}
	return SlabRows
}

func growInts(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n, scratchCap(n))
	}
	return buf[:n]
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n, scratchCap(n))
	}
	return buf[:n]
}

func growStrs(buf []string, n int) []string {
	if cap(buf) < n {
		return make([]string, n, scratchCap(n))
	}
	return buf[:n]
}
