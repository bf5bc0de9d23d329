// Package bat implements Binary Association Tables (BATs), the columnar
// storage structure of the engine, after MonetDB's GDK kernel [Boncz 2002].
//
// A BAT is a single column: a dense, void head (the position, an implicit
// OID sequence starting at a seqbase) associated with a typed tail vector.
// Tables and arrays are represented as aligned groups of BATs, one per
// column; SciQL arrays additionally store one BAT per dimension, produced by
// the array.series primitive, and one BAT per cell attribute, produced by
// array.filler (paper Fig. 3).
package bat

import (
	"fmt"
	"math"

	"repro/internal/types"
)

// BAT is a typed column vector with an optional NULL mask.
//
// A BAT with kind KindVoid materialises nothing: its i-th value is
// Seqbase+i. All other kinds store their values in exactly one of the typed
// slices. Nulls(i) reports NULL-ness; a nil nulls bitmap means "no NULLs".
type BAT struct {
	kind  types.Kind
	count int

	seqbase types.OID // for KindVoid tails (and the implicit head)

	ints   []int64   // KindInt, KindOID
	floats []float64 // KindFloat
	bools  []bool    // KindBool
	strs   []string  // KindStr

	nulls *Bitmap

	// shared marks the backing data arrays as referenced by a frozen
	// snapshot copy (see Freeze); in-place overwrites must go through
	// Writable first, which clones shared storage (copy-on-write).
	shared bool

	// Properties maintained opportunistically; used by kernels when true,
	// never required to be set. Appends maintain them incrementally against
	// the bounds below; in-place mutations clear them (see props.go).
	Sorted     bool // tail is non-decreasing (ignoring NULLs)
	SortedDesc bool // tail is non-increasing (ignoring NULLs)
	Key        bool // tail values are unique (and NULL-free)

	// Conservative value bounds: when hasMM is set, every non-NULL value
	// lies within [minI, maxI] (int/oid) or [minF, maxF] (float). The
	// bounds need not be attained (widening on overwrite keeps them sound).
	hasMM      bool
	minI, maxI int64
	minF, maxF float64

	// enc, when non-nil, holds the tail in per-slab encoded form instead
	// of the typed slices (see encoding.go). Encoded BATs are read via the
	// slab views or the cached full decode; any mutating entry point
	// decodes back to plain storage first (ensurePlain). Freeze copies
	// share the encColumn — it is immutable apart from its internal
	// once-guarded decode cache.
	enc *encColumn

	// zm caches the lazily built zonemap (see zonemap.go). The box is
	// per-BAT-version: Freeze gives copies a fresh one.
	zm *zmBox
}

// New returns an empty BAT of the given kind with capacity hint n. An
// empty column trivially satisfies every order property; appends maintain
// them incrementally from there.
func New(kind types.Kind, n int) *BAT {
	b := &BAT{kind: kind, Sorted: true, SortedDesc: true, Key: true}
	switch kind {
	case types.KindVoid:
		// nothing to allocate
	case types.KindInt, types.KindOID:
		b.ints = make([]int64, 0, n)
	case types.KindFloat:
		b.floats = make([]float64, 0, n)
	case types.KindBool:
		b.bools = make([]bool, 0, n)
	case types.KindStr:
		b.strs = make([]string, 0, n)
	default:
		panic(fmt.Sprintf("bat: unknown kind %v", kind))
	}
	return b
}

// NewVoid returns a dense OID sequence [seqbase, seqbase+count).
func NewVoid(seqbase types.OID, count int) *BAT {
	return &BAT{kind: types.KindVoid, count: count, seqbase: seqbase,
		Sorted: true, SortedDesc: count <= 1, Key: true}
}

// FromInts wraps an int64 slice (taking ownership) as a KindInt BAT.
func FromInts(vals []int64) *BAT {
	return &BAT{kind: types.KindInt, count: len(vals), ints: vals}
}

// FromOIDs wraps an OID slice as a KindOID BAT.
func FromOIDs(vals []int64) *BAT {
	return &BAT{kind: types.KindOID, count: len(vals), ints: vals}
}

// FromIntsOfKind wraps an int64 slice as a KindInt or KindOID BAT; other
// kinds panic. Parallel kernels use it to assemble pre-filled outputs.
func FromIntsOfKind(vals []int64, kind types.Kind) *BAT {
	switch kind {
	case types.KindInt, types.KindOID:
		return &BAT{kind: kind, count: len(vals), ints: vals}
	}
	panic(fmt.Sprintf("bat: FromIntsOfKind on %v", kind))
}

// FromFloats wraps a float64 slice as a KindFloat BAT.
func FromFloats(vals []float64) *BAT {
	return &BAT{kind: types.KindFloat, count: len(vals), floats: vals}
}

// FromBools wraps a bool slice as a KindBool BAT.
func FromBools(vals []bool) *BAT {
	return &BAT{kind: types.KindBool, count: len(vals), bools: vals}
}

// FromStrings wraps a string slice as a KindStr BAT.
func FromStrings(vals []string) *BAT {
	return &BAT{kind: types.KindStr, count: len(vals), strs: vals}
}

// Kind returns the tail type.
func (b *BAT) Kind() types.Kind { return b.kind }

// Len returns the number of BUNs (rows).
func (b *BAT) Len() int { return b.count }

// Seqbase returns the head seqbase (also the void tail start).
func (b *BAT) Seqbase() types.OID { return b.seqbase }

// SetSeqbase sets the seqbase (only meaningful for void tails / head OIDs).
func (b *BAT) SetSeqbase(s types.OID) { b.seqbase = s }

// IsNull reports whether row i holds NULL.
func (b *BAT) IsNull(i int) bool { return b.nulls.Get(i) }

// HasNulls reports whether any row is NULL.
func (b *BAT) HasNulls() bool { return b.nulls.Any() }

// NullCount returns the number of NULL rows.
func (b *BAT) NullCount() int {
	if b.nulls == nil {
		return 0
	}
	return b.nulls.Count()
}

// SetNull marks row i as NULL (or clears the mark). The row must exist.
// NULLing a row keeps the order and bound claims (both ignore NULLs) but
// breaks uniqueness and the cached zonemap; un-NULLing reveals whatever
// value the slot holds, which no claim can survive.
func (b *BAT) SetNull(i int, null bool) {
	b.checkIndex(i)
	if null {
		b.Key = false
		b.dropZonemap()
		if b.nulls == nil {
			b.nulls = NewBitmap(b.count)
		}
	} else if b.nulls.Get(i) {
		b.invalidateProps()
	}
	if b.nulls != nil {
		b.nulls.Set(i, null)
	}
}

// NullMask exposes the NULL bitmap (may be nil).
func (b *BAT) NullMask() *Bitmap { return b.nulls }

// SetNullMask attaches m as the BAT's NULL bitmap in O(1), replacing any
// existing mask. A nil or all-zero mask clears it. The mask is resized to
// the row count so stale tail bits cannot leak in. Replacing the mask can
// reveal or hide arbitrary rows, so every property claim drops; callers
// building fresh kernel outputs set properties after attaching the mask.
func (b *BAT) SetNullMask(m *Bitmap) {
	if m == nil || !m.Any() {
		if b.nulls != nil {
			b.invalidateProps()
		}
		b.nulls = nil
		return
	}
	b.invalidateProps()
	m.Resize(b.count)
	b.nulls = m
}

// Ints returns the full int64 tail (KindInt/KindOID only).
//
// Deprecated: outside internal/bat, use the slab accessor API (Slab,
// SlabView) or DecodedInts. This method predates encoded columns; it now
// forwards to DecodedInts, which transparently (and eagerly, for the whole
// column) decodes encoded storage — correct, but it forfeits every
// operate-on-compressed fast path. Kernel code must not assume plain
// storage; a source-scan test in internal/gdk enforces the migration.
func (b *BAT) Ints() []int64 { return b.DecodedInts() }

// Floats returns the full float64 tail (KindFloat only).
//
// Deprecated: outside internal/bat, use the slab accessor API or
// DecodedFloats (see Ints).
func (b *BAT) Floats() []float64 { return b.DecodedFloats() }

// Bools returns the full bool tail (KindBool only).
//
// Deprecated: outside internal/bat, use the slab accessor API or
// DecodedBools (see Ints).
func (b *BAT) Bools() []bool { return b.DecodedBools() }

// Strs returns the full string tail (KindStr only).
//
// Deprecated: outside internal/bat, use the slab accessor API or
// DecodedStrs (see Ints).
func (b *BAT) Strs() []string { return b.DecodedStrs() }

func (b *BAT) checkIndex(i int) {
	if i < 0 || i >= b.count {
		panic(fmt.Sprintf("bat: index %d out of range [0,%d)", i, b.count))
	}
}

// Get returns the value at row i.
func (b *BAT) Get(i int) types.Value {
	b.checkIndex(i)
	if b.nulls.Get(i) {
		return types.Null(b.ValueKind())
	}
	ints, floats, bools, strs := b.ints, b.floats, b.bools, b.strs
	if b.enc != nil {
		// Random access decodes through the cached full-column view; Get is
		// a point probe, so per-slab decode would thrash.
		d := b.enc.decodeAll(b.kind)
		ints, floats, strs = d.ints, d.floats, d.strs
	}
	switch b.kind {
	case types.KindVoid:
		return types.Oid(b.seqbase + types.OID(i))
	case types.KindOID:
		return types.Oid(types.OID(ints[i]))
	case types.KindInt:
		return types.Int(ints[i])
	case types.KindFloat:
		return types.Float(floats[i])
	case types.KindBool:
		return types.Bool(bools[i])
	case types.KindStr:
		return types.Str(strs[i])
	}
	panic("bat: unreachable")
}

// ValueKind returns the kind of values Get produces (void reads as oid).
func (b *BAT) ValueKind() types.Kind {
	if b.kind == types.KindVoid {
		return types.KindOID
	}
	return b.kind
}

// OidAt returns the OID at row i for void/oid BATs.
func (b *BAT) OidAt(i int) types.OID {
	b.checkIndex(i)
	if b.kind == types.KindVoid {
		return b.seqbase + types.OID(i)
	}
	if b.enc != nil {
		return types.OID(b.enc.decodeAll(b.kind).ints[i])
	}
	return types.OID(b.ints[i])
}

// Append appends a value, which must match the BAT kind or be NULL.
func (b *BAT) Append(v types.Value) error {
	b.ensurePlain()
	if v.IsNull() {
		b.AppendNull()
		return nil
	}
	switch b.kind {
	case types.KindInt:
		iv, err := v.AsInt()
		if err != nil {
			return err
		}
		b.noteAppendInt(iv)
		b.ints = append(b.ints, iv)
	case types.KindOID:
		iv, err := v.AsInt()
		if err != nil {
			return err
		}
		b.noteAppendInt(iv)
		b.ints = append(b.ints, iv)
	case types.KindFloat:
		fv, err := v.AsFloat()
		if err != nil {
			return err
		}
		b.noteAppendFloat(fv)
		b.floats = append(b.floats, fv)
	case types.KindBool:
		if v.Kind() != types.KindBool {
			return fmt.Errorf("bat: cannot append %s to bit BAT", v.Kind())
		}
		b.noteAppendOpaque()
		b.bools = append(b.bools, v.BoolVal())
	case types.KindStr:
		if v.Kind() != types.KindStr {
			return fmt.Errorf("bat: cannot append %s to str BAT", v.Kind())
		}
		b.noteAppendOpaque()
		b.strs = append(b.strs, v.StrVal())
	case types.KindVoid:
		return fmt.Errorf("bat: cannot append to void BAT")
	}
	b.count++
	if b.nulls != nil {
		b.nulls.Resize(b.count)
	}
	return nil
}

// AppendNull appends a NULL row. Order and bound claims survive (they
// ignore NULLs); uniqueness does not.
func (b *BAT) AppendNull() {
	b.ensurePlain()
	b.Key = false
	switch b.kind {
	case types.KindInt, types.KindOID:
		b.ints = append(b.ints, 0)
	case types.KindFloat:
		b.floats = append(b.floats, 0)
	case types.KindBool:
		b.bools = append(b.bools, false)
	case types.KindStr:
		b.strs = append(b.strs, "")
	case types.KindVoid:
		panic("bat: cannot append to void BAT")
	}
	b.count++
	if b.nulls == nil {
		b.nulls = NewBitmap(b.count)
	} else {
		b.nulls.Resize(b.count)
	}
	b.nulls.Set(b.count-1, true)
}

// AppendInt appends a non-NULL int64 (KindInt/KindOID).
func (b *BAT) AppendInt(v int64) {
	b.ensurePlain()
	b.noteAppendInt(v)
	b.ints = append(b.ints, v)
	b.count++
	if b.nulls != nil {
		b.nulls.Resize(b.count)
	}
}

// AppendFloat appends a non-NULL float64.
func (b *BAT) AppendFloat(v float64) {
	b.ensurePlain()
	b.noteAppendFloat(v)
	b.floats = append(b.floats, v)
	b.count++
	if b.nulls != nil {
		b.nulls.Resize(b.count)
	}
}

// AppendBool appends a non-NULL bool.
func (b *BAT) AppendBool(v bool) {
	b.ensurePlain()
	b.noteAppendOpaque()
	b.bools = append(b.bools, v)
	b.count++
	if b.nulls != nil {
		b.nulls.Resize(b.count)
	}
}

// AppendStr appends a non-NULL string.
func (b *BAT) AppendStr(v string) {
	b.ensurePlain()
	b.noteAppendOpaque()
	b.strs = append(b.strs, v)
	b.count++
	if b.nulls != nil {
		b.nulls.Resize(b.count)
	}
}

// Replace overwrites row i with value v (BUNreplace). NULL values punch holes.
func (b *BAT) Replace(i int, v types.Value) error {
	b.ensurePlain()
	b.checkIndex(i)
	if v.IsNull() {
		b.SetNull(i, true)
		return nil
	}
	switch b.kind {
	case types.KindInt, types.KindOID:
		iv, err := v.AsInt()
		if err != nil {
			return err
		}
		b.ints[i] = iv
	case types.KindFloat:
		fv, err := v.AsFloat()
		if err != nil {
			return err
		}
		b.floats[i] = fv
	case types.KindBool:
		if v.Kind() != types.KindBool {
			return fmt.Errorf("bat: cannot store %s in bit BAT", v.Kind())
		}
		b.bools[i] = v.BoolVal()
	case types.KindStr:
		if v.Kind() != types.KindStr {
			return fmt.Errorf("bat: cannot store %s in str BAT", v.Kind())
		}
		b.strs[i] = v.StrVal()
	case types.KindVoid:
		return fmt.Errorf("bat: cannot replace in void BAT")
	}
	if b.nulls != nil {
		b.nulls.Set(i, false)
	}
	b.noteReplace(v)
	return nil
}

// ReplaceAt is Replace in bulk: row i of src overwrites row pos[i] of b.
// Later rows win on duplicate positions, NULL source rows punch holes and
// a negative position skips its source row. src must store b's kind (int
// and oid share storage; a void src reads as oid). Every position is
// checked before anything is written, and the properties change exactly
// as under the equivalent Replace calls: writing any value drops the
// order and key claims and widens the bounds to cover it; writing only
// NULLs keeps the order claims.
func (b *BAT) ReplaceAt(pos []int, src *BAT) error {
	if len(pos) != src.Len() {
		return fmt.Errorf("bat: %d positions for %d source rows", len(pos), src.Len())
	}
	if !sameStorage(b.kind, src.ValueKind()) {
		return fmt.Errorf("bat: cannot store %s in %s BAT", src.ValueKind(), b.kind)
	}
	for _, p := range pos {
		if p >= b.count {
			return fmt.Errorf("bat: index %d out of range [0,%d)", p, b.count)
		}
	}
	src = src.Materialize()
	b.ensurePlain()
	srcNulls := src.nulls
	if !srcNulls.Any() {
		srcNulls = nil
	} else if b.nulls == nil {
		b.nulls = NewBitmap(b.count)
	}
	var wrote, nulled bool
	switch b.kind {
	case types.KindInt, types.KindOID:
		vals := src.DecodedInts()
		wrote, nulled = scatter(b.ints, vals, pos, srcNulls, b.nulls)
		if wrote && b.hasMM {
			for i, p := range pos {
				if p >= 0 && !srcNulls.Get(i) {
					b.minI, b.maxI = min(b.minI, vals[i]), max(b.maxI, vals[i])
				}
			}
		}
	case types.KindFloat:
		vals := src.DecodedFloats()
		wrote, nulled = scatter(b.floats, vals, pos, srcNulls, b.nulls)
		if wrote && b.hasMM {
			for i, p := range pos {
				if p < 0 || srcNulls.Get(i) {
					continue
				}
				if math.IsNaN(vals[i]) {
					b.hasMM = false
					break
				}
				b.minF, b.maxF = min(b.minF, vals[i]), max(b.maxF, vals[i])
			}
		}
	case types.KindBool:
		wrote, nulled = scatter(b.bools, src.DecodedBools(), pos, srcNulls, b.nulls)
	case types.KindStr:
		wrote, nulled = scatter(b.strs, src.DecodedStrs(), pos, srcNulls, b.nulls)
	}
	if nulled {
		b.Key = false
		b.dropZonemap()
	}
	if wrote {
		b.dropZonemap()
		b.Sorted, b.SortedDesc, b.Key = false, false, false
	}
	return nil
}

// SetNullAt is SetNull(p, true) in bulk: every row in pos becomes NULL.
// Every position is checked before anything changes, and the properties
// change exactly as under the equivalent SetNull calls.
func (b *BAT) SetNullAt(pos []int) error {
	for _, p := range pos {
		if p < 0 || p >= b.count {
			return fmt.Errorf("bat: index %d out of range [0,%d)", p, b.count)
		}
	}
	if len(pos) == 0 {
		return nil
	}
	b.Key = false
	b.dropZonemap()
	if b.nulls == nil {
		b.nulls = NewBitmap(b.count)
	}
	for _, p := range pos {
		b.nulls.Set(p, true)
	}
	return nil
}

// scatter is ReplaceAt's typed loop: dst[pos[i]] = src[i], NULL source
// rows setting the dstNulls bit instead (dstNulls is non-nil whenever
// srcNulls is). It reports whether any value and any NULL was written.
func scatter[T any](dst, src []T, pos []int, srcNulls, dstNulls *Bitmap) (wrote, nulled bool) {
	if srcNulls == nil && dstNulls == nil {
		for i, p := range pos {
			if p >= 0 {
				dst[p] = src[i]
				wrote = true
			}
		}
		return wrote, false
	}
	for i, p := range pos {
		switch {
		case p < 0:
		case srcNulls.Get(i):
			dstNulls.Set(p, true)
			nulled = true
		default:
			dst[p] = src[i]
			if dstNulls != nil {
				dstNulls.Set(p, false)
			}
			wrote = true
		}
	}
	return wrote, nulled
}

// sameStorage reports whether values of kind v can be stored in a BAT of
// kind k without conversion.
func sameStorage(k, v types.Kind) bool {
	if k == types.KindOID || k == types.KindInt {
		return v == types.KindOID || v == types.KindInt
	}
	return k == v
}

// Freeze returns a reader-safe frozen copy of the BAT for snapshot
// publication. The copy shares the backing data arrays but fixes the row
// count and deep-clones the NULL mask, so the original's owner may keep
// appending (appends only touch rows at or beyond the frozen count) and
// may flip NULL bits (it keeps the original mask) without the frozen copy
// observing anything. Both sides are marked shared: an in-place overwrite
// of a visible row must go through Writable, which clones the data first.
func (b *BAT) Freeze() *BAT {
	f := *b
	f.nulls = b.nulls.Clone()
	f.shared = true
	b.shared = true
	// The frozen copy gets its own zonemap cache: it has a fixed row count
	// while the original may keep appending, and sharing one cache would
	// make the two sides rebuild it from each other's hands. The box is
	// installed eagerly — frozen copies are the only BATs read
	// concurrently, and publication's atomic store orders this write
	// before any reader's lazy build.
	f.zm = &zmBox{}
	return &f
}

// Writable returns b when its data arrays are private, or a deep private
// copy when they are shared with a frozen snapshot (copy-on-write). The
// caller must store the returned BAT back into the owning slot.
func (b *BAT) Writable() *BAT {
	if !b.shared {
		return b
	}
	return b.Clone()
}

// Clone returns a deep copy of the BAT (properties ride along; the
// zonemap cache does not — a clone exists to be mutated, so an encoded
// source decodes into private plain storage).
func (b *BAT) Clone() *BAT {
	c := &BAT{kind: b.kind, count: b.count, seqbase: b.seqbase,
		Sorted: b.Sorted, SortedDesc: b.SortedDesc, Key: b.Key,
		hasMM: b.hasMM, minI: b.minI, maxI: b.maxI, minF: b.minF, maxF: b.maxF}
	ints, floats, bools, strs := b.ints, b.floats, b.bools, b.strs
	if b.enc != nil {
		d := b.enc.decodeAll(b.kind)
		ints, floats, strs = d.ints, d.floats, d.strs
	}
	switch b.kind {
	case types.KindInt, types.KindOID:
		c.ints = append([]int64(nil), ints...)
	case types.KindFloat:
		c.floats = append([]float64(nil), floats...)
	case types.KindBool:
		c.bools = append([]bool(nil), bools...)
	case types.KindStr:
		c.strs = append([]string(nil), strs...)
	}
	c.nulls = b.nulls.Clone()
	return c
}

// Slice returns a copy of rows [lo,hi). A contiguous subset keeps every
// property claim: order, uniqueness, and the (conservative) bounds.
func (b *BAT) Slice(lo, hi int) *BAT {
	if lo < 0 || hi > b.count || hi < lo {
		panic(fmt.Sprintf("bat: slice [%d,%d) out of range [0,%d)", lo, hi, b.count))
	}
	c := &BAT{kind: b.kind, count: hi - lo,
		Sorted: b.Sorted, SortedDesc: b.SortedDesc, Key: b.Key,
		hasMM: b.hasMM, minI: b.minI, maxI: b.maxI, minF: b.minF, maxF: b.maxF}
	ints, floats, bools, strs := b.ints, b.floats, b.bools, b.strs
	if b.enc != nil {
		d := b.enc.decodeAll(b.kind)
		ints, floats, strs = d.ints, d.floats, d.strs
	}
	switch b.kind {
	case types.KindVoid:
		c.seqbase = b.seqbase + types.OID(lo)
		c.Sorted, c.Key = true, true
		c.SortedDesc = c.count <= 1
		return c
	case types.KindInt, types.KindOID:
		c.ints = append([]int64(nil), ints[lo:hi]...)
	case types.KindFloat:
		c.floats = append([]float64(nil), floats[lo:hi]...)
	case types.KindBool:
		c.bools = append([]bool(nil), bools[lo:hi]...)
	case types.KindStr:
		c.strs = append([]string(nil), strs[lo:hi]...)
	}
	if b.nulls != nil {
		c.nulls = b.nulls.Slice(lo, hi)
	}
	return c
}

// Materialize converts a void BAT into a materialised oid BAT; other kinds
// are returned unchanged.
func (b *BAT) Materialize() *BAT {
	if b.kind != types.KindVoid {
		return b
	}
	vals := make([]int64, b.count)
	for i := range vals {
		vals[i] = int64(b.seqbase) + int64(i)
	}
	out := FromOIDs(vals)
	out.Sorted, out.Key = true, true
	out.SortedDesc = b.count <= 1
	if b.count > 0 {
		out.hasMM = true
		out.minI = int64(b.seqbase)
		out.maxI = int64(b.seqbase) + int64(b.count) - 1
	}
	return out
}

// Truncate shrinks the BAT to n rows.
func (b *BAT) Truncate(n int) {
	if n < 0 || n > b.count {
		panic("bat: bad truncate length")
	}
	b.ensurePlain()
	switch b.kind {
	case types.KindInt, types.KindOID:
		b.ints = b.ints[:n]
	case types.KindFloat:
		b.floats = b.floats[:n]
	case types.KindBool:
		b.bools = b.bools[:n]
	case types.KindStr:
		b.strs = b.strs[:n]
	}
	b.count = n
	if b.nulls != nil {
		b.nulls.Resize(n)
	}
}

// AppendBAT appends all rows of o, which must store b's kind (int and
// oid share storage; a void o reads as oid). Storage and properties end
// up exactly as under one Append per row. o may be b itself.
func (b *BAT) AppendBAT(o *BAT) error {
	if o.Len() == 0 {
		return nil
	}
	if !sameStorage(b.kind, o.ValueKind()) {
		return fmt.Errorf("bat: append kind mismatch %s vs %s", b.kind, o.kind)
	}
	o = o.Materialize()
	switch b.kind {
	case types.KindInt, types.KindOID:
		appendRows(b, o.DecodedInts(), o.nulls, b.AppendInt)
	case types.KindFloat:
		appendRows(b, o.DecodedFloats(), o.nulls, b.AppendFloat)
	case types.KindBool:
		appendRows(b, o.DecodedBools(), o.nulls, b.AppendBool)
	case types.KindStr:
		appendRows(b, o.DecodedStrs(), o.nulls, b.AppendStr)
	}
	return nil
}

// appendRows is AppendBAT's typed loop: a NULL row where nulls is set,
// add(vals[i]) otherwise. vals and the bits below its length stay as
// they were while b grows, so b may be the source itself.
func appendRows[T any](b *BAT, vals []T, nulls *Bitmap, add func(T)) {
	for i, v := range vals {
		if nulls.Get(i) {
			b.AppendNull()
		} else {
			add(v)
		}
	}
}

// String summarises the BAT for debugging.
func (b *BAT) String() string {
	return fmt.Sprintf("BAT[%s]#%d", b.kind, b.count)
}
