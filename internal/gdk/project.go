package gdk

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Project implements MonetDB's algebra.projection (fetch join): the result
// holds b[idx[i]] for every position i of the index list. A NULL index entry
// yields a NULL row (used for outer joins). idx must be void/oid typed.
//
// The output vector is pre-sized and filled morsel-parallel; the null
// bitmap is pre-allocated when any NULL can occur, and morsel boundaries
// are 64-aligned so workers never share a bitmap word.
func Project(job *par.Job, idx, b *bat.BAT) (*bat.BAT, error) {
	switch idx.Kind() {
	case types.KindVoid, types.KindOID:
	default:
		return nil, fmt.Errorf("gdk: projection index must be oid, got %s", idx.Kind())
	}
	n := idx.Len()
	// Fast path: dense void index over the full column is the identity.
	if idx.Kind() == types.KindVoid && idx.Seqbase() == 0 && n == b.Len() {
		return b, nil
	}
	// Fast path: a void index is a contiguous run [lo, lo+n) — common after
	// slab candidates — so the gather collapses to a bulk slice copy with no
	// per-element indirection. Out-of-range runs fall through to the generic
	// loop, which reports the offending position.
	if idx.Kind() == types.KindVoid && !idx.HasNulls() {
		lo := int(idx.Seqbase())
		if lo >= 0 && lo+n <= b.Len() {
			return b.Slice(lo, lo+n), nil
		}
	}
	mayNull := idx.HasNulls() || b.HasNulls()
	var mask *bat.Bitmap
	if mayNull {
		mask = bat.NewBitmap(n)
	}
	var out *bat.BAT
	var fill func(i, j int) // copy source row j to output row i (non-NULL)
	switch b.Kind() {
	case types.KindInt, types.KindOID:
		src := b.DecodedInts(job)
		dst := outVec[int64](job, n, mayNull)
		out = bat.FromIntsOfKind(dst, b.ValueKind())
		fill = func(i, j int) { dst[i] = src[j] }
	case types.KindFloat:
		src := b.DecodedFloats(job)
		dst := outVec[float64](job, n, mayNull)
		out = bat.FromFloats(dst)
		fill = func(i, j int) { dst[i] = src[j] }
	case types.KindBool:
		src := b.DecodedBools(job)
		dst := outVec[bool](job, n, mayNull)
		out = bat.FromBools(dst)
		fill = func(i, j int) { dst[i] = src[j] }
	case types.KindStr:
		src := b.DecodedStrs(job)
		dst := make([]string, n)
		out = bat.FromStrings(dst)
		fill = func(i, j int) { dst[i] = src[j] }
	case types.KindVoid:
		base := int64(b.Seqbase())
		dst := outVec[int64](job, n, mayNull)
		out = bat.FromIntsOfKind(dst, types.KindOID)
		fill = func(i, j int) { dst[i] = base + int64(j) }
	default:
		return nil, fmt.Errorf("gdk: cannot project %s column", b.Kind())
	}
	limit := b.Len()
	err := par.DoErr(job, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if idx.IsNull(i) {
				mask.Set(i, true)
				continue
			}
			j := int(idx.OidAt(i))
			if j < 0 || j >= limit {
				return fmt.Errorf("gdk: projection index %d out of range [0,%d)", j, limit)
			}
			if b.IsNull(j) {
				mask.Set(i, true)
				continue
			}
			fill(i, j)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out.SetNullMask(mask)
	// Property propagation: gathering through an ascending index keeps the
	// source's order claims and narrows to a value subset, which any bound
	// covers. Uniqueness survives only when both the index positions and
	// the source values are unique and nothing became NULL.
	if idx.Sorted {
		out.Sorted = b.Sorted
		out.SortedDesc = b.SortedDesc
	}
	out.Key = idx.Key && b.Key && !out.HasNulls()
	out.CopyBoundsFrom(b)
	return out, nil
}

// outVec is the output slice of a kernel that writes every row but its
// NULL rows: from the job's free list, and zeroed when rows may be NULL so
// that they hold no stale value.
func outVec[T any](job *par.Job, n int, mayNull bool) []T {
	if mayNull {
		return par.ZeroVec[T](job, n)
	}
	return par.Vec[T](job, n)
}

// ProjectAll projects every column in cols through idx.
func ProjectAll(job *par.Job, idx *bat.BAT, cols []*bat.BAT) ([]*bat.BAT, error) {
	out := make([]*bat.BAT, len(cols))
	for i, c := range cols {
		p, err := Project(job, idx, c)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}
