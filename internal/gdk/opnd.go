// Package gdk implements the kernel algebra of the engine: vectorised
// selections, projections, joins, grouping, aggregation, sorting and
// calculator operations over BATs, plus the SciQL-specific array kernels
// (relative cell fetch, structural tiling, dimension reshaping).
//
// The design follows MonetDB's GDK: every operator consumes and produces
// whole columns; row positions travel between operators as OID lists.
//
// Candidate lists: every selection, calculator, grouping, aggregation and
// join kernel takes an optional candidate list — a sorted, unique oid BAT
// naming the base rows it may touch; nil means all rows (dense), and a
// contiguous run is represented virtually as a void BAT. Selection kernels
// return base positions; calculator kernels return candidate-aligned
// vectors. The full convention, including SelectBool's residual-sink role,
// is documented in cand.go.
package gdk

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Opnd is a calculator operand: either a BAT or a scalar standing for a
// given number of rows. Kernels normalise operands to typed slices before
// looping; a scalar stays one element (see opndVec).
type Opnd struct {
	b *bat.BAT
	v types.Value
	n int
}

// B wraps a BAT as an operand.
func B(b *bat.BAT) Opnd { return Opnd{b: b, n: b.Len()} }

// C wraps a scalar standing for n rows.
func C(v types.Value, n int) Opnd { return Opnd{v: v, n: n} }

// Len returns the operand length.
func (o Opnd) Len() int { return o.n }

// Kind returns the operand's value kind.
func (o Opnd) Kind() types.Kind {
	if o.b != nil {
		return o.b.ValueKind()
	}
	return o.v.Kind()
}

// IsConst reports whether the operand is a scalar.
func (o Opnd) IsConst() bool { return o.b == nil }

// ConstValue returns the scalar of a const operand.
func (o Opnd) ConstValue() types.Value { return o.v }

// BAT returns the underlying column of a non-const operand (nil for
// constants).
func (o Opnd) BAT() *bat.BAT { return o.b }

// allNull returns a bitmap with n set bits.
func allNull(n int) *bat.Bitmap {
	bm := bat.NewBitmap(n)
	for i := 0; i < n; i++ {
		bm.Set(i, true)
	}
	return bm
}

// opndVec is the one decode path behind the four typed operand accessors.
// A column operand reads through the BAT's decoded-view layer (so encoded
// columns work transparently) and comes back as itself with index mask -1;
// a scalar comes back as a one-element slice with mask 0 and is never
// broadcast. Kernels read row i as v[i&m], one loop for both. A NULL
// scalar reads as the zero value under an all-NULL mask. column converts
// a BAT to the typed slice or rejects the kind; convert does the same for
// a scalar.
func opndVec[T any](o Opnd, column func(*bat.BAT) ([]T, *bat.Bitmap, error), convert func(types.Value) (T, error)) ([]T, int, *bat.Bitmap, error) {
	if o.b != nil {
		v, nulls, err := column(o.b)
		return v, -1, nulls, err
	}
	if o.v.IsNull() {
		return make([]T, 1), 0, allNull(o.n), nil
	}
	cv, err := convert(o.v)
	if err != nil {
		return nil, 0, nil, err
	}
	return []T{cv}, 0, nil, nil
}

// ints normalises the operand to an int64 slice, its index mask and its
// null mask. OIDs and ints pass through; other kinds are an error
// (callers promote first).
func (o Opnd) ints(job *par.Job) ([]int64, int, *bat.Bitmap, error) {
	return opndVec(o, func(b *bat.BAT) ([]int64, *bat.Bitmap, error) {
		switch b.Kind() {
		case types.KindInt, types.KindOID:
			return b.DecodedInts(job), b.NullMask(), nil
		case types.KindVoid:
			return b.Materialize().DecodedInts(job), nil, nil
		default:
			return nil, nil, fmt.Errorf("gdk: expected integer column, got %s", b.Kind())
		}
	}, types.Value.AsInt)
}

// floats normalises the operand to a float64 slice, its index mask and
// its null mask, converting integer operands.
func (o Opnd) floats(job *par.Job) ([]float64, int, *bat.Bitmap, error) {
	return opndVec(o, func(b *bat.BAT) ([]float64, *bat.Bitmap, error) {
		switch b.Kind() {
		case types.KindFloat:
			return b.DecodedFloats(job), b.NullMask(), nil
		case types.KindInt, types.KindOID:
			src := b.DecodedInts(job)
			out := make([]float64, len(src))
			for i, v := range src {
				out[i] = float64(v)
			}
			return out, b.NullMask(), nil
		case types.KindVoid:
			out := make([]float64, b.Len())
			for i := range out {
				out[i] = float64(b.Seqbase()) + float64(i)
			}
			return out, nil, nil
		default:
			return nil, nil, fmt.Errorf("gdk: expected numeric column, got %s", b.Kind())
		}
	}, types.Value.AsFloat)
}

// boolsv normalises the operand to a bool slice, its index mask and its
// null mask.
func (o Opnd) boolsv(job *par.Job) ([]bool, int, *bat.Bitmap, error) {
	return opndVec(o, func(b *bat.BAT) ([]bool, *bat.Bitmap, error) {
		if b.Kind() != types.KindBool {
			return nil, nil, fmt.Errorf("gdk: expected boolean column, got %s", b.Kind())
		}
		return b.DecodedBools(job), b.NullMask(), nil
	}, func(v types.Value) (bool, error) {
		if v.Kind() != types.KindBool {
			return false, fmt.Errorf("gdk: expected boolean constant, got %s", v.Kind())
		}
		return v.BoolVal(), nil
	})
}

// strsv normalises the operand to a string slice, its index mask and its
// null mask.
func (o Opnd) strsv(job *par.Job) ([]string, int, *bat.Bitmap, error) {
	return opndVec(o, func(b *bat.BAT) ([]string, *bat.Bitmap, error) {
		if b.Kind() != types.KindStr {
			return nil, nil, fmt.Errorf("gdk: expected string column, got %s", b.Kind())
		}
		return b.DecodedStrs(job), b.NullMask(), nil
	}, func(v types.Value) (string, error) {
		if v.Kind() != types.KindStr {
			return "", fmt.Errorf("gdk: expected string constant, got %s", v.Kind())
		}
		return v.StrVal(), nil
	})
}

// orNulls returns the union of two null masks (nil when both nil),
// computed word-at-a-time.
func orNulls(n int, a, c *bat.Bitmap) *bat.Bitmap {
	return bat.Union(n, a, c)
}

// withNulls attaches a null mask to a freshly built BAT in O(1).
func withNulls(b *bat.BAT, nulls *bat.Bitmap) *bat.BAT {
	b.SetNullMask(nulls)
	return b
}
