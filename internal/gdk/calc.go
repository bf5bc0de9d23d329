package gdk

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// The calculator kernels split their input into morsels and run on the
// shared worker pool (package par) above the morsel threshold; below it
// they execute the same loop serially on the caller's goroutine. Output
// vectors are pre-sized so workers write disjoint ranges, and null bitmaps
// are pre-allocated with 64-aligned morsel boundaries so no two workers
// ever touch the same bitmap word.
//
// Every kernel takes an optional candidate list (nil = all rows): operands
// are base-aligned and the output is candidate-aligned, holding the result
// for base row cand[i] at row i (see the contract in cand.go). The
// restriction itself chunks the candidate list across morsels, so work and
// allocation are proportional to the surviving rows, not the base size.

// Arith evaluates a vectorised binary arithmetic operation
// (op one of "+", "-", "*", "/", "%"). Integer operands stay integral;
// mixing in a float promotes to float. NULL operands produce NULL rows.
// Division (or modulo) by zero on a non-NULL candidate row is an error,
// matching MonetDB's behaviour.
func Arith(op string, l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("gdk: operand length mismatch %d vs %d", l.Len(), r.Len())
	}
	k, err := types.CommonKind(l.Kind(), r.Kind())
	if err != nil {
		return nil, fmt.Errorf("gdk: %s: %v", op, err)
	}
	if !k.Numeric() {
		if k == types.KindStr && op == "+" {
			return Concat(l, r, cand)
		}
		return nil, fmt.Errorf("gdk: arithmetic on non-numeric type %s", k)
	}
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	n := l.Len()
	if k == types.KindFloat {
		lf, ln, err := l.floats()
		if err != nil {
			return nil, err
		}
		rf, rn, err := r.floats()
		if err != nil {
			return nil, err
		}
		nulls := orNulls(n, ln, rn)
		out := make([]float64, n)
		switch op {
		case "+":
			par.Do(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = lf[i] + rf[i]
				}
			})
		case "-":
			par.Do(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = lf[i] - rf[i]
				}
			})
		case "*":
			par.Do(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					out[i] = lf[i] * rf[i]
				}
			})
		case "/":
			err := par.DoErr(n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					if rf[i] == 0 && !nulls.Get(i) {
						return fmt.Errorf("division by zero")
					}
					out[i] = lf[i] / rf[i]
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		case "%":
			err := par.DoErr(n, func(lo, hi int) error {
				for i := lo; i < hi; i++ {
					if rf[i] == 0 && !nulls.Get(i) {
						return fmt.Errorf("modulo by zero")
					}
					out[i] = math.Mod(lf[i], rf[i])
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("gdk: unknown arithmetic op %q", op)
		}
		return withNulls(bat.FromFloats(out), nulls), nil
	}
	li, ln, err := l.ints()
	if err != nil {
		return nil, err
	}
	ri, rn, err := r.ints()
	if err != nil {
		return nil, err
	}
	nulls := orNulls(n, ln, rn)
	out := make([]int64, n)
	switch op {
	case "+":
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = li[i] + ri[i]
			}
		})
	case "-":
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = li[i] - ri[i]
			}
		})
	case "*":
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = li[i] * ri[i]
			}
		})
	case "/":
		err := par.DoErr(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if nulls.Get(i) {
					continue
				}
				if ri[i] == 0 {
					return fmt.Errorf("division by zero")
				}
				out[i] = li[i] / ri[i]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	case "%":
		err := par.DoErr(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if nulls.Get(i) {
					continue
				}
				if ri[i] == 0 {
					return fmt.Errorf("modulo by zero")
				}
				out[i] = li[i] % ri[i]
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("gdk: unknown arithmetic op %q", op)
	}
	return withNulls(bat.FromIntsOfKind(out, types.KindInt), nulls), nil
}

// cmpOp is a pre-decoded comparison operator, so the per-row loop tests a
// small integer instead of re-dispatching on the operator string.
type cmpOp int

const (
	cmpEq cmpOp = iota
	cmpNe
	cmpLt
	cmpLe
	cmpGt
	cmpGe
)

func cmpOpOf(op string) (cmpOp, error) {
	switch op {
	case "=":
		return cmpEq, nil
	case "<>", "!=":
		return cmpNe, nil
	case "<":
		return cmpLt, nil
	case "<=":
		return cmpLe, nil
	case ">":
		return cmpGt, nil
	case ">=":
		return cmpGe, nil
	}
	return 0, fmt.Errorf("gdk: unknown comparison %q", op)
}

// ok reports whether a three-way comparison result c satisfies the operator.
func (o cmpOp) ok(c int) bool {
	switch o {
	case cmpEq:
		return c == 0
	case cmpNe:
		return c != 0
	case cmpLt:
		return c < 0
	case cmpLe:
		return c <= 0
	case cmpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// Compare evaluates a vectorised comparison (op one of "=", "<>", "<",
// "<=", ">", ">=") producing a boolean BAT; rows with a NULL operand are
// NULL (SQL three-valued logic).
func Compare(op string, l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("gdk: operand length mismatch %d vs %d", l.Len(), r.Len())
	}
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	n := l.Len()
	k, err := types.CommonKind(l.Kind(), r.Kind())
	if err != nil {
		return nil, fmt.Errorf("gdk: %s: %v", op, err)
	}
	o, err := cmpOpOf(op)
	if err != nil {
		return nil, err
	}
	out := make([]bool, n)
	var nulls *bat.Bitmap
	switch k {
	case types.KindInt, types.KindOID:
		li, ln, err := l.ints()
		if err != nil {
			return nil, err
		}
		ri, rn, err := r.ints()
		if err != nil {
			return nil, err
		}
		nulls = orNulls(n, ln, rn)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c := 0
				switch {
				case li[i] < ri[i]:
					c = -1
				case li[i] > ri[i]:
					c = 1
				}
				out[i] = o.ok(c)
			}
		})
	case types.KindFloat:
		lf, ln, err := l.floats()
		if err != nil {
			return nil, err
		}
		rf, rn, err := r.floats()
		if err != nil {
			return nil, err
		}
		nulls = orNulls(n, ln, rn)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				c := 0
				switch {
				case lf[i] < rf[i]:
					c = -1
				case lf[i] > rf[i]:
					c = 1
				}
				out[i] = o.ok(c)
			}
		})
	case types.KindBool:
		lb, ln, err := l.boolsv()
		if err != nil {
			return nil, err
		}
		rb, rn, err := r.boolsv()
		if err != nil {
			return nil, err
		}
		nulls = orNulls(n, ln, rn)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				a, b := 0, 0
				if lb[i] {
					a = 1
				}
				if rb[i] {
					b = 1
				}
				out[i] = o.ok(a - b)
			}
		})
	case types.KindStr:
		ls, ln, err := l.strsv()
		if err != nil {
			return nil, err
		}
		rs, rn, err := r.strsv()
		if err != nil {
			return nil, err
		}
		nulls = orNulls(n, ln, rn)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = o.ok(strings.Compare(ls[i], rs[i]))
			}
		})
	case types.KindVoid:
		// Both sides are untyped NULL constants: every row is NULL.
		nulls = allNull(n)
	default:
		return nil, fmt.Errorf("gdk: cannot compare %s values", k)
	}
	return withNulls(bat.FromBools(out), nulls), nil
}

// And evaluates three-valued logical AND.
func And(l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("gdk: operand length mismatch")
	}
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	lb, ln, err := l.boolsv()
	if err != nil {
		return nil, err
	}
	rb, rn, err := r.boolsv()
	if err != nil {
		return nil, err
	}
	n := l.Len()
	out := make([]bool, n)
	var mask *bat.Bitmap
	if ln != nil || rn != nil {
		mask = bat.NewBitmap(n)
	}
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lnull, rnull := ln.Get(i), rn.Get(i)
			switch {
			case !lnull && !lb[i], !rnull && !rb[i]:
				// false AND anything = false
			case lnull || rnull:
				mask.Set(i, true)
			default:
				out[i] = true
			}
		}
	})
	b := bat.FromBools(out)
	b.SetNullMask(mask)
	return b, nil
}

// Or evaluates three-valued logical OR.
func Or(l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("gdk: operand length mismatch")
	}
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	lb, ln, err := l.boolsv()
	if err != nil {
		return nil, err
	}
	rb, rn, err := r.boolsv()
	if err != nil {
		return nil, err
	}
	n := l.Len()
	out := make([]bool, n)
	var mask *bat.Bitmap
	if ln != nil || rn != nil {
		mask = bat.NewBitmap(n)
	}
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			lnull, rnull := ln.Get(i), rn.Get(i)
			switch {
			case !lnull && lb[i], !rnull && rb[i]:
				out[i] = true // true OR anything = true
			case lnull || rnull:
				mask.Set(i, true)
			}
		}
	})
	b := bat.FromBools(out)
	b.SetNullMask(mask)
	return b, nil
}

// Not evaluates three-valued logical NOT.
func Not(x Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x); err != nil {
		return nil, err
	}
	xb, xn, err := x.boolsv()
	if err != nil {
		return nil, err
	}
	n := x.Len()
	out := make([]bool, n)
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = !xb[i]
		}
	})
	return withNulls(bat.FromBools(out), xn.Clone()), nil
}

// IsNull produces a boolean BAT that is true exactly where x is NULL.
func IsNull(x Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x); err != nil {
		return nil, err
	}
	n := x.Len()
	out := make([]bool, n)
	if x.b != nil {
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = x.b.IsNull(i)
			}
		})
	} else if x.v.IsNull() {
		for i := range out {
			out[i] = true
		}
	}
	return bat.FromBools(out), nil
}

// IfThenElse picks a[i] where cond[i] is true, b[i] where cond[i] is false
// or NULL — the semantics a CASE WHEN chain needs (an unknown condition
// falls through to the next branch). Both branches convert to their common
// kind first; that widening (oid or int to int or double, an untyped NULL
// to anything) cannot fail, so converting whole branches surfaces no error
// a row-by-row pick would not.
func IfThenElse(cond, a, b Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if a.Len() != cond.Len() || b.Len() != cond.Len() {
		return nil, fmt.Errorf("gdk: ifthenelse operand length mismatch")
	}
	if err := restrictTo(cand, &cond, &a, &b); err != nil {
		return nil, err
	}
	n := cond.Len()
	cb, cn, err := cond.boolsv()
	if err != nil {
		return nil, err
	}
	k, err := types.CommonKind(a.Kind(), b.Kind())
	if err != nil {
		return nil, fmt.Errorf("gdk: ifthenelse branches: %v", err)
	}
	switch k {
	case types.KindVoid:
		// Both branches are untyped NULLs.
		return bat.Filler(n, types.NullUnknown(), types.KindInt)
	case types.KindInt, types.KindOID:
		return pickRows(cb, cn, a.ints, b.ints, func(v []int64) *bat.BAT { return bat.FromIntsOfKind(v, k) })
	case types.KindFloat:
		return pickRows(cb, cn, a.floats, b.floats, bat.FromFloats)
	case types.KindBool:
		return pickRows(cb, cn, a.boolsv, b.boolsv, bat.FromBools)
	case types.KindStr:
		return pickRows(cb, cn, a.strsv, b.strsv, bat.FromStrings)
	}
	return nil, fmt.Errorf("gdk: ifthenelse on %s values", k)
}

// pickRows is IfThenElse over one typed slice per branch: row i comes from
// a where cb[i] is true and not NULL, from b otherwise, and is NULL when
// the picked branch is. mk wraps the picked values in a column.
func pickRows[T any](cb []bool, cn *bat.Bitmap, a, b func() ([]T, *bat.Bitmap, error), mk func([]T) *bat.BAT) (*bat.BAT, error) {
	av, an, err := a()
	if err != nil {
		return nil, err
	}
	bv, bn, err := b()
	if err != nil {
		return nil, err
	}
	n := len(cb)
	out := make([]T, n)
	var nulls *bat.Bitmap
	if an != nil || bn != nil {
		nulls = bat.NewBitmap(n)
	}
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if cb[i] && !cn.Get(i) {
				out[i] = av[i]
				if an.Get(i) {
					nulls.Set(i, true)
				}
			} else {
				out[i] = bv[i]
				if bn.Get(i) {
					nulls.Set(i, true)
				}
			}
		}
	})
	return withNulls(mk(out), nulls), nil
}

// UnaryNum evaluates a numeric unary function: "-", "abs", "sqrt",
// "floor", "ceil". sqrt/floor/ceil produce floats; "-"/abs preserve kind.
func UnaryNum(op string, x Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x); err != nil {
		return nil, err
	}
	n := x.Len()
	switch op {
	case "-", "abs":
		if x.Kind() == types.KindFloat {
			xf, xn, err := x.floats()
			if err != nil {
				return nil, err
			}
			out := make([]float64, n)
			par.Do(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					if op == "-" {
						out[i] = -xf[i]
					} else {
						out[i] = math.Abs(xf[i])
					}
				}
			})
			return withNulls(bat.FromFloats(out), xn.Clone()), nil
		}
		xi, xn, err := x.ints()
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if op == "-" {
					out[i] = -xi[i]
				} else if xi[i] < 0 {
					out[i] = -xi[i]
				} else {
					out[i] = xi[i]
				}
			}
		})
		return withNulls(bat.FromIntsOfKind(out, types.KindInt), xn.Clone()), nil
	case "sqrt", "floor", "ceil", "exp", "log", "round":
		xf, xn, err := x.floats()
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		err = par.DoErr(n, func(lo, hi int) error {
			for i := lo; i < hi; i++ {
				if xn.Get(i) {
					continue
				}
				switch op {
				case "sqrt":
					if xf[i] < 0 {
						return fmt.Errorf("sqrt of negative value %v", xf[i])
					}
					out[i] = math.Sqrt(xf[i])
				case "floor":
					out[i] = math.Floor(xf[i])
				case "ceil":
					out[i] = math.Ceil(xf[i])
				case "exp":
					out[i] = math.Exp(xf[i])
				case "log":
					if xf[i] <= 0 {
						return fmt.Errorf("log of non-positive value %v", xf[i])
					}
					out[i] = math.Log(xf[i])
				case "round":
					out[i] = math.Round(xf[i])
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return withNulls(bat.FromFloats(out), xn.Clone()), nil
	case "sign":
		xf, xn, err := x.floats()
		if err != nil {
			return nil, err
		}
		out := make([]int64, n)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch {
				case xf[i] > 0:
					out[i] = 1
				case xf[i] < 0:
					out[i] = -1
				}
			}
		})
		return withNulls(bat.FromIntsOfKind(out, types.KindInt), xn.Clone()), nil
	default:
		return nil, fmt.Errorf("gdk: unknown unary op %q", op)
	}
}

// Power computes l^r element-wise in floating point, following SQL's
// POWER: any NULL operand yields NULL; domain errors (negative base with
// fractional exponent) yield NaN like math.Pow.
func Power(l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if l.Len() != r.Len() {
		return nil, fmt.Errorf("gdk: operand length mismatch")
	}
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	lf, ln, err := l.floats()
	if err != nil {
		return nil, err
	}
	rf, rn, err := r.floats()
	if err != nil {
		return nil, err
	}
	n := l.Len()
	nulls := orNulls(n, ln, rn)
	out := make([]float64, n)
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = math.Pow(lf[i], rf[i])
		}
	})
	return withNulls(bat.FromFloats(out), nulls), nil
}

// CastBAT converts every row of the operand to kind k with the rules and
// error texts of types.Value.Cast. NULL rows stay NULL; a failing row is
// reported as the lowest one, whatever the thread count, because each
// morsel stops at its first failure and par keeps the lowest morsel's.
func CastBAT(x Opnd, k types.Kind, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x); err != nil {
		return nil, err
	}
	n := x.Len()
	if x.b == nil {
		// A scalar converts once; an empty operand converts nothing.
		if n == 0 {
			return bat.New(k, 0), nil
		}
		cv, err := x.v.Cast(k)
		if err != nil {
			return nil, err
		}
		return bat.Filler(n, cv, k)
	}
	if x.b.NullCount() == n {
		// NULL casts to NULL under every rule, even a missing one.
		return bat.Filler(n, types.NullUnknown(), k)
	}
	switch k {
	case types.KindInt:
		return castRows(x, k, func(v []int64) *bat.BAT { return bat.FromIntsOfKind(v, k) },
			same[int64], types.FloatToInt, boolNum[int64], types.ParseInt)
	case types.KindOID:
		toOID := types.IntToOID
		if x.Kind() == types.KindOID {
			toOID = same[int64]
		}
		return castRows(x, k, func(v []int64) *bat.BAT { return bat.FromIntsOfKind(v, k) }, toOID, nil, nil, nil)
	case types.KindFloat:
		return castRows(x, k, bat.FromFloats, func(i int64) (float64, error) { return float64(i), nil }, same[float64], boolNum[float64], types.ParseFloat)
	case types.KindBool:
		return castRows(x, k, bat.FromBools, func(i int64) (bool, error) { return i != 0, nil }, func(f float64) (bool, error) { return f != 0, nil }, same[bool], types.ParseBool)
	case types.KindStr:
		return castRows(x, k, bat.FromStrings, func(i int64) (string, error) { return strconv.FormatInt(i, 10), nil },
			func(f float64) (string, error) { return types.FormatFloat(f), nil },
			func(b bool) (string, error) { return strconv.FormatBool(b), nil }, same[string])
	}
	return nil, fmt.Errorf("unsupported cast from %s to %s", x.Kind(), k)
}

// castRows converts a column operand with the rule for its kind: fromInt
// for int and oid, fromFloat, fromBool, fromStr; a nil rule is a kind pair
// Value.Cast has no rule for. mk wraps the converted values in a column,
// which keeps the source's NULL rows.
func castRows[T any](x Opnd, k types.Kind, mk func([]T) *bat.BAT, fromInt func(int64) (T, error), fromFloat func(float64) (T, error), fromBool func(bool) (T, error), fromStr func(string) (T, error)) (*bat.BAT, error) {
	switch from := x.Kind(); {
	case (from == types.KindInt || from == types.KindOID) && fromInt != nil:
		src, nulls, _ := x.ints()
		return castVec(src, nulls, mk, fromInt)
	case from == types.KindFloat && fromFloat != nil:
		src, nulls, _ := x.floats()
		return castVec(src, nulls, mk, fromFloat)
	case from == types.KindBool && fromBool != nil:
		src, nulls, _ := x.boolsv()
		return castVec(src, nulls, mk, fromBool)
	case from == types.KindStr && fromStr != nil:
		src, nulls, _ := x.strsv()
		return castVec(src, nulls, mk, fromStr)
	default:
		return nil, fmt.Errorf("unsupported cast from %s to %s", from, k)
	}
}

// castVec converts the non-NULL rows of src with conv, morsel-parallel.
func castVec[S, T any](src []S, nulls *bat.Bitmap, mk func([]T) *bat.BAT, conv func(S) (T, error)) (*bat.BAT, error) {
	out := make([]T, len(src))
	err := par.DoErr(len(src), func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			v, err := conv(src[i])
			if err != nil {
				return err
			}
			out[i] = v
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return withNulls(mk(out), nulls.Clone()), nil
}

func same[T any](v T) (T, error) { return v, nil }

func boolNum[T int64 | float64](b bool) (T, error) {
	if b {
		return 1, nil
	}
	return 0, nil
}

// Concat string-concatenates two operands ("||").
func Concat(l, r Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &l, &r); err != nil {
		return nil, err
	}
	n := l.Len()
	ls, ln, err := l.strsv()
	if err != nil {
		return nil, err
	}
	rs, rn, err := r.strsv()
	if err != nil {
		return nil, err
	}
	nulls := orNulls(n, ln, rn)
	out := make([]string, n)
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = ls[i] + rs[i]
		}
	})
	return withNulls(bat.FromStrings(out), nulls), nil
}

// StrUnary evaluates "upper", "lower" or "length".
func StrUnary(op string, x Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x); err != nil {
		return nil, err
	}
	xs, xn, err := x.strsv()
	if err != nil {
		return nil, err
	}
	n := x.Len()
	switch op {
	case "upper", "lower":
		out := make([]string, n)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if op == "upper" {
					out[i] = strings.ToUpper(xs[i])
				} else {
					out[i] = strings.ToLower(xs[i])
				}
			}
		})
		return withNulls(bat.FromStrings(out), xn.Clone()), nil
	case "length":
		out := make([]int64, n)
		par.Do(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = int64(len(xs[i]))
			}
		})
		return withNulls(bat.FromIntsOfKind(out, types.KindInt), xn.Clone()), nil
	default:
		return nil, fmt.Errorf("gdk: unknown string op %q", op)
	}
}

// Substring implements SUBSTRING(s FROM start FOR length) with SQL's
// 1-based start position.
func Substring(x, start, length Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x, &start, &length); err != nil {
		return nil, err
	}
	n := x.Len()
	xs, xn, err := x.strsv()
	if err != nil {
		return nil, err
	}
	si, sn, err := start.ints()
	if err != nil {
		return nil, err
	}
	li, lnn, err := length.ints()
	if err != nil {
		return nil, err
	}
	nulls := orNulls(n, orNulls(n, xn, sn), lnn)
	out := make([]string, n)
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			s := xs[i]
			from := int(si[i]) - 1
			if from < 0 {
				from = 0
			}
			if from > len(s) {
				from = len(s)
			}
			to := from + int(li[i])
			if to < from {
				to = from
			}
			if to > len(s) {
				to = len(s)
			}
			out[i] = s[from:to]
		}
	})
	return withNulls(bat.FromStrings(out), nulls), nil
}

// Like evaluates the SQL LIKE predicate with % and _ wildcards.
func Like(x, pattern Opnd, cand *bat.BAT) (*bat.BAT, error) {
	if err := restrictTo(cand, &x, &pattern); err != nil {
		return nil, err
	}
	n := x.Len()
	xs, xn, err := x.strsv()
	if err != nil {
		return nil, err
	}
	ps, pn, err := pattern.strsv()
	if err != nil {
		return nil, err
	}
	nulls := orNulls(n, xn, pn)
	out := make([]bool, n)
	// Cache the matcher when the pattern is constant (stateless, so it is
	// safe to share across workers).
	var cached func(string) bool
	if pattern.IsConst() && !pattern.ConstValue().IsNull() {
		cached = likeMatcher(pattern.ConstValue().StrVal())
	}
	par.Do(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if nulls.Get(i) {
				continue
			}
			m := cached
			if m == nil {
				m = likeMatcher(ps[i])
			}
			out[i] = m(xs[i])
		}
	})
	return withNulls(bat.FromBools(out), nulls), nil
}

// likeMatcher compiles a LIKE pattern into a matcher function using
// iterative greedy matching with backtracking on %.
func likeMatcher(pattern string) func(string) bool {
	pat := []rune(pattern)
	return func(s string) bool {
		str := []rune(s)
		return likeMatch(str, pat)
	}
}

func likeMatch(s, p []rune) bool {
	var si, pi int
	star, mark := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
