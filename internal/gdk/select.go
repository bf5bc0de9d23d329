package gdk

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// gatherOIDs scans [0,n) in parallel chunks. pick appends the matching
// positions of its range to dst and returns it. Chunks are concatenated in
// chunk order, so the result stays position-sorted.
//
// Buffers grow geometrically from a small seed rather than pre-allocating
// for the worst case: selective scans (the common case under candidate
// execution) then allocate proportionally to their matches, not the input.
func gatherOIDs(job *par.Job, n int, pick func(lo, hi int, dst []int64) []int64) []int64 {
	plan := par.NewPlan(job, n)
	if !plan.Parallel() {
		return pick(0, n, make([]int64, 0, seedCap(n)))
	}
	parts := make([][]int64, plan.Chunks())
	plan.Run(func(c, lo, hi int) {
		parts[c] = pick(lo, hi, nil)
	})
	return concatInt64(job, parts)
}

// seedCap is the package's growth-buffer discipline for position outputs
// of unknown size: a small input-proportional seed, capped, grown
// geometrically from there — selective scans then allocate proportionally
// to their matches, never a half-input worst case.
func seedCap(n int) int {
	seed := n/64 + 16
	if seed > 4096 {
		seed = 4096
	}
	return seed
}

// SelectBool returns the positions (as an oid BAT) where the boolean column
// is true. NULL rows are not selected (SQL WHERE semantics).
//
// SelectBool is the residual-predicate sink of candidate execution: when
// cand is non-nil, cond must be candidate-aligned (cond[i] is the
// predicate value for base row cand[i], so len(cond) == cand.Len()) and
// the result holds the qualifying base positions cand[i]. With a nil
// candidate list the two spaces coincide and the result holds the
// positions of cond itself.
func SelectBool(job *par.Job, cond, cand *bat.BAT) (*bat.BAT, error) {
	if cond.Kind() != types.KindBool {
		return nil, fmt.Errorf("gdk: select needs a boolean column, got %s", cond.Kind())
	}
	if err := checkCand(cand); err != nil {
		return nil, err
	}
	if cand != nil && cand.Len() != cond.Len() {
		return nil, fmt.Errorf("gdk: select condition not aligned with candidate list: %d vs %d", cond.Len(), cand.Len())
	}
	vals := cond.DecodedBools(job)
	co, cbase := candSlice(job, cand)
	var out []int64
	if cond.HasNulls() {
		out = gatherOIDs(job, len(vals), func(lo, hi int, dst []int64) []int64 {
			for i := lo; i < hi; i++ {
				if vals[i] && !cond.IsNull(i) {
					dst = append(dst, candAt(co, cbase, i))
				}
			}
			return dst
		})
	} else {
		out = gatherOIDs(job, len(vals), func(lo, hi int, dst []int64) []int64 {
			for i := lo; i < hi; i++ {
				if vals[i] {
					dst = append(dst, candAt(co, cbase, i))
				}
			}
			return dst
		})
	}
	b := bat.FromOIDs(out)
	b.Sorted, b.Key = true, true
	return b, nil
}

// ThetaSelect scans column b (optionally restricted to candidate positions
// cand; nil means all rows) and returns the positions whose value compares
// to val under op ("=", "<>", "<", "<=", ">", ">="). NULL rows never match.
// This is the candidate-list fast path; generic predicates go through
// Compare + SelectBool.
func ThetaSelect(job *par.Job, b *bat.BAT, cand *bat.BAT, val types.Value, op string) (*bat.BAT, error) {
	o, err := cmpOpOf(op)
	if err != nil {
		return nil, fmt.Errorf("gdk: unknown theta op %q", op)
	}
	if val.IsNull() {
		return emptyCand(), nil
	}
	if err := candInRange(cand, b.Len()); err != nil {
		return nil, err
	}
	// Property fast paths: bound pruning, sorted binary search, zonemap
	// skip-scan (see stats.go). Bit-identical to the scans below.
	if fast, handled := statsThetaSelect(job, b, cand, val, op); handled {
		return fast, nil
	}
	switch b.ValueKind() {
	case types.KindInt, types.KindOID:
		w, err := val.AsInt()
		if err != nil {
			return nil, err
		}
		lo, hi, neg := thetaBounds(o, w, math.MinInt64, math.MaxInt64)
		return boundsSelect(job, intVals(job, b), b, cand, lo, hi, neg)
	case types.KindFloat:
		w, err := val.AsFloat()
		if err != nil {
			return nil, err
		}
		lo, hi, neg := thetaBounds(o, w, math.Inf(-1), math.Inf(1))
		return boundsSelect(job, b.DecodedFloats(job), b, cand, lo, hi, neg)
	}
	// Dictionary-encoded string slabs evaluate the predicate once per
	// distinct value, then scan codes (see enc_select.go). Bit-identical
	// to the scan below.
	if fast, handled, err := encodedStrTheta(job, b, cand, val, op); err != nil {
		return nil, err
	} else if handled {
		return fast, nil
	}
	return testSelect(job, b, cand, thetaTest(job, b, val, o))
}

// thetaBounds rewrites `v op w` under the engine's three-way comparison,
// in which NaN (as v or as w) compares equal to everything, as
// `(!(v < lo) && !(v > hi)) != neg`: = and <= and >= keep the rows
// between two bounds, <> and < and > drop them. least and most are the
// type's extremes, which every value (NaN too) is not below and not
// above. Written with < and > only, the test keeps NaN's rule: NaN
// matches =, <= and >=, and not <>, < or >.
func thetaBounds[T int64 | float64](o cmpOp, w, least, most T) (lo, hi T, neg bool) {
	switch o {
	case cmpEq:
		return w, w, false
	case cmpNe:
		return w, w, true
	case cmpLe:
		return least, w, false
	case cmpGe:
		return w, most, false
	case cmpLt:
		return w, most, true
	default: // cmpGt
		return least, w, true
	}
}

// boundsSelect is the int and float scan of ThetaSelect and RangeSelect:
// the positions of the candidate rows of b (its values vals) that are not
// NULL and whose value v satisfies (!(v < lo) && !(v > hi)) != neg. A
// dense candidate list scans its window of vals, an oid list reads vals
// at its positions. The scan is morsel-parallel, polls the job every 4096
// rows and returns par.ErrCanceled once it is cancelled.
func boundsSelect[T int64 | float64](job *par.Job, vals []T, b, cand *bat.BAT, lo, hi T, neg bool) (*bat.BAT, error) {
	var nulls *bat.Bitmap
	if b.HasNulls() {
		nulls = b.NullMask()
	}
	rows, base := candSlice(job, cand)
	n := len(vals)
	if cand != nil {
		n = cand.Len()
	}
	out := gatherOIDs(job, n, func(from, to int, dst []int64) []int64 {
		pollBlocks(job, from, to, func(from, to int) {
			if rows == nil {
				dst = scanBounds(vals, nulls, int(base)+from, int(base)+to, lo, hi, neg, dst)
			} else {
				dst = scanBoundsAt(vals, nulls, rows[from:to], lo, hi, neg, dst)
			}
		})
		return dst
	})
	if job.Canceled() {
		return nil, par.ErrCanceled
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob, nil
}

// scanBounds appends the matching rows of vals[from:to] to dst. The test
// is computed without a branch (setcc and and), so the only branch in the
// loop is the append, which a selective predicate predicts well.
func scanBounds[T int64 | float64](vals []T, nulls *bat.Bitmap, from, to int, lo, hi T, neg bool, dst []int64) []int64 {
	nb := bit(neg)
	for i, v := range vals[from:to] {
		if bit(!(v < lo))&bit(!(v > hi)) != nb && !nulls.Get(from+i) {
			dst = append(dst, int64(from+i))
		}
	}
	return dst
}

// scanBoundsAt appends the matching rows among the positions rows to dst.
func scanBoundsAt[T int64 | float64](vals []T, nulls *bat.Bitmap, rows []int64, lo, hi T, neg bool, dst []int64) []int64 {
	nb := bit(neg)
	for _, p := range rows {
		if v := vals[p]; bit(!(v < lo))&bit(!(v > hi)) != nb && !nulls.Get(int(p)) {
			dst = append(dst, p)
		}
	}
	return dst
}

// bit is b as 0 or 1; the compiler lowers it to a setcc.
func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// thetaTest compiles the per-row predicate for a string, bool or other
// non-numeric column b against val under o; int and float columns take
// boundsSelect instead.
func thetaTest(job *par.Job, b *bat.BAT, val types.Value, o cmpOp) func(int) bool {
	if b.ValueKind() == types.KindStr {
		// Value.Compare on a string column value is strings.Compare against
		// val's string payload ("" for non-string vals), so this is
		// bit-identical to the Get path below.
		want := val.StrVal()
		vals := b.DecodedStrs(job)
		return func(i int) bool {
			return o.ok(strings.Compare(vals[i], want))
		}
	}
	return func(i int) bool {
		return o.ok(b.Get(i).Compare(val))
	}
}

// testSelect is the scan of ThetaSelect and RangeSelect over the other
// kinds: the non-NULL candidate rows of b that satisfy test.
func testSelect(job *par.Job, b, cand *bat.BAT, test func(int) bool) (*bat.BAT, error) {
	rows, base := candSlice(job, cand)
	n := b.Len()
	if cand != nil {
		n = cand.Len()
	}
	out := gatherOIDs(job, n, func(from, to int, dst []int64) []int64 {
		pollBlocks(job, from, to, func(from, to int) {
			for c := from; c < to; c++ {
				i := int(candAt(rows, base, c))
				if !b.IsNull(i) && test(i) {
					dst = append(dst, int64(i))
				}
			}
		})
		return dst
	})
	if job.Canceled() {
		return nil, par.ErrCanceled
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob, nil
}

// RangeSelect returns positions where lo <= b[i] <= hi (both inclusive,
// SQL BETWEEN). NULL rows never match.
func RangeSelect(job *par.Job, b *bat.BAT, cand *bat.BAT, lo, hi types.Value) (*bat.BAT, error) {
	if lo.IsNull() || hi.IsNull() {
		return emptyCand(), nil
	}
	if err := candInRange(cand, b.Len()); err != nil {
		return nil, err
	}
	// Property fast paths (see stats.go); bit-identical to the scans below.
	if fast, handled := statsRangeSelect(job, b, cand, lo, hi); handled {
		return fast, nil
	}
	switch b.ValueKind() {
	case types.KindInt, types.KindOID:
		l, err := lo.AsInt()
		if err != nil {
			return nil, err
		}
		h, err := hi.AsInt()
		if err != nil {
			return nil, err
		}
		return boundsSelect(job, intVals(job, b), b, cand, l, h, false)
	case types.KindFloat:
		l, err := lo.AsFloat()
		if err != nil {
			return nil, err
		}
		h, err := hi.AsFloat()
		if err != nil {
			return nil, err
		}
		return boundsSelect(job, b.DecodedFloats(job), b, cand, l, h, false)
	}
	ge, le := thetaTest(job, b, lo, cmpGe), thetaTest(job, b, hi, cmpLe)
	return testSelect(job, b, cand, func(i int) bool { return ge(i) && le(i) })
}
