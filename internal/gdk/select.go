package gdk

import (
	"fmt"
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
	vals := cond.DecodedBools()
	co, cbase := candSlice(cand)
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
	if val.IsNull() {
		out := bat.FromOIDs(nil)
		out.Sorted, out.Key = true, true
		return out, nil
	}
	if err := candInRange(cand, b.Len()); err != nil {
		return nil, err
	}
	// Property fast paths: bound pruning, sorted binary search, zonemap
	// skip-scan (see stats.go). Bit-identical to the scan below.
	if fast, handled := statsThetaSelect(b, cand, val, op); handled {
		return fast, nil
	}
	// Dictionary-encoded string slabs evaluate the predicate once per
	// distinct value, then scan codes (see enc_select.go). Bit-identical
	// to the scan below.
	if fast, handled, err := encodedStrTheta(b, cand, val, op); err != nil {
		return nil, err
	} else if handled {
		return fast, nil
	}
	test, err := thetaTest(b, val, op)
	if err != nil {
		return nil, err
	}
	var out []int64
	if cand == nil {
		out = gatherOIDs(job, b.Len(), func(lo, hi int, dst []int64) []int64 {
			for i := lo; i < hi; i++ {
				if b.IsNull(i) {
					continue
				}
				if test(i) {
					dst = append(dst, int64(i))
				}
			}
			return dst
		})
	} else {
		// Scan the candidate list in parallel chunks: candidates are
		// position-sorted, so chunk order keeps the output sorted.
		out = gatherOIDs(job, cand.Len(), func(lo, hi int, dst []int64) []int64 {
			for c := lo; c < hi; c++ {
				i := int(cand.OidAt(c))
				if i >= b.Len() || b.IsNull(i) {
					continue
				}
				if test(i) {
					dst = append(dst, int64(i))
				}
			}
			return dst
		})
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob, nil
}

// thetaTest compiles the per-row predicate for b against val under op.
// Numeric columns capture their decoded tail once (one slab-layer charge
// per compile, not per row); other kinds go through Get.
func thetaTest(b *bat.BAT, val types.Value, op string) (func(int) bool, error) {
	o, err := cmpOpOf(op)
	if err != nil {
		return nil, fmt.Errorf("gdk: unknown theta op %q", op)
	}
	switch b.ValueKind() {
	case types.KindInt, types.KindOID:
		want, err := val.AsInt()
		if err != nil {
			return nil, err
		}
		if b.Kind() == types.KindVoid {
			sb := int64(b.Seqbase())
			return func(i int) bool {
				v := sb + int64(i)
				switch {
				case v < want:
					return o.ok(-1)
				case v > want:
					return o.ok(1)
				default:
					return o.ok(0)
				}
			}, nil
		}
		vals := b.DecodedInts()
		return func(i int) bool {
			v := vals[i]
			switch {
			case v < want:
				return o.ok(-1)
			case v > want:
				return o.ok(1)
			default:
				return o.ok(0)
			}
		}, nil
	case types.KindFloat:
		want, err := val.AsFloat()
		if err != nil {
			return nil, err
		}
		vals := b.DecodedFloats()
		return func(i int) bool {
			v := vals[i]
			switch {
			case v < want:
				return o.ok(-1)
			case v > want:
				return o.ok(1)
			default:
				return o.ok(0)
			}
		}, nil
	case types.KindStr:
		// Value.Compare on a string column value is strings.Compare against
		// val's string payload ("" for non-string vals), so this is
		// bit-identical to the Get path below.
		want := val.StrVal()
		vals := b.DecodedStrs()
		return func(i int) bool {
			return o.ok(strings.Compare(vals[i], want))
		}, nil
	default:
		return func(i int) bool {
			return o.ok(b.Get(i).Compare(val))
		}, nil
	}
}

// RangeSelect returns positions where lo <= b[i] <= hi (both inclusive,
// SQL BETWEEN). NULL rows never match.
func RangeSelect(job *par.Job, b *bat.BAT, cand *bat.BAT, lo, hi types.Value) (*bat.BAT, error) {
	if lo.IsNull() || hi.IsNull() {
		out := bat.FromOIDs(nil)
		out.Sorted, out.Key = true, true
		return out, nil
	}
	if err := candInRange(cand, b.Len()); err != nil {
		return nil, err
	}
	// Property fast paths (see stats.go); bit-identical to the scan below.
	if fast, handled := statsRangeSelect(b, cand, lo, hi); handled {
		return fast, nil
	}
	ge, err := thetaTest(b, lo, ">=")
	if err != nil {
		return nil, err
	}
	le, err := thetaTest(b, hi, "<=")
	if err != nil {
		return nil, err
	}
	var out []int64
	if cand == nil {
		out = gatherOIDs(job, b.Len(), func(from, to int, dst []int64) []int64 {
			for i := from; i < to; i++ {
				if b.IsNull(i) {
					continue
				}
				if ge(i) && le(i) {
					dst = append(dst, int64(i))
				}
			}
			return dst
		})
	} else {
		out = gatherOIDs(job, cand.Len(), func(from, to int, dst []int64) []int64 {
			for c := from; c < to; c++ {
				i := int(cand.OidAt(c))
				if i >= b.Len() || b.IsNull(i) {
					continue
				}
				if ge(i) && le(i) {
					dst = append(dst, int64(i))
				}
			}
			return dst
		})
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob, nil
}

// SelectNonNull returns the positions of non-NULL rows of the base-aligned
// column b, restricted to the candidate positions when cand is non-nil
// (same convention as ThetaSelect/RangeSelect).
func SelectNonNull(job *par.Job, b, cand *bat.BAT) (*bat.BAT, error) {
	if err := candInRange(cand, b.Len()); err != nil {
		return nil, err
	}
	// NULL-free columns answer in O(1): every candidate row qualifies.
	if !b.HasNulls() {
		if cand != nil {
			return cand, nil
		}
		return bat.NewVoid(0, b.Len()), nil
	}
	var out []int64
	if cand == nil {
		out = gatherOIDs(job, b.Len(), func(lo, hi int, dst []int64) []int64 {
			for i := lo; i < hi; i++ {
				if !b.IsNull(i) {
					dst = append(dst, int64(i))
				}
			}
			return dst
		})
	} else {
		co, cbase := candSlice(cand)
		out = gatherOIDs(job, cand.Len(), func(lo, hi int, dst []int64) []int64 {
			for c := lo; c < hi; c++ {
				i := candAt(co, cbase, c)
				if !b.IsNull(int(i)) {
					dst = append(dst, i)
				}
			}
			return dst
		})
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob, nil
}
