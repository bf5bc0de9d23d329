package rel

import (
	"sort"

	"repro/internal/bat"
	"repro/internal/types"
)

// Property threading
//
// Plan operands carry no statistics of their own: a schema column either
// passes a base storage column through unchanged — in which case the
// column's BAT properties (sorted flags, min/max bounds, NULL count) speak
// for the operand — or it is computed, in which case nothing is claimed.
// BaseCols resolves that mapping, and the optimizer uses it to order
// conjuncts by estimated selectivity, fold predicates the bounds prove
// empty or full, and pick merge over hash joins.
//
// Plans are bound and optimized against the same catalog (a frozen
// snapshot for readers), so the statistics consulted here describe exactly
// the data the compiled program will scan — folding is sound, not
// heuristic. Only parsed ASTs are cached across statements; binding and
// optimization rerun per execution.

// BaseCols returns, per schema column of n, the base storage BAT the
// operator chain passes through unchanged (nil entries for computed or
// reordered-beyond-recognition columns). Row-subset operators (selection,
// candidate application, slicing, sorting) keep the mapping: a subset
// invalidates no conservative claim.
func BaseCols(n Node) []*bat.BAT {
	switch x := n.(type) {
	case *ScanTable:
		return x.T.Bats
	case *ScanArray:
		out := make([]*bat.BAT, 0, len(x.A.DimBats)+len(x.A.AttrBats))
		out = append(out, x.A.DimBats...)
		out = append(out, x.A.AttrBats...)
		return out
	case *Filter:
		return BaseCols(x.Child)
	case *CandSelect:
		return BaseCols(x.Child)
	case *Limit:
		return BaseCols(x.Child)
	case *Sort:
		return BaseCols(x.Child)
	case *Distinct:
		return BaseCols(x.Child)
	case *Project:
		child := BaseCols(x.Child)
		if child == nil {
			return nil
		}
		out := make([]*bat.BAT, len(x.Exprs))
		for i, e := range x.Exprs {
			if c, ok := e.(*Col); ok && c.Idx >= 0 && c.Idx < len(child) {
				out[i] = child[c.Idx]
			}
		}
		return out
	case *Join:
		l := BaseCols(x.L)
		r := BaseCols(x.R)
		if x.LeftOuter {
			// NULL-padded rows make the join output more than a row subset
			// of the right side: a predicate the base bounds prove "matches
			// every row" still has to drop the padding, so the right
			// columns must not claim anything.
			r = nil
		}
		if l == nil && r == nil {
			return nil
		}
		if l == nil {
			l = make([]*bat.BAT, len(x.L.Schema()))
		}
		if r == nil {
			r = make([]*bat.BAT, len(x.R.Schema()))
		}
		return append(append([]*bat.BAT{}, l...), r...)
	}
	return nil
}

// baseCol fetches the base BAT of schema column i (nil when unknown).
func baseCol(cols []*bat.BAT, i int) *bat.BAT {
	if i < 0 || i >= len(cols) {
		return nil
	}
	return cols[i]
}

// stepVerdict classifies one selection step against column statistics.
type stepVerdict int

const (
	stepUnknown stepVerdict = iota
	stepEmpty               // provably selects nothing
	stepFull                // provably selects every row (and there are no NULLs)
)

// atomStats estimates the selectivity of one atom against its base
// column's bounds (uniform-distribution assumption) and detects the
// provable extremes. Unknown columns estimate 1.0 so stats-less conjuncts
// keep their written order behind provably cheaper ones.
func atomStats(a SelAtom, col *bat.BAT) (sel float64, v stepVerdict) {
	if col == nil {
		return 1, stepUnknown
	}
	n := col.Len()
	if n == 0 {
		return 0, stepUnknown
	}
	nonNull := float64(n-col.NullCount()) / float64(n)
	lo, hi, ok := col.MinMax()
	if !ok {
		return 1, stepUnknown
	}
	var frac float64
	var verdict stepVerdict
	switch col.ValueKind() {
	case types.KindInt, types.KindOID:
		mn, _ := lo.AsInt()
		mx, _ := hi.AsInt()
		frac, verdict = atomFracInt(a, mn, mx)
	case types.KindFloat:
		mn, _ := lo.AsFloat()
		mx, _ := hi.AsFloat()
		frac, verdict = atomFracFloat(a, mn, mx)
	default:
		return 1, stepUnknown
	}
	if verdict == stepFull && col.NullCount() > 0 {
		// NULL rows never match: "everything" still drops them, so the
		// step cannot fold away.
		verdict = stepUnknown
	}
	return frac * nonNull, verdict
}

// atomFracInt estimates the matching fraction of `col OP val` for an
// integer column with bounds [mn, mx].
func atomFracInt(a SelAtom, mn, mx int64) (float64, stepVerdict) {
	width := float64(mx-mn) + 1
	if a.Op == "between" {
		lo, err1 := a.Lo.AsInt()
		hi, err2 := a.Hi.AsInt()
		if err1 != nil || err2 != nil {
			return 1, stepUnknown
		}
		if hi < lo || hi < mn || lo > mx {
			return 0, stepEmpty
		}
		if lo <= mn && hi >= mx {
			return 1, stepFull
		}
		return overlap(float64(lo), float64(hi)+1, float64(mn), float64(mx)+1) / width, stepUnknown
	}
	w, err := a.Val.AsInt()
	if err != nil {
		return 1, stepUnknown
	}
	switch a.Op {
	case "=":
		if w < mn || w > mx {
			return 0, stepEmpty
		}
		if mn == mx {
			return 1, stepFull
		}
		return 1 / width, stepUnknown
	case "<>":
		if w < mn || w > mx {
			return 1, stepFull
		}
		if mn == mx {
			return 0, stepEmpty
		}
		return 1 - 1/width, stepUnknown
	case "<":
		if w <= mn {
			return 0, stepEmpty
		}
		if w > mx {
			return 1, stepFull
		}
		return float64(w-mn) / width, stepUnknown
	case "<=":
		if w < mn {
			return 0, stepEmpty
		}
		if w >= mx {
			return 1, stepFull
		}
		return float64(w-mn+1) / width, stepUnknown
	case ">":
		if w >= mx {
			return 0, stepEmpty
		}
		if w < mn {
			return 1, stepFull
		}
		return float64(mx-w) / width, stepUnknown
	case ">=":
		if w > mx {
			return 0, stepEmpty
		}
		if w <= mn {
			return 1, stepFull
		}
		return float64(mx-w+1) / width, stepUnknown
	}
	return 1, stepUnknown
}

// atomFracFloat mirrors atomFracInt over a continuous domain.
func atomFracFloat(a SelAtom, mn, mx float64) (float64, stepVerdict) {
	width := mx - mn
	if a.Op == "between" {
		lo, err1 := a.Lo.AsFloat()
		hi, err2 := a.Hi.AsFloat()
		if err1 != nil || err2 != nil {
			return 1, stepUnknown
		}
		if hi < lo || hi < mn || lo > mx {
			return 0, stepEmpty
		}
		if lo <= mn && hi >= mx {
			return 1, stepFull
		}
		if width <= 0 {
			return 1, stepUnknown
		}
		return overlap(lo, hi, mn, mx) / width, stepUnknown
	}
	w, err := a.Val.AsFloat()
	if err != nil {
		return 1, stepUnknown
	}
	switch a.Op {
	case "=":
		if w < mn || w > mx {
			return 0, stepEmpty
		}
		if mn == mx {
			return 1, stepFull
		}
		return 0.05, stepUnknown // point query on a continuum: assume rare
	case "<>":
		if w < mn || w > mx {
			return 1, stepFull
		}
		if mn == mx {
			return 0, stepEmpty
		}
		return 0.95, stepUnknown
	case "<":
		if w <= mn {
			return 0, stepEmpty
		}
		if w > mx {
			return 1, stepFull
		}
		return clampFrac((w - mn) / width), stepUnknown
	case "<=":
		if w < mn {
			return 0, stepEmpty
		}
		if w >= mx {
			return 1, stepFull
		}
		return clampFrac((w - mn) / width), stepUnknown
	case ">":
		if w >= mx {
			return 0, stepEmpty
		}
		if w < mn {
			return 1, stepFull
		}
		return clampFrac((mx - w) / width), stepUnknown
	case ">=":
		if w > mx {
			return 0, stepEmpty
		}
		if w <= mn {
			return 1, stepFull
		}
		return clampFrac((mx - w) / width), stepUnknown
	}
	return 1, stepUnknown
}

func overlap(alo, ahi, blo, bhi float64) float64 {
	lo := alo
	if blo > lo {
		lo = blo
	}
	hi := ahi
	if bhi < hi {
		hi = bhi
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

func clampFrac(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// OptimizeSteps applies statistics to a decomposed selection chain:
// provably empty atoms (or all-empty OR unions) collapse the whole chain,
// provably full steps fold away, and the surviving atom steps reorder by
// estimated selectivity — most selective first, so every later step (and
// especially the residuals) sees the smallest possible candidate list.
// The reorder is stable, and atoms keep preceding OR unions and residuals
// (AND is commutative; every step only shrinks the row set).
func OptimizeSteps(steps []SelStep, cols []*bat.BAT) (out []SelStep, empty bool) {
	if cols == nil {
		return steps, false
	}
	type ranked struct {
		step SelStep
		sel  float64
	}
	var atoms []ranked
	var rest []SelStep
	for _, st := range steps {
		switch {
		case st.Atom != nil:
			sel, v := atomStats(*st.Atom, baseCol(cols, st.Atom.Col))
			switch v {
			case stepEmpty:
				return nil, true
			case stepFull:
				continue // selects everything: the step is a no-op
			}
			atoms = append(atoms, ranked{st, sel})
		case st.Or != nil:
			branches := st.Or[:0:0]
			full := false
			for _, a := range st.Or {
				_, v := atomStats(a, baseCol(cols, a.Col))
				switch v {
				case stepEmpty:
					continue // branch contributes nothing
				case stepFull:
					full = true
				}
				branches = append(branches, a)
			}
			switch {
			case full:
				continue // one branch matches everything: the union is a no-op
			case len(branches) == 0:
				return nil, true // every branch provably empty
			case len(branches) == 1:
				a := branches[0]
				sel, _ := atomStats(a, baseCol(cols, a.Col))
				atoms = append(atoms, ranked{SelStep{Atom: &a}, sel})
			default:
				rest = append(rest, SelStep{Or: branches})
			}
		default:
			rest = append(rest, st)
		}
	}
	sort.SliceStable(atoms, func(i, j int) bool { return atoms[i].sel < atoms[j].sel })
	out = make([]SelStep, 0, len(atoms)+len(rest))
	for _, a := range atoms {
		out = append(out, a.step)
	}
	out = append(out, rest...)
	return out, false
}

// PlanSteps decomposes a predicate over child and applies the statistics
// pass: the generator's one-stop entry for Filter lowering.
func PlanSteps(child Node, pred Expr) (steps []SelStep, empty bool) {
	return OptimizeSteps(DecomposePred(pred), BaseCols(child))
}

// MergeJoinnable reports whether the plan-time properties of a single
// bare-column join key pair prove both sides sorted and NULL-free, so the
// MAL generator can emit the merge-join instruction. The kernel
// re-validates at runtime and falls back to hashing, so a stale claim
// costs nothing.
func MergeJoinnable(x *Join) bool {
	if x.Cross || x.LeftOuter || len(x.LKeys) != 1 {
		return false
	}
	lc, lok := x.LKeys[0].(*Col)
	rc, rok := x.RKeys[0].(*Col)
	if !lok || !rok {
		return false
	}
	lb := baseCol(BaseCols(x.L), lc.Idx)
	rb := baseCol(BaseCols(x.R), rc.Idx)
	return lb != nil && rb != nil && lb.Sorted && rb.Sorted &&
		!lb.HasNulls() && !rb.HasNulls()
}
