package rel

import (
	"fmt"
	"math"

	"repro/internal/gdk"
	"repro/internal/types"
)

// Optimize applies the rewrite passes to a bound plan:
//
//  0. foldPlan — constant subexpressions of every expression fold through
//     the gdk kernels (fold.go); the passes below look for *Const operands.
//  1. crossToHash — a Filter above a cross Join donates equi conjuncts as
//     hash-join keys and single-side conjuncts as pushed-down filters
//     (comma-join FROM lists become real joins).
//  2. slabPushdown — dimension-range conjuncts above an array scan become
//     arithmetic slab bounds on the scan (no scan needed for the filter).
//  3. candSelect — conjunctive WHERE clauses decompose into an ordered
//     chain of theta/range/residual selection steps, so each predicate
//     narrows a flowing candidate list instead of materialising a boolean
//     column over all rows (MonetDB's candidate-list discipline).
//  4. tileKernel — structural grouping switches to the summed-area-table
//     kernel when profitable (the "tileSAT" MAL optimizer of DESIGN.md).
//  5. orderJoins — multi-way inner-join trees (3+ relations) reorder
//     greedily by estimated cardinality (see joinorder.go).
func Optimize(n Node) Node {
	foldPlan(n)
	return orderJoins(rewrite(n))
}

func rewrite(n Node) Node {
	switch x := n.(type) {
	case *Filter:
		x.Child = rewrite(x.Child)
		if j, ok := x.Child.(*Join); ok && j.Cross {
			return rewriteJoinInputs(pushIntoCross(x.Pred, j))
		}
		if scan, ok := x.Child.(*ScanArray); ok {
			return decomposeFilterNode(pushSlabIntoScan(x, scan))
		}
		return decomposeFilter(x)
	case *CandSelect:
		x.Child = rewrite(x.Child)
		return x
	case *Project:
		x.Child = rewrite(x.Child)
		return x
	case *Join:
		x.L = rewrite(x.L)
		x.R = rewrite(x.R)
		return x
	case *GroupAgg:
		x.Child = rewrite(x.Child)
		return x
	case *TileAgg:
		useSAT := gdk.SATProfitable(x.A.Shape, x.Tile)
		if useSAT {
			for _, a := range x.Aggs {
				switch a.Agg {
				case gdk.AggSum, gdk.AggAvg, gdk.AggCount, gdk.AggCountAll:
				default:
					useSAT = false
				}
			}
		}
		x.UseSAT = useSAT
		return x
	case *Sort:
		x.Child = rewrite(x.Child)
		return x
	case *Limit:
		x.Child = rewrite(x.Child)
		return x
	case *Distinct:
		x.Child = rewrite(x.Child)
		return x
	case *UnionAll:
		x.L = rewrite(x.L)
		x.R = rewrite(x.R)
		return x
	case *Write:
		x.Child = rewrite(x.Child)
		return x
	default:
		return n
	}
}

// rewriteJoinInputs re-runs the rewriter on the inputs of a node produced
// by pushIntoCross, so predicates pushed onto array scans can still become
// slab restrictions in the same pass.
func rewriteJoinInputs(n Node) Node {
	switch x := n.(type) {
	case *Join:
		x.L = rewrite(x.L)
		x.R = rewrite(x.R)
		return x
	case *Filter:
		if j, ok := x.Child.(*Join); ok {
			j.L = rewrite(j.L)
			j.R = rewrite(j.R)
		}
		return decomposeFilter(x)
	default:
		return n
	}
}

// pushIntoCross distributes the conjuncts of pred over a cross join:
// left-only conjuncts filter the left input, right-only conjuncts filter
// the right input (with ordinals remapped), equi conjuncts become join
// keys, and whatever remains stays as a residual filter above the join.
func pushIntoCross(pred Expr, j *Join) Node {
	nl := len(j.L.Schema())
	var (
		leftPred, rightPred, residual Expr
		lkeys, rkeys                  []Expr
	)
	for _, conj := range splitConjuncts(pred) {
		switch sideOf(conj, nl) {
		case sideLeft, sideNone:
			leftPred = andExprs(leftPred, conj)
		case sideRight:
			rightPred = andExprs(rightPred, MapCols(conj, func(i int) int { return i - nl }))
		default:
			if bin, ok := conj.(*Bin); ok && bin.Op == "=" {
				ls, rs := sideOf(bin.L, nl), sideOf(bin.R, nl)
				if ls == sideLeft && rs == sideRight {
					lkeys = append(lkeys, bin.L)
					rkeys = append(rkeys, MapCols(bin.R, func(i int) int { return i - nl }))
					continue
				}
				if ls == sideRight && rs == sideLeft {
					lkeys = append(lkeys, bin.R)
					rkeys = append(rkeys, MapCols(bin.L, func(i int) int { return i - nl }))
					continue
				}
			}
			residual = andExprs(residual, conj)
		}
	}
	if leftPred != nil {
		j.L = &Filter{Child: j.L, Pred: leftPred}
	}
	if rightPred != nil {
		j.R = &Filter{Child: j.R, Pred: rightPred}
	}
	if len(lkeys) > 0 {
		j.Cross = false
		j.LKeys = lkeys
		j.RKeys = rkeys
		j.Residual = andExprs(j.Residual, residual)
		return j
	}
	if residual != nil {
		return &Filter{Child: j, Pred: residual}
	}
	return j
}

// ------------------------------------------- candidate-chain decomposition

// SelAtom is one directly selectable conjunct: `column OP constant` (or a
// merged BETWEEN range), executable by the theta/range-select kernels
// against a flowing candidate list without materialising a boolean column.
type SelAtom struct {
	Col  int        // column ordinal in the input schema
	Kind types.Kind // column kind (drives range normalisation)
	Op   string     // "=", "<>", "<", "<=", ">", ">=" — or "between"
	Val  types.Value
	// Inclusive bounds when Op == "between".
	Lo, Hi types.Value
}

// SelStep is one step of a candidate-selection chain; exactly one of the
// fields is set. Atom steps narrow the candidate list with a fused select
// kernel; Or steps union the candidate lists of independently evaluated
// atoms; Pred steps evaluate a residual expression over the surviving
// candidates only.
type SelStep struct {
	Atom *SelAtom
	Or   []SelAtom
	Pred Expr
}

// CandSelect is the decomposed form of Filter: an ordered chain of
// candidate-narrowing steps. Cheap fused selections run first — ordered
// most-selective-first when column statistics allow an estimate —
// residual predicates last, so expensive expressions only ever see the
// rows that survived the cheap cuts.
type CandSelect struct {
	Child Node
	Steps []SelStep
	// Pred preserves the original predicate for EXPLAIN and re-derivation.
	Pred Expr
	// Empty marks a chain the column statistics prove selects nothing
	// (e.g. a bound outside the column's min/max): the generator emits an
	// empty candidate list and skips every step.
	Empty bool
}

// Schema passes the child schema through.
func (c *CandSelect) Schema() []ColInfo { return c.Child.Schema() }

// decomposeFilterNode applies decomposeFilter when the slab rewrite left a
// (residual) Filter behind.
func decomposeFilterNode(n Node) Node {
	if f, ok := n.(*Filter); ok {
		return decomposeFilter(f)
	}
	return n
}

// decomposeFilter rewrites a Filter into a CandSelect chain when at least
// one conjunct is directly selectable; an all-residual predicate keeps the
// Filter shape (the generator still threads candidates through it). The
// statistics pass then orders the selectable steps by estimated
// selectivity and folds the provable extremes (see OptimizeSteps); a
// provably empty chain becomes an Empty CandSelect, a chain folded down to
// nothing a no-op one.
func decomposeFilter(f *Filter) Node {
	steps := DecomposePred(f.Pred)
	selectable := false
	for _, s := range steps {
		if s.Pred == nil {
			selectable = true
		}
	}
	if !selectable {
		return f
	}
	steps, empty := OptimizeSteps(steps, BaseCols(f.Child))
	return &CandSelect{Child: f.Child, Steps: steps, Pred: f.Pred, Empty: empty}
}

// DecomposePred splits a predicate into an ordered candidate-selection
// chain: selectable atoms first (with >=/<= pairs on the same column
// merged into range steps), then unions of selectable OR branches, then
// the residual conjuncts — each evaluated only over the candidates that
// survived the steps before it. AND is commutative and every step only
// shrinks the row set, so the reordering is semantics-preserving; residual
// runtime errors (division by zero) can only disappear, never appear,
// because residuals see fewer rows than the undecomposed filter.
func DecomposePred(pred Expr) []SelStep {
	var atoms []SelAtom
	var ors [][]SelAtom
	var residuals []Expr
	for _, conj := range splitConjuncts(pred) {
		if a, ok := selAtom(conj); ok {
			atoms = append(atoms, a)
			continue
		}
		if br, ok := selOrAtoms(conj); ok {
			ors = append(ors, br)
			continue
		}
		residuals = append(residuals, conj)
	}
	if len(atoms) == 0 && len(ors) == 0 {
		// Nothing selectable: keep the whole predicate as one boolean tree.
		// Chaining residual-only conjuncts would re-gather their operand
		// columns per step without any cheap cut shrinking the list first.
		return []SelStep{{Pred: pred}}
	}
	atoms = mergeRangeAtoms(atoms)
	steps := make([]SelStep, 0, len(atoms)+len(ors)+len(residuals))
	for i := range atoms {
		a := atoms[i]
		steps = append(steps, SelStep{Atom: &a})
	}
	for _, br := range ors {
		steps = append(steps, SelStep{Or: br})
	}
	for _, r := range residuals {
		steps = append(steps, SelStep{Pred: r})
	}
	return steps
}

// selAtom matches a conjunct of the form `col cmp const` (or flipped) whose
// operand kinds the theta-select kernel compares exactly like the generic
// Compare kernel, so decomposition cannot change results.
func selAtom(e Expr) (SelAtom, bool) {
	bin, ok := e.(*Bin)
	if !ok {
		return SelAtom{}, false
	}
	switch bin.Op {
	case "=", "<>", "<", "<=", ">", ">=":
	default:
		return SelAtom{}, false
	}
	col, cok := bin.L.(*Col)
	cst, kok := bin.R.(*Const)
	op := bin.Op
	if !cok || !kok {
		col, cok = bin.R.(*Col)
		cst, kok = bin.L.(*Const)
		op = flipCmp(op)
	}
	if !cok || !kok {
		return SelAtom{}, false
	}
	if !thetaCompatible(col.Info.Kind, cst.Val) {
		return SelAtom{}, false
	}
	return SelAtom{Col: col.Idx, Kind: col.Info.Kind, Op: op, Val: cst.Val}, true
}

// thetaCompatible reports whether ThetaSelect on a column of kind k with
// constant v compares bit-identically to Compare+SelectBool. NULL
// constants always qualify: both paths select nothing.
func thetaCompatible(k types.Kind, v types.Value) bool {
	if v.IsNull() {
		return true
	}
	switch k {
	case types.KindInt, types.KindOID:
		// A float constant against an integer column would compare in float
		// on the generic path but truncate on the theta path: keep residual.
		return v.Kind() == types.KindInt || v.Kind() == types.KindOID
	case types.KindFloat:
		// Integer constants convert to float exactly like the generic path.
		return v.Kind() == types.KindFloat || v.Kind() == types.KindInt
	case types.KindBool, types.KindStr:
		return v.Kind() == k
	}
	return false
}

// selOrAtoms matches a disjunction whose every (flattened) branch is a
// selectable atom; such predicates evaluate as a union of candidate lists.
func selOrAtoms(e Expr) ([]SelAtom, bool) {
	bin, ok := e.(*Bin)
	if !ok || bin.Op != "OR" {
		return nil, false
	}
	var out []SelAtom
	var walk func(Expr) bool
	walk = func(x Expr) bool {
		if b, ok := x.(*Bin); ok && b.Op == "OR" {
			return walk(b.L) && walk(b.R)
		}
		a, ok := selAtom(x)
		if !ok {
			return false
		}
		out = append(out, a)
		return true
	}
	if !walk(e) {
		return nil, false
	}
	return out, true
}

// mergeRangeAtoms pairs a lower with an upper bound on the same column
// into one BETWEEN step (a single fused range scan instead of two selects).
// Integer strict bounds normalise to inclusive ones first (x > 5 becomes
// x >= 6), which is also what lets `x >= lo AND x < hi` windows fuse.
func mergeRangeAtoms(atoms []SelAtom) []SelAtom {
	for i := range atoms {
		a := &atoms[i]
		if a.Val.IsNull() || (a.Kind != types.KindInt && a.Kind != types.KindOID) || a.Val.Kind() == types.KindFloat {
			continue
		}
		v, err := a.Val.AsInt()
		if err != nil {
			continue
		}
		switch {
		case a.Op == ">" && v < math.MaxInt64:
			a.Op, a.Val = ">=", types.Int(v+1)
		case a.Op == "<" && v > math.MinInt64:
			a.Op, a.Val = "<=", types.Int(v-1)
		}
	}
	out := make([]SelAtom, 0, len(atoms))
	used := make([]bool, len(atoms))
	for i := range atoms {
		if used[i] {
			continue
		}
		a := atoms[i]
		if a.Op == ">=" && !a.Val.IsNull() {
			for j := i + 1; j < len(atoms); j++ {
				b := atoms[j]
				if used[j] || b.Col != a.Col || b.Op != "<=" || b.Val.IsNull() {
					continue
				}
				a = SelAtom{Col: a.Col, Kind: a.Kind, Op: "between", Lo: a.Val, Hi: b.Val}
				used[j] = true
				break
			}
		} else if a.Op == "<=" && !a.Val.IsNull() {
			for j := i + 1; j < len(atoms); j++ {
				b := atoms[j]
				if used[j] || b.Col != a.Col || b.Op != ">=" || b.Val.IsNull() {
					continue
				}
				a = SelAtom{Col: a.Col, Kind: a.Kind, Op: "between", Lo: b.Val, Hi: a.Val}
				used[j] = true
				break
			}
		}
		out = append(out, a)
	}
	return out
}

// flipCmp mirrors a comparison operator for swapped operands.
func flipCmp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	}
	return op
}

// String renders an atom for EXPLAIN output.
func (a SelAtom) String() string {
	if a.Op == "between" {
		return fmt.Sprintf("#%d between %s and %s", a.Col, a.Lo, a.Hi)
	}
	return fmt.Sprintf("#%d %s %s", a.Col, a.Op, a.Val)
}
