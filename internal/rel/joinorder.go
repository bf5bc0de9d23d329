package rel

import (
	"math"
	"math/bits"
	"strings"

	"repro/internal/bat"
	"repro/internal/types"
)

// Multi-way join ordering
//
// The binder and the pushdown rewrite leave multi-relation FROM clauses as
// a join tree in syntactic order: a star query that names the fact table
// first drags a fact-sized intermediate result through every later join.
// This pass runs after predicate pushdown, flattens each maximal
// inner-join tree into its base relations and join predicates, estimates
// per-relation post-filter cardinalities from row counts and the PR-5
// column statistics (min/max bounds, key flags, NULL counts), and rebuilds
// the tree greedily: smallest relation first, then repeatedly the join
// with the smallest estimated output.
//
// The rewrite preserves join semantics exactly: only inner (equi and
// cross) joins reorder — LEFT OUTER joins are opaque leaves, so nothing
// moves across an outer-join boundary — every equi key and residual
// predicate is remapped through the reordered column layout, and a final
// projection restores the original schema order so parent operators (and
// their already-bound ordinals) see an identical schema. The projection is
// a bare column permutation over the join's already-materialised output,
// so it costs nothing at runtime, and BaseCols maps through it, so the
// PR-5 merge-join and candidate decisions still fire on the rebuilt tree.

// JoinEst is the ordering pass's annotation on a rebuilt Join node,
// surfaced by EXPLAIN.
type JoinEst struct {
	Rows float64 // estimated output cardinality
	Algo string  // "hash", "merge" or "cross"
}

// orderJoins walks an already-rewritten plan and reorders every maximal
// inner-join tree of 3+ relations greedily.
func orderJoins(n Node) Node {
	switch x := n.(type) {
	case *Join:
		if !x.LeftOuter {
			if out, ok := reorderTree(x); ok {
				return out
			}
		}
		x.L = orderJoins(x.L)
		x.R = orderJoins(x.R)
		return x
	case *Filter:
		x.Child = orderJoins(x.Child)
		return x
	case *CandSelect:
		x.Child = orderJoins(x.Child)
		return x
	case *Project:
		x.Child = orderJoins(x.Child)
		return x
	case *GroupAgg:
		x.Child = orderJoins(x.Child)
		return x
	case *Sort:
		x.Child = orderJoins(x.Child)
		return x
	case *Limit:
		x.Child = orderJoins(x.Child)
		return x
	case *Distinct:
		x.Child = orderJoins(x.Child)
		return x
	case *UnionAll:
		x.L = orderJoins(x.L)
		x.R = orderJoins(x.R)
		return x
	default:
		return n
	}
}

// ------------------------------------------------------------- flattening

// jleaf is one base relation of a flattened join tree: an opaque subplan
// whose schema occupies the contiguous global ordinal range
// [off, off+width) of the original tree's output.
type jleaf struct {
	node  Node
	off   int
	width int
	rows  float64 // estimated post-filter cardinality
}

// jpred is one equi-join predicate lkey = rkey with both keys rewritten to
// global ordinals, plus the leaf sets each side references.
type jpred struct {
	lkey, rkey   Expr
	lrels, rrels uint64
	ndv          float64 // max key NDV across both sides (selectivity divisor)
	applied      bool
}

// jres is a residual predicate over global ordinals, applied at the first
// join whose inputs cover every leaf it references.
type jres struct {
	pred    Expr
	rels    uint64
	applied bool
}

// jgraph is the flattened form of one maximal inner-join tree.
type jgraph struct {
	leaves []jleaf
	preds  []jpred
	res    []jres
	width  int // total global schema width
}

// relsOf returns the leaf set an expression's global ordinals reference.
func (g *jgraph) relsOf(e Expr) uint64 {
	var m uint64
	WalkExpr(e, func(x Expr) {
		if c, ok := x.(*Col); ok {
			if i := g.leafOf(c.Idx); i >= 0 {
				m |= 1 << uint(i)
			}
		}
	})
	return m
}

// leafOf returns the index of the leaf owning global ordinal idx.
func (g *jgraph) leafOf(idx int) int {
	for i := range g.leaves {
		l := &g.leaves[i]
		if idx >= l.off && idx < l.off+l.width {
			return i
		}
	}
	return -1
}

// flatten decomposes the inner-join tree rooted at n. It recurses through
// inner Join nodes (equi and cross) and through Filter/CandSelect wrappers
// sitting above them (their predicates become residuals); everything else
// — scans, selections over scans, outer joins, subquery plans — is a
// leaf. Returns false when the tree is too wide for the 64-bit bitmask
// representation. Predicates are collected after both inputs have
// flattened, so relsOf always sees the owning leaves.
func (g *jgraph) flatten(n Node, off int) bool {
	switch x := n.(type) {
	case *Join:
		if x.LeftOuter {
			break // opaque leaf: no reordering across outer-join boundaries
		}
		nl := len(x.L.Schema())
		if !g.flatten(x.L, off) || !g.flatten(x.R, off+nl) {
			return false
		}
		for i := range x.LKeys {
			lk := MapCols(x.LKeys[i], func(c int) int { return c + off })
			rk := MapCols(x.RKeys[i], func(c int) int { return c + off + nl })
			lrels, rrels := g.relsOf(lk), g.relsOf(rk)
			if lrels == 0 || rrels == 0 {
				// A constant key side cannot drive a hash join after the
				// rebuild: keep the pair as a residual equality instead.
				eq := &Bin{Op: "=", L: lk, R: rk, K: types.KindBool}
				g.res = append(g.res, jres{pred: eq, rels: lrels | rrels})
				continue
			}
			g.preds = append(g.preds, jpred{lkey: lk, rkey: rk, lrels: lrels, rrels: rrels})
		}
		if x.Residual != nil {
			p := MapCols(x.Residual, func(c int) int { return c + off })
			g.res = append(g.res, jres{pred: p, rels: g.relsOf(p)})
		}
		return true
	case *Filter:
		if j, ok := x.Child.(*Join); ok && !j.LeftOuter {
			if !g.flatten(j, off) {
				return false
			}
			p := MapCols(x.Pred, func(c int) int { return c + off })
			g.res = append(g.res, jres{pred: p, rels: g.relsOf(p)})
			return true
		}
	case *CandSelect:
		if j, ok := x.Child.(*Join); ok && !j.LeftOuter && !x.Empty {
			if !g.flatten(j, off) {
				return false
			}
			p := MapCols(x.Pred, func(c int) int { return c + off })
			g.res = append(g.res, jres{pred: p, rels: g.relsOf(p)})
			return true
		}
	}
	if len(g.leaves) >= 64 {
		return false
	}
	g.leaves = append(g.leaves, jleaf{node: n, off: off, width: len(n.Schema())})
	return true
}

// ------------------------------------------------------------ estimation

// EstRows estimates the output cardinality of a plan subtree from row
// counts and (when enabled) the PR-5 column statistics. Estimates steer
// ordering decisions only — they never change results — so crude defaults
// for unestimatable shapes are fine.
func EstRows(n Node) float64 {
	switch x := n.(type) {
	case *ScanTable:
		return float64(x.T.NumRows())
	case *ScanArray:
		if x.Sliced() {
			cells := 1.0
			for k := range x.SlabLo {
				cells *= float64(x.SlabHi[k] - x.SlabLo[k] + 1)
			}
			return cells
		}
		return float64(x.A.Cells())
	case *ScanDual:
		return 1
	case *CandSelect:
		if x.Empty {
			// Provably-empty filters estimate zero rows, so the ordering
			// places them first and the emptycand fold short-circuits the
			// whole join tree.
			return 0
		}
		return EstRows(x.Child) * stepsSelectivity(x.Steps, BaseCols(x.Child))
	case *Filter:
		return EstRows(x.Child) * stepsSelectivity(DecomposePred(x.Pred), BaseCols(x.Child))
	case *Limit:
		rows := EstRows(x.Child)
		if x.Count >= 0 && float64(x.Count) < rows {
			return float64(x.Count)
		}
		return rows
	case *Sort:
		return EstRows(x.Child)
	case *Distinct:
		return EstRows(x.Child)
	case *Project:
		return EstRows(x.Child)
	case *GroupAgg:
		if len(x.Keys) == 0 {
			return 1
		}
		return EstRows(x.Child)
	case *TileAgg:
		return float64(x.A.Cells())
	case *UnionAll:
		return EstRows(x.L) + EstRows(x.R)
	case *Join:
		l, r := EstRows(x.L), EstRows(x.R)
		if x.LeftOuter {
			return l
		}
		if x.Cross || len(x.LKeys) == 0 {
			return l * r
		}
		out := l * r
		for i := range x.LKeys {
			ndv := math.Max(keyNDV(x.LKeys[i], x.L), keyNDV(x.RKeys[i], x.R))
			out /= math.Max(ndv, 1)
		}
		return out
	}
	return 1000 // unknown plan shape: a neutral mid-size default
}

// stepsSelectivity estimates the surviving fraction of a decomposed
// selection chain. Residual steps cannot be estimated and count as 1;
// provably-empty atoms count as 0 (the emptycand contract). Without base
// columns every step counts as 1.
func stepsSelectivity(steps []SelStep, cols []*bat.BAT) float64 {
	if cols == nil {
		return 1
	}
	sel := 1.0
	for _, st := range steps {
		switch {
		case st.Atom != nil:
			s, v := atomStats(*st.Atom, baseCol(cols, st.Atom.Col))
			if v == stepEmpty {
				return 0
			}
			sel *= s
		case st.Or != nil:
			or := 0.0
			for _, a := range st.Or {
				s, _ := atomStats(a, baseCol(cols, a.Col))
				or += s
			}
			sel *= math.Min(or, 1)
		}
	}
	return sel
}

// keyNDV estimates the number of distinct values of a join key over its
// input. A bare column backed by base storage uses the PR-5 properties:
// key columns are fully distinct, integer bounds cap the domain, anything
// else assumes one distinct value per ten rows — the same default a
// computed key gets.
func keyNDV(key Expr, input Node) float64 {
	rows := EstRows(input)
	if c, ok := key.(*Col); ok {
		if base := baseCol(BaseCols(input), c.Idx); base != nil {
			live := math.Max(1, float64(base.Len()-base.NullCount()))
			if base.Key {
				return live
			}
			switch base.ValueKind() {
			case types.KindInt, types.KindOID:
				if lo, hi, ok := base.MinMax(); ok {
					mn, err1 := lo.AsInt()
					mx, err2 := hi.AsInt()
					if err1 == nil && err2 == nil {
						return math.Max(1, math.Min(live, float64(mx-mn)+1))
					}
				}
			}
			return math.Max(1, live/10)
		}
	}
	return math.Max(1, rows/10)
}

// maskRows estimates the cardinality of joining a set of leaves: the
// product of their post-filter rows divided by each contained equi
// predicate's max-NDV (the classic uniform/containment assumption). The
// estimate depends only on the set, not the order, so every prefix of an
// order and the rebuilt join annotations agree on it.
func (g *jgraph) maskRows(mask uint64) float64 {
	rows := 1.0
	for i := range g.leaves {
		if mask&(1<<uint(i)) != 0 {
			rows *= g.leaves[i].rows
		}
	}
	for i := range g.preds {
		p := &g.preds[i]
		if (p.lrels|p.rrels)&^mask == 0 {
			rows /= math.Max(p.ndv, 1)
		}
	}
	return rows
}

// connected reports whether adding leaf r to mask is joined by at least
// one equi predicate (rather than a cross product).
func (g *jgraph) connected(mask uint64, r int) bool {
	bit := uint64(1) << uint(r)
	for i := range g.preds {
		cover := g.preds[i].lrels | g.preds[i].rrels
		if cover&bit != 0 && cover&mask != 0 && cover&^(mask|bit) == 0 {
			return true
		}
	}
	return false
}

// --------------------------------------------------------------- ordering

// reorderTree flattens the inner-join tree rooted at j and rebuilds it in
// greedy order. ok is false when the tree has fewer than three relations
// (nothing to reorder) or cannot be represented.
func reorderTree(j *Join) (Node, bool) {
	g := &jgraph{}
	if !g.flatten(j, 0) || len(g.leaves) < 3 {
		return nil, false
	}
	g.width = len(j.Schema())

	// Recurse into the leaves first: a subquery (or an outer join's
	// inputs) may hold its own reorderable join tree.
	for i := range g.leaves {
		g.leaves[i].node = orderJoins(g.leaves[i].node)
	}
	// Push residuals that reference a single leaf down onto that leaf, so
	// both its cardinality estimate and the run-time candidate chain see
	// them. These only arise from Filter wrappers the pushdown pass left
	// above nested joins.
	for i := range g.res {
		r := &g.res[i]
		if bits.OnesCount64(r.rels) == 1 {
			li := bits.TrailingZeros64(r.rels)
			l := &g.leaves[li]
			local := MapCols(r.pred, func(c int) int { return c - l.off })
			l.node = decomposeFilterNode(&Filter{Child: l.node, Pred: local})
			r.applied = true
		}
	}
	for i := range g.leaves {
		g.leaves[i].rows = EstRows(g.leaves[i].node)
	}
	for i := range g.preds {
		p := &g.preds[i]
		p.ndv = math.Max(g.keyNDVGlobal(p.lkey, p.lrels), g.keyNDVGlobal(p.rkey, p.rrels))
	}
	return g.rebuild(g.orderGreedy(), j.Schema()), true
}

// keyNDVGlobal estimates a global-ordinal key's NDV by locating its owning
// leaf; multi-leaf (computed) keys fall back to the one-in-ten heuristic
// over the referenced relations.
func (g *jgraph) keyNDVGlobal(key Expr, rels uint64) float64 {
	if c, ok := key.(*Col); ok {
		if i := g.leafOf(c.Idx); i >= 0 {
			l := &g.leaves[i]
			return keyNDV(&Col{Idx: c.Idx - l.off, Info: c.Info}, l.node)
		}
	}
	rows := 1.0
	for i := range g.leaves {
		if rels&(1<<uint(i)) != 0 {
			rows *= g.leaves[i].rows
		}
	}
	return math.Max(1, rows/10)
}

// orderGreedy starts from the smallest estimated relation and repeatedly
// joins the relation yielding the smallest estimated output, preferring
// predicate-connected relations over cross products. Ties break toward
// FROM-list order, so equal estimates still give one deterministic plan.
func (g *jgraph) orderGreedy() []int {
	n := len(g.leaves)
	order := make([]int, 0, n)
	start := 0
	for i := 1; i < n; i++ {
		if g.leaves[i].rows < g.leaves[start].rows {
			start = i
		}
	}
	order = append(order, start)
	mask := uint64(1) << uint(start)
	for len(order) < n {
		best, bestRows, bestConn := -1, math.Inf(1), false
		for r := 0; r < n; r++ {
			bit := uint64(1) << uint(r)
			if mask&bit != 0 {
				continue
			}
			conn := g.connected(mask, r)
			rows := g.maskRows(mask | bit)
			// A connected join always beats a cross product; among equals,
			// the smaller estimated output wins.
			if best < 0 || (conn && !bestConn) || (conn == bestConn && rows < bestRows) {
				best, bestRows, bestConn = r, rows, conn
			}
		}
		order = append(order, best)
		mask |= 1 << uint(best)
	}
	return order
}

// ---------------------------------------------------------------- rebuild

// rebuild constructs the left-deep join tree for the chosen order,
// remapping every key and residual through the new column layout, and
// restores the original schema order with a zero-cost column permutation
// when the order changed.
func (g *jgraph) rebuild(order []int, origSchema []ColInfo) Node {
	first := &g.leaves[order[0]]
	build := first.node
	mask := uint64(1) << uint(order[0])
	colmap := make([]int, g.width) // global ordinal -> current build ordinal
	for i := range colmap {
		colmap[i] = -1
	}
	for i := 0; i < first.width; i++ {
		colmap[first.off+i] = i
	}
	cur := first.width
	var top *Join
	for _, r := range order[1:] {
		leaf := &g.leaves[r]
		bit := uint64(1) << uint(r)
		newmask := mask | bit
		// The combined layout: built columns keep their positions, the new
		// leaf's columns follow.
		next := append([]int(nil), colmap...)
		for i := 0; i < leaf.width; i++ {
			next[leaf.off+i] = cur + i
		}
		var lkeys, rkeys []Expr
		var residual Expr
		for i := range g.preds {
			p := &g.preds[i]
			if p.applied || (p.lrels|p.rrels)&^newmask != 0 {
				continue
			}
			p.applied = true
			switch {
			case p.lrels&^mask == 0 && p.rrels == bit:
				lkeys = append(lkeys, MapCols(p.lkey, func(c int) int { return colmap[c] }))
				rkeys = append(rkeys, MapCols(p.rkey, func(c int) int { return c - leaf.off }))
			case p.rrels&^mask == 0 && p.lrels == bit:
				lkeys = append(lkeys, MapCols(p.rkey, func(c int) int { return colmap[c] }))
				rkeys = append(rkeys, MapCols(p.lkey, func(c int) int { return c - leaf.off }))
			default:
				// The predicate's sides straddle the build/probe split (e.g.
				// a computed key over two relations joined apart): keep it as
				// a residual equality at this join.
				eq := &Bin{Op: "=", L: p.lkey, R: p.rkey, K: types.KindBool}
				residual = andExprs(residual, MapCols(eq, func(c int) int { return next[c] }))
			}
		}
		for i := range g.res {
			rs := &g.res[i]
			if rs.applied || rs.rels&^newmask != 0 {
				continue
			}
			rs.applied = true
			residual = andExprs(residual, MapCols(rs.pred, func(c int) int { return next[c] }))
		}
		j := &Join{L: build, R: leaf.node, Residual: residual}
		if len(lkeys) == 0 {
			j.Cross = true
		} else {
			j.LKeys, j.RKeys = lkeys, rkeys
		}
		algo := "hash"
		switch {
		case j.Cross:
			algo = "cross"
		case MergeJoinnable(j):
			algo = "merge"
		}
		j.Est = &JoinEst{Rows: g.maskRows(newmask), Algo: algo}
		build, top = j, j
		colmap = next
		cur += leaf.width
		mask = newmask
	}
	labels := make([]string, len(order))
	for i, r := range order {
		labels[i] = leafLabel(g.leaves[r].node)
	}
	top.Order = "greedy: " + strings.Join(labels, ", ")
	// Restore the original column order when the permutation changed it.
	identity := true
	for i, p := range colmap {
		if p != i {
			identity = false
			break
		}
	}
	if identity {
		return build
	}
	exprs := make([]Expr, g.width)
	names := make([]string, g.width)
	dims := make([]bool, g.width)
	for i := 0; i < g.width; i++ {
		exprs[i] = &Col{Idx: colmap[i], Info: origSchema[i]}
		names[i] = origSchema[i].Name
		dims[i] = origSchema[i].IsDim
	}
	return &Project{Child: build, Exprs: exprs, OutNames: names, Dims: dims}
}

// leafLabel names a relation for the EXPLAIN order note.
func leafLabel(n Node) string {
	switch x := n.(type) {
	case *ScanTable:
		if x.Alias != "" {
			return x.Alias
		}
		return x.T.Name
	case *ScanArray:
		if x.Alias != "" {
			return x.Alias
		}
		return x.A.Name
	case *Filter:
		return leafLabel(x.Child)
	case *CandSelect:
		return leafLabel(x.Child)
	case *Project:
		return leafLabel(x.Child)
	case *Limit:
		return leafLabel(x.Child)
	case *Sort:
		return leafLabel(x.Child)
	case *Distinct:
		return leafLabel(x.Child)
	case *Join:
		return "(" + leafLabel(x.L) + " join " + leafLabel(x.R) + ")"
	}
	return "subplan"
}
