package rel

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/types"
)

// Binder resolves AST statements against a catalog.
type Binder struct {
	cat *catalog.Catalog
	// reads names every object the binder looked up, found or not: the
	// read set a write staged against a snapshot is validated by.
	reads []string
}

// NewBinder returns a binder over the catalog.
func NewBinder(cat *catalog.Catalog) *Binder { return &Binder{cat: cat} }

// Catalog exposes the bound catalog.
func (b *Binder) Catalog() *catalog.Catalog { return b.cat }

// Reads names every object the binder has looked up so far, in lookup
// order, including names it found no object for.
func (b *Binder) Reads() []string { return b.reads }

// Lookup resolves a name to the table or the array of that name (both nil
// when there is none) and records it in the read set.
func (b *Binder) Lookup(name string) (*catalog.Table, *catalog.Array) {
	b.reads = append(b.reads, name)
	if t, ok := b.cat.Table(name); ok {
		return t, nil
	}
	a, _ := b.cat.Array(name)
	return nil, a
}

// BindSelect binds a full SELECT statement (including UNION ALL chains)
// into a logical plan.
func (b *Binder) BindSelect(sel *ast.Select) (Node, error) {
	if sel.UnionAll == nil {
		return b.bindSingleSelect(sel, true)
	}
	// The left arm's ORDER BY / LIMIT apply to the whole union.
	left, err := b.bindSingleSelect(sel, false)
	if err != nil {
		return nil, err
	}
	node := left
	for next := sel.UnionAll; next != nil; next = next.UnionAll {
		right, err := b.bindSingleSelect(next, true)
		if err != nil {
			return nil, err
		}
		node, right, err = unifyUnionArms(node, right)
		if err != nil {
			return nil, fmt.Errorf("at %s: %v", next.Pos, err)
		}
		node = &UnionAll{L: node, R: right}
	}
	return b.finishSelect(sel, node, nil, nil)
}

// bindSingleSelect binds one SELECT block; withOrder controls whether its
// own ORDER BY / LIMIT are applied (suppressed for the head of a union).
func (b *Binder) bindSingleSelect(sel *ast.Select, withOrder bool) (Node, error) {
	var (
		child Node
		sc    *Scope
		err   error
	)
	if len(sel.From) == 0 {
		child = &ScanDual{}
		sc = NewScope(child.Schema())
	} else {
		child, sc, err = b.bindFrom(sel.From)
		if err != nil {
			return nil, err
		}
	}

	// WHERE.
	if sel.Where != nil {
		if sel.Tile != nil {
			return nil, fmt.Errorf("at %s: WHERE cannot be combined with structural grouping; filter anchors in HAVING", sel.Pos)
		}
		pred, err := b.BindScalar(sc, sel.Where)
		if err != nil {
			return nil, err
		}
		if pred.Kind() != types.KindBool && pred.Kind() != types.KindVoid {
			return nil, fmt.Errorf("at %s: WHERE must be boolean, got %s", sel.Pos, pred.Kind())
		}
		child = &Filter{Child: child, Pred: pred}
	}

	// Expand SELECT *.
	items, err := expandStars(sel.Items, sc)
	if err != nil {
		return nil, err
	}

	// Aggregation analysis.
	hasAgg := false
	for _, it := range items {
		if IsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if sel.Having != nil && IsAggregate(sel.Having) {
		hasAgg = true
	}

	var (
		proj    *Project
		preBind func(ast.Expr) (Expr, error)
	)
	switch {
	case sel.Tile != nil:
		proj, preBind, err = b.bindTileSelect(sel, items, child, sc)
	case len(sel.GroupBy) > 0 || hasAgg:
		proj, preBind, err = b.bindGroupSelect(sel, items, child, sc)
	default:
		if sel.Having != nil {
			return nil, fmt.Errorf("at %s: HAVING requires GROUP BY or aggregation", sel.Pos)
		}
		proj, err = b.bindPlainSelect(items, child, sc)
		preBind = func(e ast.Expr) (Expr, error) { return b.BindScalar(sc, e) }
	}
	if err != nil {
		return nil, err
	}

	var node Node = proj
	if sel.Distinct {
		node = &Distinct{Child: node}
	}
	if !withOrder {
		return node, nil
	}
	return b.finishSelect(sel, node, proj, preBind)
}

// finishSelect applies ORDER BY and LIMIT/OFFSET to node. An ORDER BY key
// that is not an output column binds through preBind as a hidden column of
// proj, dropped again above the sort; a UNION passes no proj and so has no
// such fallback.
func (b *Binder) finishSelect(sel *ast.Select, node Node, proj *Project, preBind func(ast.Expr) (Expr, error)) (Node, error) {
	if len(sel.OrderBy) > 0 {
		outScope := NewScope(node.Schema())
		nOut := len(outScope.Cols)
		var keys []Expr
		var descs []bool
		hidden := 0
		for _, oi := range sel.OrderBy {
			key, hid, err := b.bindOrderKey(oi.Expr, outScope, proj, preBind)
			if err != nil {
				return nil, err
			}
			if hid {
				hidden++
			}
			keys = append(keys, key)
			descs = append(descs, oi.Desc)
		}
		if hidden > 0 {
			if sel.Distinct {
				return nil, fmt.Errorf("at %s: ORDER BY columns must appear in the projection when DISTINCT is used", sel.Pos)
			}
			node = proj // the hidden columns extend the projection
		}
		node = &Sort{Child: node, Keys: keys, Desc: descs}
		if hidden > 0 {
			// Drop the hidden sort columns again.
			drop := &Project{Child: node, ShapeHint: proj.ShapeHint}
			schema := node.Schema()
			for i := 0; i < nOut; i++ {
				drop.Exprs = append(drop.Exprs, &Col{Idx: i, Info: schema[i]})
				drop.OutNames = append(drop.OutNames, proj.OutNames[i])
				drop.Dims = append(drop.Dims, proj.Dims[i])
			}
			node = drop
		}
	}
	return b.applyLimit(sel, node)
}

// bindOrderKey resolves one ORDER BY key: an output ordinal, an output
// column (by alias/name), or — falling back when proj is given — an
// expression bound by preBind that is appended to proj as a hidden column.
func (b *Binder) bindOrderKey(e ast.Expr, outScope *Scope, proj *Project, preBind func(ast.Expr) (Expr, error)) (Expr, bool, error) {
	if lit, ok := e.(*ast.Literal); ok && !lit.Val.IsNull() && lit.Val.Kind() == types.KindInt {
		n := int(lit.Val.Int64())
		if n < 1 || n > len(outScope.Cols) {
			return nil, false, fmt.Errorf("at %s: ORDER BY position %d is out of range", lit.Pos, n)
		}
		return &Col{Idx: n - 1, Info: outScope.Cols[n-1]}, false, nil
	}
	// Prefer output columns (aliases included).
	bound, err := b.BindScalar(outScope, e)
	if err == nil || proj == nil {
		return bound, false, err
	}
	bound, err = preBind(e)
	if err != nil {
		return nil, false, err
	}
	proj.Exprs = append(proj.Exprs, bound)
	proj.OutNames = append(proj.OutNames, fmt.Sprintf("%%sort%d", len(proj.Exprs)))
	proj.Dims = append(proj.Dims, false)
	idx := len(proj.Exprs) - 1
	return &Col{Idx: idx, Info: ColInfo{Name: proj.OutNames[idx], Kind: bound.Kind()}}, true, nil
}

// applyLimit applies LIMIT/OFFSET.
func (b *Binder) applyLimit(sel *ast.Select, node Node) (Node, error) {
	if sel.Limit == nil && sel.Offset == nil {
		return node, nil
	}
	lim := int64(-1)
	off := int64(0)
	if sel.Limit != nil {
		v, err := b.ConstInt(sel.Limit)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("LIMIT must be non-negative")
		}
		lim = v
	}
	if sel.Offset != nil {
		v, err := b.ConstInt(sel.Offset)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("OFFSET must be non-negative")
		}
		off = v
	}
	return &Limit{Child: node, Offset: off, Count: lim}, nil
}

// expandStars replaces * items with one item per visible column.
func expandStars(items []ast.SelectItem, sc *Scope) ([]ast.SelectItem, error) {
	out := make([]ast.SelectItem, 0, len(items))
	for _, it := range items {
		if !it.Star {
			out = append(out, it)
			continue
		}
		for _, c := range sc.Cols {
			if c.Name == "%dual" {
				continue
			}
			out = append(out, ast.SelectItem{
				Expr: &ast.ColRef{Table: c.Qual, Name: c.Name},
			})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("SELECT needs at least one projected column")
	}
	return out, nil
}

// itemName derives the output column name of a projection item.
func itemName(it ast.SelectItem, i int) string {
	if it.Alias != "" {
		return it.Alias
	}
	switch e := it.Expr.(type) {
	case *ast.ColRef:
		return e.Name
	case *ast.FuncCall:
		return e.Name
	case *ast.CellRef:
		if e.Attr != "" {
			return e.Attr
		}
		return e.Array
	default:
		return fmt.Sprintf("col%d", i+1)
	}
}

// bindPlainSelect handles projection without aggregation.
func (b *Binder) bindPlainSelect(items []ast.SelectItem, child Node, sc *Scope) (*Project, error) {
	p := &Project{Child: child}
	for i, it := range items {
		e, err := b.BindScalar(sc, it.Expr)
		if err != nil {
			return nil, err
		}
		p.Exprs = append(p.Exprs, e)
		p.OutNames = append(p.OutNames, itemName(it, i))
		p.Dims = append(p.Dims, it.Dimensional)
	}
	return p, nil
}

// aggScope is what the scope above a GroupAgg or TileAgg adds to a plain
// one: the aggregates met so far and the columns that pass through the
// aggregation ahead of them.
type aggScope struct {
	pre  *Scope     // aggregate arguments and aggregate-free subtrees bind here
	aggs *[]AggSpec // the Aggs of the node being bound
	sigs []string   // the signature of each aggregate, for deduplication
	// pass lists the output columns ahead of the aggregates: the group
	// keys, or every pre-aggregation column for structural grouping.
	pass []ColInfo
	keys map[string]int // rendering of a group key → its output ordinal
	tile bool           // aggregate-free expressions pass through cell-aligned
}

// addAgg registers one aggregate call, deduplicating by signature, and
// returns its ordinal.
func (b *Binder) addAgg(a *aggScope, fc *ast.FuncCall) (int, error) {
	if fc.Distinct {
		return 0, fmt.Errorf("at %s: DISTINCT aggregates are not supported", fc.Pos)
	}
	var (
		agg gdk.AggKind
		arg Expr
	)
	switch fc.Name {
	case "sum":
		agg = gdk.AggSum
	case "avg":
		agg = gdk.AggAvg
	case "min":
		agg = gdk.AggMin
	case "max":
		agg = gdk.AggMax
	case "count":
		if fc.Star {
			agg = gdk.AggCountAll
		} else {
			agg = gdk.AggCount
		}
	default:
		return 0, fmt.Errorf("at %s: unknown aggregate %q", fc.Pos, fc.Name)
	}
	if !fc.Star {
		if len(fc.Args) != 1 {
			return 0, fmt.Errorf("at %s: %s expects one argument", fc.Pos, fc.Name)
		}
		var err error
		arg, err = b.BindScalar(a.pre, fc.Args[0])
		if err != nil {
			return 0, err
		}
	}
	sig := aggSignature(agg, arg)
	for i, s := range a.sigs {
		if s == sig {
			return i, nil
		}
	}
	k := types.KindInt
	if arg != nil {
		var err error
		k, err = gdk.AggResultKind(agg, arg.Kind())
		if err != nil {
			return 0, fmt.Errorf("at %s: %v", fc.Pos, err)
		}
	}
	*a.aggs = append(*a.aggs, AggSpec{Agg: agg, Arg: arg, Name: fc.Name, K: k})
	a.sigs = append(a.sigs, sig)
	return len(a.sigs) - 1, nil
}

func aggSignature(agg gdk.AggKind, arg Expr) string {
	if arg == nil {
		return string(agg) + "(*)"
	}
	return string(agg) + "(" + arg.String() + ")"
}

// bindPostAgg binds the nodes a post-aggregation scope decides itself and
// reports whether e was one. An aggregate call becomes its output column.
// An aggregate-free subtree binds in the pre-aggregation scope and becomes
// its group key's column, or passes through when tiling or constant; a
// bare column that is neither is an error. Every other node is left to
// bindExpr's switch over the same scope.
func (b *Binder) bindPostAgg(a *aggScope, e ast.Expr) (Expr, bool, error) {
	if fc, ok := e.(*ast.FuncCall); ok && aggFuncs[fc.Name] {
		i, err := b.addAgg(a, fc)
		if err != nil {
			return nil, true, err
		}
		spec := (*a.aggs)[i]
		return &Col{Idx: len(a.pass) + i, Info: ColInfo{Name: spec.Name, Kind: spec.K}}, true, nil
	}
	if IsAggregate(e) {
		return nil, false, nil
	}
	bound, err := b.bindExpr(a.pre, e)
	if err != nil || a.tile {
		return bound, true, err
	}
	if i, ok := a.keys[bound.String()]; ok {
		return &Col{Idx: i, Info: a.pass[i]}, true, nil
	}
	if _, isConst := bound.(*Const); isConst {
		return bound, true, nil
	}
	if cr, ok := e.(*ast.ColRef); ok {
		return nil, true, fmt.Errorf("at %s: column %q must appear in the GROUP BY clause or be used in an aggregate", cr.Pos, cr.Name)
	}
	return nil, false, nil
}

// bindAggregated binds the HAVING clause and the items of a grouped or
// tiled SELECT over the scope above node, whose aggregates a collects. The
// items bind first, so aggregate ordinals follow their first appearance,
// items before HAVING. The returned binder binds ORDER BY keys over the
// same scope and may append aggregates to node.
func (b *Binder) bindAggregated(sel *ast.Select, items []ast.SelectItem, a *aggScope, node Node) (*Project, func(ast.Expr) (Expr, error), error) {
	s := &Scope{Arrays: a.pre.Arrays, agg: a}
	proj := &Project{}
	for i, it := range items {
		e, err := b.bindExpr(s, it.Expr)
		if err != nil {
			return nil, nil, err
		}
		proj.Exprs = append(proj.Exprs, e)
		proj.OutNames = append(proj.OutNames, itemName(it, i))
		proj.Dims = append(proj.Dims, it.Dimensional)
	}
	if sel.Having != nil {
		h, err := b.bindExpr(s, sel.Having)
		if err != nil {
			return nil, nil, err
		}
		node = &Filter{Child: node, Pred: h}
	}
	proj.Child = node
	return proj, func(e ast.Expr) (Expr, error) { return b.bindExpr(s, e) }, nil
}

// bindGroupSelect handles value-based GROUP BY (and global aggregation).
func (b *Binder) bindGroupSelect(sel *ast.Select, items []ast.SelectItem, child Node, sc *Scope) (*Project, func(ast.Expr) (Expr, error), error) {
	keys := make([]Expr, 0, len(sel.GroupBy))
	keyNames := make([]string, 0, len(sel.GroupBy))
	for _, g := range sel.GroupBy {
		k, err := b.BindScalar(sc, g)
		if err != nil {
			return nil, nil, err
		}
		keys = append(keys, k)
		name := k.String()
		if cr, ok := g.(*ast.ColRef); ok {
			name = cr.Name
		}
		keyNames = append(keyNames, name)
	}
	ga := &GroupAgg{Child: child, Keys: keys, KeyNames: keyNames}
	a := &aggScope{pre: sc, aggs: &ga.Aggs, pass: ga.Schema(), keys: make(map[string]int, len(keys))}
	for i, k := range keys {
		a.keys[k.String()] = i
	}
	return b.bindAggregated(sel, items, a, ga)
}

// bindTileSelect handles SciQL structural grouping.
func (b *Binder) bindTileSelect(sel *ast.Select, items []ast.SelectItem, child Node, sc *Scope) (*Project, func(ast.Expr) (Expr, error), error) {
	// The FROM clause must be exactly the tiled array.
	scan, ok := child.(*ScanArray)
	if !ok {
		return nil, nil, fmt.Errorf("at %s: structural grouping requires the FROM clause to be a single array", sel.Tile.Pos)
	}
	if sel.Tile.Array != scan.Alias && sel.Tile.Array != scan.A.Name {
		return nil, nil, fmt.Errorf("at %s: tile references %q, which is not the array in FROM", sel.Tile.Pos, sel.Tile.Array)
	}
	a := scan.A
	if len(sel.Tile.Dims) != len(a.Shape) {
		return nil, nil, fmt.Errorf("at %s: array %q has %d dimensions, tile has %d",
			sel.Tile.Pos, a.Name, len(a.Shape), len(sel.Tile.Dims))
	}
	tile := make([]gdk.TileRange, len(sel.Tile.Dims))
	for k, td := range sel.Tile.Dims {
		dim := a.Shape[k]
		lo, loAnchored, err := anchorOffset(td.Lo, dim.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("at %s: tile dimension %q: %v", sel.Tile.Pos, dim.Name, err)
		}
		if td.Hi == nil {
			// Single-cell form [x+k]: covers exactly that coordinate.
			if !loAnchored {
				return nil, nil, fmt.Errorf("at %s: tile dimension %q must reference the anchor variable %q", sel.Tile.Pos, dim.Name, dim.Name)
			}
			step := dim.Step
			if step < 0 {
				step = -step
			}
			tile[k] = gdk.TileRange{Lo: lo, Hi: lo + step}
			continue
		}
		hi, hiAnchored, err := anchorOffset(td.Hi, dim.Name)
		if err != nil {
			return nil, nil, fmt.Errorf("at %s: tile dimension %q: %v", sel.Tile.Pos, dim.Name, err)
		}
		if !loAnchored && !hiAnchored {
			return nil, nil, fmt.Errorf("at %s: tile dimension %q must reference the anchor variable %q", sel.Tile.Pos, dim.Name, dim.Name)
		}
		var step int64
		if td.Step != nil {
			sv, anchored, err := anchorOffset(td.Step, dim.Name)
			if err != nil {
				return nil, nil, fmt.Errorf("at %s: tile step: %v", sel.Tile.Pos, err)
			}
			if anchored || sv <= 0 {
				return nil, nil, fmt.Errorf("at %s: tile step must be a positive constant", sel.Tile.Pos)
			}
			step = sv
		}
		tile[k] = gdk.TileRange{Lo: lo, Hi: hi, Step: step}
	}

	ta := &TileAgg{A: a, Alias: scan.Alias, Tile: tile}
	proj, preBind, err := b.bindAggregated(sel, items, &aggScope{pre: sc, aggs: &ta.Aggs, pass: sc.Cols, tile: true}, ta)
	if err != nil {
		return nil, nil, err
	}
	proj.ShapeHint = shapeHintFor(proj)
	return proj, preBind, nil
}

// anchorOffset evaluates a tile-bound expression of the form
// `dim ± const` (or a plain constant), returning the offset relative to
// the anchor and whether the anchor variable appears.
func anchorOffset(e ast.Expr, dimName string) (int64, bool, error) {
	switch x := e.(type) {
	case *ast.Literal:
		if x.Val.IsNull() {
			return 0, false, fmt.Errorf("NULL tile bound")
		}
		v, err := x.Val.AsInt()
		if err != nil {
			return 0, false, fmt.Errorf("tile bounds must be integers")
		}
		return v, false, nil
	case *ast.ColRef:
		if x.Table == "" && x.Name == dimName {
			return 0, true, nil
		}
		return 0, false, fmt.Errorf("tile bounds may only reference the anchor variable %q", dimName)
	case *ast.BinExpr:
		l, la, err := anchorOffset(x.L, dimName)
		if err != nil {
			return 0, false, err
		}
		r, ra, err := anchorOffset(x.R, dimName)
		if err != nil {
			return 0, false, err
		}
		switch x.Op {
		case "+":
			if la && ra {
				return 0, false, fmt.Errorf("anchor variable may appear only once in a tile bound")
			}
			return l + r, la || ra, nil
		case "-":
			if ra {
				return 0, false, fmt.Errorf("anchor variable cannot be subtracted in a tile bound")
			}
			return l - r, la, nil
		case "*":
			if la || ra {
				return 0, false, fmt.Errorf("anchor variable cannot be scaled in a tile bound")
			}
			return l * r, false, nil
		default:
			return 0, false, fmt.Errorf("unsupported operator %q in tile bound", x.Op)
		}
	case *ast.UnExpr:
		if x.Op == "-" {
			v, anchored, err := anchorOffset(x.X, dimName)
			if err != nil {
				return 0, false, err
			}
			if anchored {
				return 0, false, fmt.Errorf("anchor variable cannot be negated in a tile bound")
			}
			return -v, false, nil
		}
	}
	return 0, false, fmt.Errorf("tile bounds must be `%s ± constant`", dimName)
}

// ConstInt evaluates a constant integer AST expression (LIMIT, dimension
// ranges).
func (b *Binder) ConstInt(e ast.Expr) (int64, error) {
	bound, err := b.bindExpr(NewScope(nil), e)
	if err != nil {
		return 0, err
	}
	v, err := EvalConst(bound)
	if err != nil {
		return 0, err
	}
	if v.IsNull() {
		return 0, fmt.Errorf("at %s: expected a constant integer, got NULL", e.Position())
	}
	return v.AsInt()
}

// ConstValue evaluates a constant AST expression to a value (used for
// DEFAULT clauses and VALUES rows).
func (b *Binder) ConstValue(e ast.Expr) (types.Value, error) {
	bound, err := b.bindExpr(NewScope(nil), e)
	if err != nil {
		return types.Value{}, err
	}
	return EvalConst(bound)
}

// unifyUnionArms promotes both UNION ALL arms to common column kinds,
// wrapping either arm in a casting projection when needed.
func unifyUnionArms(left, right Node) (Node, Node, error) {
	ls, rs := left.Schema(), right.Schema()
	if len(ls) != len(rs) {
		return nil, nil, fmt.Errorf("UNION ALL arms have %d and %d columns", len(ls), len(rs))
	}
	target := make([]types.Kind, len(ls))
	for i := range ls {
		k, err := types.CommonKind(ls[i].Kind, rs[i].Kind)
		if err != nil {
			return nil, nil, fmt.Errorf("UNION ALL column %d: %v", i+1, err)
		}
		if k == types.KindVoid {
			k = types.KindInt
		}
		target[i] = k
	}
	return castArm(left, ls, target), castArm(right, rs, target), nil
}

// castArm wraps a node in a casting projection when any column kind
// differs from the target.
func castArm(n Node, schema []ColInfo, target []types.Kind) Node {
	need := false
	for i := range schema {
		if schema[i].Kind != target[i] {
			need = true
		}
	}
	if !need {
		return n
	}
	p := &Project{Child: n}
	for i := range schema {
		var e Expr = &Col{Idx: i, Info: schema[i]}
		if schema[i].Kind != target[i] {
			e = &Cast{X: e, To: target[i]}
		}
		p.Exprs = append(p.Exprs, e)
		p.OutNames = append(p.OutNames, schema[i].Name)
		p.Dims = append(p.Dims, false)
	}
	return p
}

// shapeHintFor preserves the source array's shape when every dimensional
// item is a direct reference to a distinct dimension of one array, in
// declaration order. Only structural-grouping queries use it: tiling keeps
// the anchor array's shape (Fig. 1(e)), whereas plain coercions derive
// their bounds from the data (§2).
func shapeHintFor(p *Project) shape.Shape {
	var a *catalog.Array
	nDims := 0
	for i, e := range p.Exprs {
		if !p.Dims[i] {
			continue
		}
		c, ok := e.(*Col)
		if !ok || !c.Info.IsDim || c.Info.Array == nil {
			return nil
		}
		if a == nil {
			a = c.Info.Array
		} else if a != c.Info.Array {
			return nil
		}
		if c.Info.DimIdx != nDims {
			return nil
		}
		nDims++
	}
	if a == nil || nDims != len(a.Shape) {
		return nil
	}
	return append(shape.Shape{}, a.Shape...)
}
