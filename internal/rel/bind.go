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
	return b.applyOrderLimit(sel, node)
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

	if !withOrder {
		var node Node = proj
		if sel.Distinct {
			node = &Distinct{Child: node}
		}
		return node, nil
	}
	return b.finishSelect(sel, proj, preBind)
}

// finishSelect applies DISTINCT, ORDER BY (with hidden sort columns for
// keys that reference non-projected source columns) and LIMIT/OFFSET.
func (b *Binder) finishSelect(sel *ast.Select, proj *Project, preBind func(ast.Expr) (Expr, error)) (Node, error) {
	nOut := len(proj.Exprs)
	var node Node = proj
	if sel.Distinct {
		node = &Distinct{Child: node}
	}
	if len(sel.OrderBy) > 0 {
		outScope := NewScope(proj.Schema()[:nOut])
		var keys []Expr
		var descs []bool
		hidden := 0
		for _, oi := range sel.OrderBy {
			key, hid, err := b.bindOrderKey(oi.Expr, proj, outScope, preBind, nOut)
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
// column (by alias/name), or — falling back — an expression over the
// pre-projection scope that is appended to the projection as a hidden
// column.
func (b *Binder) bindOrderKey(e ast.Expr, proj *Project, outScope *Scope, preBind func(ast.Expr) (Expr, error), nOut int) (Expr, bool, error) {
	if lit, ok := e.(*ast.Literal); ok && !lit.Val.IsNull() && lit.Val.Kind() == types.KindInt {
		n := int(lit.Val.Int64())
		if n < 1 || n > nOut {
			return nil, false, fmt.Errorf("at %s: ORDER BY position %d is out of range", lit.Pos, n)
		}
		return &Col{Idx: n - 1, Info: outScope.Cols[n-1]}, false, nil
	}
	// Prefer output columns (aliases included).
	if bound, err := b.BindScalar(outScope, e); err == nil {
		return bound, false, nil
	}
	// Fall back to the source scope via a hidden projected column.
	bound, err := preBind(e)
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
		v, err := b.constInt(sel.Limit)
		if err != nil {
			return nil, err
		}
		if v < 0 {
			return nil, fmt.Errorf("LIMIT must be non-negative")
		}
		lim = v
	}
	if sel.Offset != nil {
		v, err := b.constInt(sel.Offset)
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

// aggCollector gathers the distinct aggregate calls of a statement.
type aggCollector struct {
	b     *Binder
	sc    *Scope // pre-aggregation scope (agg args bind here)
	specs []AggSpec
	sigs  []string
}

func (c *aggCollector) collect(e ast.Expr) error {
	var walkErr error
	ast.Walk(e, func(x ast.Expr) bool {
		if walkErr != nil {
			return false
		}
		fc, ok := x.(*ast.FuncCall)
		if !ok || !aggFuncs[fc.Name] {
			return true
		}
		if _, err := c.add(fc); err != nil {
			walkErr = err
		}
		return false // don't descend into aggregate arguments
	})
	return walkErr
}

// add registers one aggregate call, deduplicating by signature, and
// returns its ordinal.
func (c *aggCollector) add(fc *ast.FuncCall) (int, error) {
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
		arg, err = c.b.BindScalar(c.sc, fc.Args[0])
		if err != nil {
			return 0, err
		}
	}
	sig := aggSignature(agg, arg)
	for i, s := range c.sigs {
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
	c.specs = append(c.specs, AggSpec{Agg: agg, Arg: arg, Name: fc.Name, K: k})
	c.sigs = append(c.sigs, sig)
	return len(c.specs) - 1, nil
}

func aggSignature(agg gdk.AggKind, arg Expr) string {
	if arg == nil {
		return string(agg) + "(*)"
	}
	return string(agg) + "(" + arg.String() + ")"
}

// aggEnv supports binding post-aggregation expressions: passthrough
// columns (group keys, or the whole cell-aligned schema for tiling) plus
// aggregate results.
type aggEnv struct {
	b *Binder
	// passthrough maps a pre-agg expression rendering to a post-agg ordinal.
	passthrough map[string]int
	// passScope resolves bare column references pre-agg (to render them).
	preScope *Scope
	// postCols is the post-agg schema.
	postCols []ColInfo
	// aggBase is the ordinal of the first aggregate column.
	aggBase int
	agg     *aggCollector
	// tileMode passes every pre-agg column through at the same ordinal.
	tileMode bool
}

// bind binds an expression in the post-aggregation scope.
func (env *aggEnv) bind(e ast.Expr) (Expr, error) {
	// Aggregate call → aggregate output column.
	if fc, ok := e.(*ast.FuncCall); ok && aggFuncs[fc.Name] {
		idx, err := env.agg.add(fc)
		if err != nil {
			return nil, err
		}
		ord := env.aggBase + idx
		return &Col{Idx: ord, Info: env.postCols[ord]}, nil
	}
	// Whole-expression match against a passthrough (group key).
	if bound, err := env.b.bindExpr(env.preScope, e); err == nil {
		if ord, ok := env.passthrough[bound.String()]; ok {
			return &Col{Idx: ord, Info: env.postCols[ord]}, nil
		}
		if env.tileMode {
			// In tile mode the pre-agg schema passes through unchanged, so
			// any pre-agg expression is valid anchor-aligned.
			return bound, nil
		}
		if _, isConst := bound.(*Const); isConst {
			return bound, nil
		}
	}
	// Recurse structurally so expressions *over* keys and aggregates work
	// (e.g. SUM(v) - v, keyed CASE arms).
	switch x := e.(type) {
	case *ast.BinExpr:
		l, err := env.bind(x.L)
		if err != nil {
			return nil, err
		}
		r, err := env.bind(x.R)
		if err != nil {
			return nil, err
		}
		return env.b.makeBin(x.Op, l, r, x.Pos)
	case *ast.UnExpr:
		xe, err := env.bind(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == "-" {
			return fold(&Un{Op: "-", X: xe, K: xe.Kind()}), nil
		}
		return fold(&Un{Op: "not", X: xe, K: types.KindBool}), nil
	case *ast.CaseExpr:
		return env.bindCase(x)
	case *ast.CastExpr:
		xe, err := env.bind(x.X)
		if err != nil {
			return nil, err
		}
		st, ok := types.SQLTypeByName(x.TypeName)
		if !ok {
			return nil, fmt.Errorf("at %s: unknown type %q in CAST", x.Pos, x.TypeName)
		}
		return fold(&Cast{X: xe, To: st.Kind}), nil
	case *ast.IsNullExpr:
		xe, err := env.bind(x.X)
		if err != nil {
			return nil, err
		}
		out := Expr(&Un{Op: "isnull", X: xe, K: types.KindBool})
		if x.Not {
			out = &Un{Op: "not", X: out, K: types.KindBool}
		}
		return fold(out), nil
	case *ast.BetweenExpr:
		xe, err := env.bind(x.X)
		if err != nil {
			return nil, err
		}
		lo, err := env.bind(x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := env.bind(x.Hi)
		if err != nil {
			return nil, err
		}
		ge, err := env.b.makeBin(">=", xe, lo, x.Pos)
		if err != nil {
			return nil, err
		}
		le, err := env.b.makeBin("<=", xe, hi, x.Pos)
		if err != nil {
			return nil, err
		}
		out, err := env.b.makeBin("AND", ge, le, x.Pos)
		if err != nil {
			return nil, err
		}
		if x.Not {
			return fold(&Un{Op: "not", X: out, K: types.KindBool}), nil
		}
		return out, nil
	case *ast.InExpr:
		xe, err := env.bind(x.X)
		if err != nil {
			return nil, err
		}
		var out Expr
		for _, item := range x.List {
			ie, err := env.bind(item)
			if err != nil {
				return nil, err
			}
			eq, err := env.b.makeBin("=", xe, ie, x.Pos)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
			} else if out, err = env.b.makeBin("OR", out, eq, x.Pos); err != nil {
				return nil, err
			}
		}
		if x.Not {
			return fold(&Un{Op: "not", X: out, K: types.KindBool}), nil
		}
		return out, nil
	case *ast.FuncCall:
		// Scalar function over post-agg operands: rebind args in this env
		// by constructing a post-scope function binding.
		return env.bindScalarFunc(x)
	case *ast.ColRef:
		return nil, fmt.Errorf("at %s: column %q must appear in the GROUP BY clause or be used in an aggregate", x.Pos, x.Name)
	case *ast.Literal:
		return &Const{Val: x.Val}, nil
	default:
		return nil, fmt.Errorf("at %s: unsupported expression in aggregated query", e.Position())
	}
}

func (env *aggEnv) bindCase(x *ast.CaseExpr) (Expr, error) {
	k := types.KindVoid
	type arm struct{ cond, res Expr }
	arms := make([]arm, 0, len(x.Whens))
	for _, w := range x.Whens {
		cond, err := env.bind(w.Cond)
		if err != nil {
			return nil, err
		}
		res, err := env.bind(w.Result)
		if err != nil {
			return nil, err
		}
		var cerr error
		if k, cerr = types.CommonKind(k, res.Kind()); cerr != nil {
			return nil, fmt.Errorf("at %s: CASE arms: %v", x.Pos, cerr)
		}
		arms = append(arms, arm{cond, res})
	}
	var elseE Expr
	if x.Else != nil {
		e, err := env.bind(x.Else)
		if err != nil {
			return nil, err
		}
		var cerr error
		if k, cerr = types.CommonKind(k, e.Kind()); cerr != nil {
			return nil, fmt.Errorf("at %s: CASE arms: %v", x.Pos, cerr)
		}
		elseE = e
	}
	if k == types.KindVoid {
		k = types.KindInt
	}
	out := elseE
	if out == nil {
		out = &Const{Val: types.Null(k)}
	}
	for i := len(arms) - 1; i >= 0; i-- {
		out = &IfElse{Cond: arms[i].cond, Then: arms[i].res, Else: out, K: k}
	}
	return fold(out), nil
}

// bindScalarFunc re-binds a scalar function whose arguments live in the
// post-aggregation scope, by delegating to the Binder with a synthetic
// scope made of the post-agg columns.
func (env *aggEnv) bindScalarFunc(x *ast.FuncCall) (Expr, error) {
	// Bind arguments in this env, then assemble with a shallow fake call.
	args := make([]Expr, len(x.Args))
	for i, a := range x.Args {
		e, err := env.bind(a)
		if err != nil {
			return nil, err
		}
		args[i] = e
	}
	// Reuse the scalar-function type rules by substituting pre-bound args:
	// build a scope whose columns are the bound args.
	cols := make([]ColInfo, len(args))
	for i, a := range args {
		cols[i] = ColInfo{Name: fmt.Sprintf("%%arg%d", i), Kind: a.Kind()}
	}
	fakeScope := NewScope(cols)
	fakeArgs := make([]ast.Expr, len(args))
	for i := range args {
		fakeArgs[i] = &ast.ColRef{Name: fmt.Sprintf("%%arg%d", i), Pos: x.Pos}
	}
	bound, err := env.b.bindFunc(fakeScope, &ast.FuncCall{Name: x.Name, Args: fakeArgs, Pos: x.Pos})
	if err != nil {
		return nil, err
	}
	// Substitute the real argument expressions back for the fake columns.
	return substituteCols(bound, args), nil
}

// substituteCols replaces Col{i} with subs[i].
func substituteCols(e Expr, subs []Expr) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Col:
		return subs[x.Idx]
	case *Const:
		return x
	case *Bin:
		return &Bin{Op: x.Op, L: substituteCols(x.L, subs), R: substituteCols(x.R, subs), K: x.K}
	case *Un:
		return &Un{Op: x.Op, X: substituteCols(x.X, subs), K: x.K}
	case *IfElse:
		return &IfElse{Cond: substituteCols(x.Cond, subs), Then: substituteCols(x.Then, subs), Else: substituteCols(x.Else, subs), K: x.K}
	case *Cast:
		return &Cast{X: substituteCols(x.X, subs), To: x.To}
	case *Substr:
		return &Substr{X: substituteCols(x.X, subs), From: substituteCols(x.From, subs), For: substituteCols(x.For, subs)}
	case *CellFetch:
		coords := make([]Expr, len(x.Coords))
		for i, c := range x.Coords {
			coords[i] = substituteCols(c, subs)
		}
		return &CellFetch{A: x.A, AttrIdx: x.AttrIdx, Coords: coords}
	default:
		panic(fmt.Sprintf("rel: unknown expr %T", e))
	}
}

// bindGroupSelect handles value-based GROUP BY (and global aggregation).
func (b *Binder) bindGroupSelect(sel *ast.Select, items []ast.SelectItem, child Node, sc *Scope) (*Project, func(ast.Expr) (Expr, error), error) {
	coll := &aggCollector{b: b, sc: sc}
	for _, it := range items {
		if err := coll.collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := coll.collect(sel.Having); err != nil {
			return nil, nil, err
		}
	}

	// Bind keys.
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

	ga := &GroupAgg{Child: child, Keys: keys, KeyNames: keyNames, Aggs: coll.specs}
	env := &aggEnv{
		b:           b,
		passthrough: map[string]int{},
		preScope:    sc,
		aggBase:     len(keys),
		agg:         coll,
	}
	for i, k := range keys {
		env.passthrough[k.String()] = i
	}
	rebuildPost := func() { env.postCols = ga.Schema() }
	rebuildPost()

	var havingExpr Expr
	if sel.Having != nil {
		h, err := env.bind(sel.Having)
		if err != nil {
			return nil, nil, err
		}
		rebuildPost()
		havingExpr = h
	}

	proj := &Project{}
	for i, it := range items {
		e, err := env.bind(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		rebuildPost()
		proj.Exprs = append(proj.Exprs, e)
		proj.OutNames = append(proj.OutNames, itemName(it, i))
		proj.Dims = append(proj.Dims, it.Dimensional)
	}
	// The collector may have grown while binding; update the node.
	ga.Aggs = coll.specs
	var node Node = ga
	if havingExpr != nil {
		node = &Filter{Child: node, Pred: havingExpr}
	}
	proj.Child = node
	preBind := func(e ast.Expr) (Expr, error) {
		out, err := env.bind(e)
		ga.Aggs = coll.specs
		rebuildPost()
		return out, err
	}
	return proj, preBind, nil
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

	coll := &aggCollector{b: b, sc: sc}
	for _, it := range items {
		if err := coll.collect(it.Expr); err != nil {
			return nil, nil, err
		}
	}
	if sel.Having != nil {
		if err := coll.collect(sel.Having); err != nil {
			return nil, nil, err
		}
	}

	ta := &TileAgg{A: a, Alias: scan.Alias, Tile: tile, Aggs: coll.specs}
	env := &aggEnv{
		b:           b,
		passthrough: map[string]int{},
		preScope:    sc,
		aggBase:     len(sc.Cols),
		agg:         coll,
		tileMode:    true,
	}
	// Every cell-aligned column passes through at the same ordinal.
	for i, c := range sc.Cols {
		_ = c
		env.passthrough[(&Col{Idx: i, Info: sc.Cols[i]}).String()] = i
	}
	env.postCols = ta.Schema()

	var havingExpr Expr
	if sel.Having != nil {
		h, err := env.bind(sel.Having)
		if err != nil {
			return nil, nil, err
		}
		env.postCols = ta.Schema()
		havingExpr = h
	}
	proj := &Project{}
	for i, it := range items {
		e, err := env.bind(it.Expr)
		if err != nil {
			return nil, nil, err
		}
		env.postCols = ta.Schema()
		proj.Exprs = append(proj.Exprs, e)
		proj.OutNames = append(proj.OutNames, itemName(it, i))
		proj.Dims = append(proj.Dims, it.Dimensional)
	}
	ta.Aggs = coll.specs
	var node Node = ta
	if havingExpr != nil {
		node = &Filter{Child: node, Pred: havingExpr}
	}
	proj.Child = node
	proj.ShapeHint = shapeHintFor(proj)
	preBind := func(e ast.Expr) (Expr, error) {
		out, err := env.bind(e)
		ta.Aggs = coll.specs
		env.postCols = ta.Schema()
		return out, err
	}
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

// applyOrderLimit binds ORDER BY / LIMIT / OFFSET over the projected schema.
func (b *Binder) applyOrderLimit(sel *ast.Select, node Node) (Node, error) {
	if len(sel.OrderBy) > 0 {
		schema := node.Schema()
		sc := NewScope(schema)
		keys := make([]Expr, 0, len(sel.OrderBy))
		descs := make([]bool, 0, len(sel.OrderBy))
		for _, oi := range sel.OrderBy {
			// ORDER BY <n> addresses the n-th output column.
			if lit, ok := oi.Expr.(*ast.Literal); ok && !lit.Val.IsNull() && lit.Val.Kind() == types.KindInt {
				n := int(lit.Val.Int64())
				if n < 1 || n > len(schema) {
					return nil, fmt.Errorf("at %s: ORDER BY position %d is out of range", lit.Pos, n)
				}
				keys = append(keys, &Col{Idx: n - 1, Info: schema[n-1]})
				descs = append(descs, oi.Desc)
				continue
			}
			e, err := b.BindScalar(sc, oi.Expr)
			if err != nil {
				return nil, err
			}
			keys = append(keys, e)
			descs = append(descs, oi.Desc)
		}
		node = &Sort{Child: node, Keys: keys, Desc: descs}
	}
	if sel.Limit != nil || sel.Offset != nil {
		lim := int64(-1)
		off := int64(0)
		if sel.Limit != nil {
			v, err := b.constInt(sel.Limit)
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("LIMIT must be non-negative")
			}
			lim = v
		}
		if sel.Offset != nil {
			v, err := b.constInt(sel.Offset)
			if err != nil {
				return nil, err
			}
			if v < 0 {
				return nil, fmt.Errorf("OFFSET must be non-negative")
			}
			off = v
		}
		node = &Limit{Child: node, Offset: off, Count: lim}
	}
	return node, nil
}

// constInt evaluates a constant integer AST expression (LIMIT, dimension
// ranges).
func (b *Binder) constInt(e ast.Expr) (int64, error) {
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

// ConstInt evaluates a constant integer AST expression.
func (b *Binder) ConstInt(e ast.Expr) (int64, error) { return b.constInt(e) }

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
