package mal

import (
	"fmt"
	"math"

	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/rel"
	"repro/internal/types"
)

// Compile lowers an optimized logical plan into a MAL program.
//
// The generator threads a candidate environment through the plan: one
// base-aligned BAT variable per schema column plus an optional candidate
// list narrowing the visible rows. Selections only shrink the candidate
// list; a column materialises at most once per candidate list or join,
// at the point that consumes it (the final projection, a join/sort
// position list, or an aggregation input) — MonetDB's late
// materialization. A join emits one projection per column of both sides;
// the closing dead-code pass drops those nothing reads, along with the
// binds of columns no instruction touches, so only consumed columns
// materialise.
func Compile(n rel.Node) (*Program, error) {
	p := &Program{}
	g := &gen{p: p}
	env, err := g.node(n)
	if err != nil {
		return nil, err
	}
	env = g.dense(env)
	schema := n.Schema()
	p.ResultVars = env.cols
	for _, c := range schema {
		p.ResultNames = append(p.ResultNames, c.Name)
		p.ResultDims = append(p.ResultDims, c.IsDim)
		p.ResultKinds = append(p.ResultKinds, c.Kind)
	}
	switch x := n.(type) {
	case *rel.Project:
		p.ShapeHint = x.ShapeHint
	case *rel.Write:
		p.Write = x
	}
	dropDead(p)
	link(p)
	return p, nil
}

// dropDead is MonetDB's deadcode optimizer: walking the program backwards
// from its results, it drops every instruction that is pure (binds,
// projections, slices, mirrors: no effect beyond its result, and no
// user-visible error) and whose results nothing reads. Calculator and
// aggregate instructions stay even when dead: their division-by-zero and
// overflow errors are part of the statement's answer.
func dropDead(p *Program) {
	// Every statement is compiled, so the common small program keeps its
	// liveness on the stack.
	var small [64]bool
	live := small[:min(p.NVars, len(small))]
	if p.NVars > len(small) {
		live = make([]bool, p.NVars)
	}
	for _, v := range p.ResultVars {
		live[v] = true
	}
	dead := 0
	for i := len(p.Instrs) - 1; i >= 0; i-- {
		in := &p.Instrs[i]
		if pure(in) && !live[in.Rets[0]] {
			dead++
			continue
		}
		for j := range in.Args {
			if v := in.Args[j].Var; v >= 0 {
				live[v] = true
			}
		}
	}
	if dead == 0 {
		return
	}
	// Every variable is read only after the instruction defining it, so
	// live is final for an instruction once the walk has passed it.
	n := 0
	for i := range p.Instrs {
		if in := &p.Instrs[i]; !pure(in) || live[in.Rets[0]] {
			p.Instrs[n] = *in
			n++
		}
	}
	clear(p.Instrs[n:])
	p.Instrs = p.Instrs[:n]
}

// link readies a program for Run. It resolves each instruction to the
// interpreter method that runs it, once, so a run calls the method
// directly instead of dispatching on the name. And it is MonetDB's
// garbage collector: it records each variable's last use, the index of
// the last instruction that reads or defines it, so that Run drops the
// variable there and recycles its storage; the program's results have
// none and stay.
func link(p *Program) {
	p.ops = make([]func(*Ctx, *Instr) error, len(p.Instrs))
	p.lastUse = make([]int32, p.NVars)
	for i := range p.Instrs {
		in := &p.Instrs[i]
		p.ops[i] = handler(in.Module, in.Fn)
		for _, r := range in.Rets {
			p.lastUse[r] = int32(i)
		}
		for j := range in.Args {
			if v := in.Args[j].Var; v >= 0 {
				p.lastUse[v] = int32(i)
			}
		}
	}
	for _, v := range p.ResultVars {
		p.lastUse[v] = -1
	}
}

// pure reports whether in may be dropped when nothing reads its result;
// every such instruction has exactly one.
func pure(in *Instr) bool {
	switch in.Module {
	case "sql":
		return in.Fn == "bind" || in.Fn == "tablecand"
	case "array":
		return in.Fn == "binddim" || in.Fn == "bindattr"
	case "algebra":
		return in.Fn == "projection"
	case "bat":
		return in.Fn == "mirror" || in.Fn == "slice"
	}
	return false
}

type gen struct {
	p *Program
}

// cenv is one operator's output environment: base-aligned column variables
// plus an optional candidate-list variable (cand < 0 = all rows, columns
// dense). proj memoises per-column candidate-space projections so each
// referenced column materialises at most once per candidate list. arr is
// set while the base rows are the cells of an array scan, whose dimension
// columns lead cols.
type cenv struct {
	cols []int
	cand int
	proj map[int]int
	arr  *catalog.Array
}

func denseEnv(cols []int) cenv { return cenv{cols: cols, cand: -1} }

// narrow returns the environment restricted by a fresh candidate variable;
// projections memoised against the old list are dropped.
func (e cenv) narrow(cand int) cenv { return cenv{cols: e.cols, cand: cand, arr: e.arr} }

// candArg renders the environment's candidate list as an instruction
// argument (nil constant when all rows are visible).
func (e cenv) candArg() Arg {
	if e.cand < 0 {
		return K(types.Null(types.KindOID))
	}
	return V(e.cand)
}

// refVar is a variable whose runtime length equals the environment's
// visible row count (used to size constant fillers).
func (e cenv) refVar() int {
	if e.cand >= 0 {
		return e.cand
	}
	return e.cols[0]
}

// matCol returns a candidate-space variable for schema column i,
// projecting through the candidate list exactly once (memoised).
func (g *gen) matCol(e *cenv, i int) int {
	if e.cand < 0 {
		return e.cols[i]
	}
	if v, ok := e.proj[i]; ok {
		return v
	}
	v := g.p.Emit("algebra", "projection", V(e.cand), V(e.cols[i]))
	if e.proj == nil {
		e.proj = make(map[int]int)
	}
	e.proj[i] = v
	return v
}

// dense materialises every column through the candidate list and clears it.
func (g *gen) dense(e cenv) cenv {
	if e.cand < 0 {
		return e
	}
	cols := make([]int, len(e.cols))
	for i := range e.cols {
		cols[i] = g.matCol(&e, i)
	}
	return denseEnv(cols)
}

// mapToBase composes a position list computed in candidate space with the
// candidate list, yielding base positions.
func (g *gen) mapToBase(v int, e cenv) int {
	if e.cand < 0 {
		return v
	}
	return g.p.Emit("algebra", "projection", V(v), V(e.cand))
}

// node compiles a plan node and returns its environment.
func (g *gen) node(n rel.Node) (cenv, error) {
	switch x := n.(type) {
	case *rel.ScanTable:
		// The candidate list starts as the table's live rows (a virtual
		// dense range unless rows were deleted); columns stay unprojected.
		cand := g.p.Emit("sql", "tablecand", X(x.T))
		cols := make([]int, len(x.T.Columns))
		for i := range x.T.Columns {
			cols[i] = g.p.Emit("sql", "bind", X(x.T), K(types.Int(int64(i))))
		}
		return cenv{cols: cols, cand: cand}, nil

	case *rel.ScanArray:
		return g.scanArray(x)

	case *rel.ScanDual:
		v := g.p.Emit("array", "filler", K(types.Int(1)), K(types.Bool(true)), X(types.KindBool))
		return denseEnv([]int{v}), nil

	case *rel.Filter:
		env, err := g.node(x.Child)
		if err != nil {
			return cenv{}, err
		}
		// Unoptimized plans still reach the generator: decompose (and run
		// the statistics pass) on the fly so candidate execution does not
		// depend on the rewrite pass.
		steps, empty := rel.PlanSteps(x.Child, x.Pred)
		if empty {
			return env.narrow(g.p.Emit("algebra", "emptycand")), nil
		}
		return g.applySteps(env, steps)

	case *rel.CandSelect:
		env, err := g.node(x.Child)
		if err != nil {
			return cenv{}, err
		}
		if x.Empty {
			// The statistics proved the predicate empty: no step runs, the
			// candidate list collapses to nothing.
			return env.narrow(g.p.Emit("algebra", "emptycand")), nil
		}
		return g.applySteps(env, x.Steps)

	case *rel.Project:
		env, err := g.node(x.Child)
		if err != nil {
			return cenv{}, err
		}
		out := make([]int, len(x.Exprs))
		for i, e := range x.Exprs {
			arg, err := g.expr(&env, e)
			if err != nil {
				return cenv{}, err
			}
			out[i] = g.mat(&env, arg, e.Kind())
		}
		return denseEnv(out), nil

	case *rel.Join:
		return g.join(x)

	case *rel.GroupAgg:
		return g.groupAgg(x)

	case *rel.TileAgg:
		return g.tileAgg(x)

	case *rel.Sort:
		return g.sort(x, -1)

	case *rel.Limit:
		var env cenv
		var err error
		if s, ok := x.Child.(*rel.Sort); ok && x.Count >= 0 {
			// Top-N: the sort only has to order the rows the slice keeps.
			env, err = g.sort(s, x.Offset+x.Count)
		} else {
			env, err = g.node(x.Child)
		}
		if err != nil {
			return cenv{}, err
		}
		lo := x.Offset
		hi := int64(math.MaxInt64)
		if x.Count >= 0 {
			hi = lo + x.Count
		}
		if env.cand >= 0 {
			// Late limit: slice the candidate list, not the columns.
			cand := g.p.Emit("bat", "slice", V(env.cand), K(types.Int(lo)), K(types.Int(hi)))
			return env.narrow(cand), nil
		}
		out := make([]int, len(env.cols))
		for i, v := range env.cols {
			out[i] = g.p.Emit("bat", "slice", V(v), K(types.Int(lo)), K(types.Int(hi)))
		}
		return denseEnv(out), nil

	case *rel.Distinct:
		env, err := g.node(x.Child)
		if err != nil {
			return cenv{}, err
		}
		args := make([]Arg, 0, len(env.cols)+1)
		args = append(args, env.candArg())
		for _, v := range env.cols {
			args = append(args, V(v))
		}
		rets := g.p.EmitN(3, "group", "group", args...)
		// Extents are base positions (group.group maps them through the
		// candidate list), so they project from base columns directly.
		return g.projectAll(env, rets[1])

	case *rel.UnionAll:
		lenv, err := g.node(x.L)
		if err != nil {
			return cenv{}, err
		}
		renv, err := g.node(x.R)
		if err != nil {
			return cenv{}, err
		}
		lenv, renv = g.dense(lenv), g.dense(renv)
		schema := x.Schema()
		out := make([]int, len(lenv.cols))
		for i := range lenv.cols {
			out[i] = g.p.Emit("bat", "concat", V(lenv.cols[i]), V(renv.cols[i]), X(schema[i].Kind))
		}
		return denseEnv(out), nil

	case *rel.Write:
		env, err := g.node(x.Child)
		if err != nil {
			return cenv{}, err
		}
		// The selection's candidate list is the written rows' base
		// positions; an unfiltered array scan has none, so it writes
		// every cell. SET values evaluate in candidate space: only the
		// written rows are computed.
		pos := env.cand
		if pos < 0 {
			pos = g.p.Emit("bat", "mirror", V(env.cols[0]))
		}
		out := []int{pos}
		for _, s := range x.Sets {
			arg, err := g.expr(&env, s.Val)
			if err != nil {
				return cenv{}, err
			}
			out = append(out, g.mat(&env, arg, s.Val.Kind()))
		}
		return denseEnv(out), nil

	default:
		return cenv{}, fmt.Errorf("mal: cannot compile plan node %T", n)
	}
}

func (g *gen) scanArray(x *rel.ScanArray) (cenv, error) {
	cols := make([]int, 0, len(x.A.Shape)+len(x.A.Attrs))
	for k := range x.A.Shape {
		cols = append(cols, g.p.Emit("array", "binddim", X(x.A), K(types.Int(int64(k)))))
	}
	for k := range x.A.Attrs {
		cols = append(cols, g.p.Emit("array", "bindattr", X(x.A), K(types.Int(int64(k)))))
	}
	if x.Sliced() {
		// Dimension-range pushdown: the candidate list is computed from the
		// shape arithmetic alone (optimizer pass "slabPushdown") and flows
		// on without materialising any column.
		cand := g.p.Emit("array", "slab", X(x.A),
			X(append([]int{}, x.SlabLo...)), X(append([]int{}, x.SlabHi...)))
		return cenv{cols: cols, cand: cand, arr: x.A}, nil
	}
	return cenv{cols: cols, cand: -1, arr: x.A}, nil
}

// applySteps lowers a candidate-selection chain: every step replaces the
// environment's candidate list with a narrower one.
func (g *gen) applySteps(env cenv, steps []rel.SelStep) (cenv, error) {
	for _, st := range steps {
		switch {
		case st.Atom != nil:
			env = env.narrow(g.atomSelect(env, *st.Atom))
		case st.Or != nil:
			// Branches are independent: each selects against the incoming
			// list when one exists — the word-wise union (and intersection,
			// when branches were evaluated unrestricted) merges sorted oid
			// lists without rescanning the column.
			union := -1
			for _, a := range st.Or {
				v := g.atomSelect(env, a)
				if union < 0 {
					union = v
				} else {
					union = g.p.Emit("algebra", "candor", V(union), V(v))
				}
			}
			env = env.narrow(union)
		default:
			arg, err := g.expr(&env, st.Pred)
			if err != nil {
				return cenv{}, err
			}
			cond := g.mat(&env, arg, types.KindBool)
			env = env.narrow(g.p.Emit("algebra", "boolselect", V(cond), env.candArg()))
		}
	}
	return env, nil
}

// atomSelect emits the fused selection kernel for one atom, returning the
// narrowed candidate variable.
func (g *gen) atomSelect(env cenv, a rel.SelAtom) int {
	col := env.cols[a.Col]
	if a.Op == "between" {
		return g.p.Emit("algebra", "rangeselect", V(col), env.candArg(), K(a.Lo), K(a.Hi))
	}
	return g.p.Emit("algebra", "thetaselect", V(col), env.candArg(), K(a.Val), X(a.Op))
}

// projectAll projects every base column through a base-position list.
func (g *gen) projectAll(env cenv, idx int) (cenv, error) {
	out := make([]int, len(env.cols))
	for i, v := range env.cols {
		out[i] = g.p.Emit("algebra", "projection", V(idx), V(v))
	}
	return denseEnv(out), nil
}

func (g *gen) join(x *rel.Join) (cenv, error) {
	lenv, err := g.node(x.L)
	if err != nil {
		return cenv{}, err
	}
	renv, err := g.node(x.R)
	if err != nil {
		return cenv{}, err
	}
	var li, ri int
	switch {
	case x.Cross:
		rets := g.p.EmitN(2, "algebra", "crossproduct", V(lenv.refVar()), V(renv.refVar()))
		li = g.mapToBase(rets[0], lenv)
		ri = g.mapToBase(rets[1], renv)

	case colKeys(x.LKeys) && colKeys(x.RKeys):
		// Plain column keys ride the candidate lists into the join kernel:
		// build and probe touch only candidate rows and the position lists
		// come back in base space.
		args := make([]Arg, 0, 2*len(x.LKeys)+3)
		args = append(args, X(len(x.LKeys)))
		for _, k := range x.LKeys {
			args = append(args, V(lenv.cols[k.(*rel.Col).Idx]))
		}
		for _, k := range x.RKeys {
			args = append(args, V(renv.cols[k.(*rel.Col).Idx]))
		}
		args = append(args, lenv.candArg(), renv.candArg())
		rets := g.p.EmitN(2, "algebra", joinFn(x), args...)
		li, ri = rets[0], rets[1]

	default:
		// Computed keys evaluate in candidate space; the join's position
		// lists then compose with the candidate lists back to base.
		args := make([]Arg, 0, 2*len(x.LKeys)+3)
		args = append(args, X(len(x.LKeys)))
		for _, k := range x.LKeys {
			a, err := g.expr(&lenv, k)
			if err != nil {
				return cenv{}, err
			}
			args = append(args, V(g.mat(&lenv, a, k.Kind())))
		}
		for _, k := range x.RKeys {
			a, err := g.expr(&renv, k)
			if err != nil {
				return cenv{}, err
			}
			args = append(args, V(g.mat(&renv, a, k.Kind())))
		}
		args = append(args, K(types.Null(types.KindOID)), K(types.Null(types.KindOID)))
		rets := g.p.EmitN(2, "algebra", joinFn(x), args...)
		li = g.mapToBase(rets[0], lenv)
		ri = g.mapToBase(rets[1], renv)
	}
	cols := make([]int, 0, len(lenv.cols)+len(renv.cols))
	for _, v := range lenv.cols {
		cols = append(cols, g.p.Emit("algebra", "projection", V(li), V(v)))
	}
	for _, v := range renv.cols {
		cols = append(cols, g.p.Emit("algebra", "projection", V(ri), V(v)))
	}
	env := denseEnv(cols)
	if x.Residual != nil {
		return g.applySteps(env, rel.DecomposePred(x.Residual))
	}
	return env, nil
}

// joinFn picks the join instruction per operand: plan-time column
// properties proving both single bare-column keys sorted and NULL-free
// select the merge join (the kernel re-validates the claim at runtime and
// falls back to hashing, so the pick can only win).
func joinFn(x *rel.Join) string {
	if x.LeftOuter {
		return "leftjoin"
	}
	if rel.MergeJoinnable(x) {
		return "mergejoin"
	}
	return "join"
}

// colKeys reports whether every key is a bare column reference.
func colKeys(keys []rel.Expr) bool {
	for _, k := range keys {
		if _, ok := k.(*rel.Col); !ok {
			return false
		}
	}
	return true
}

// sort compiles an ORDER BY. A bound >= 0 (the LIMIT's offset + count)
// lets algebra.sort keep only the first bound rows of the order.
func (g *gen) sort(x *rel.Sort, bound int64) (cenv, error) {
	env, err := g.node(x.Child)
	if err != nil {
		return cenv{}, err
	}
	args := make([]Arg, 0, len(x.Keys)+2)
	for _, k := range x.Keys {
		arg, err := g.expr(&env, k)
		if err != nil {
			return cenv{}, err
		}
		args = append(args, V(g.mat(&env, arg, k.Kind())))
	}
	args = append(args, X(append([]bool{}, x.Desc...)))
	if bound >= 0 {
		args = append(args, K(types.Int(bound)))
	}
	idx := g.p.Emit("algebra", "sort", args...)
	// The order index addresses candidate space; compose it with the
	// candidate list so output columns project straight from base.
	return g.projectAll(env, g.mapToBase(idx, env))
}

func (g *gen) groupAgg(x *rel.GroupAgg) (cenv, error) {
	env, err := g.node(x.Child)
	if err != nil {
		return cenv{}, err
	}
	if len(x.Keys) == 0 {
		// Global aggregation: one group spanning the candidate rows.
		gids := g.p.Emit("array", "fillerlike", V(env.refVar()), K(types.Oid(0)), X(types.KindOID))
		ng := K(types.Int(1))
		out := make([]int, 0, len(x.Aggs))
		for _, a := range x.Aggs {
			v, err := g.agg(&env, a, gids, ng)
			if err != nil {
				return cenv{}, err
			}
			out = append(out, v)
		}
		return denseEnv(out), nil
	}

	if env.cand >= 0 && colKeys(x.Keys) && colAggs(x.Aggs) {
		// Fused path: base key columns plus the candidate list go straight
		// into the grouping kernel. A value column consumed by exactly one
		// aggregate rides the candidate list into the aggregation kernel,
		// which gathers it there (the aggregation input is its single
		// materialization point); a column shared by several aggregates is
		// projected once instead (memoised), so it is never gathered twice.
		uses := make(map[int]int)
		for _, a := range x.Aggs {
			if a.Arg != nil {
				uses[a.Arg.(*rel.Col).Idx]++
			}
		}
		args := make([]Arg, 0, len(x.Keys)+1)
		args = append(args, env.candArg())
		for _, k := range x.Keys {
			args = append(args, V(env.cols[k.(*rel.Col).Idx]))
		}
		rets := g.p.EmitN(3, "group", "group", args...)
		gids, extents, ng := rets[0], rets[1], V(rets[2])
		out := make([]int, 0, len(x.Keys)+len(x.Aggs))
		for _, k := range x.Keys {
			// Extents hold base positions of each group's first row.
			out = append(out, g.p.Emit("algebra", "projection", V(extents), V(env.cols[k.(*rel.Col).Idx])))
		}
		for _, a := range x.Aggs {
			if a.Arg == nil {
				// COUNT(*): count group members via the gid column itself
				// (already candidate-aligned).
				out = append(out, g.p.Emit("aggr", "sub", V(gids), V(gids), ng, X(a.Agg)))
				continue
			}
			idx := a.Arg.(*rel.Col).Idx
			if uses[idx] == 1 {
				out = append(out, g.p.Emit("aggr", "sub", V(env.cols[idx]), V(gids), ng, X(a.Agg), V(env.cand)))
				continue
			}
			vals := g.matCol(&env, idx)
			out = append(out, g.p.Emit("aggr", "sub", V(vals), V(gids), ng, X(a.Agg)))
		}
		return denseEnv(out), nil
	}

	// Generic path: keys and values evaluate in candidate space, the whole
	// aggregation then runs dense over the shrunken vectors.
	keyVars := make([]int, len(x.Keys))
	args := make([]Arg, 0, len(x.Keys)+1)
	args = append(args, K(types.Null(types.KindOID)))
	for i, k := range x.Keys {
		a, err := g.expr(&env, k)
		if err != nil {
			return cenv{}, err
		}
		keyVars[i] = g.mat(&env, a, k.Kind())
		args = append(args, V(keyVars[i]))
	}
	rets := g.p.EmitN(3, "group", "group", args...)
	gids, extents, ng := rets[0], rets[1], V(rets[2])
	out := make([]int, 0, len(x.Keys)+len(x.Aggs))
	for _, kv := range keyVars {
		out = append(out, g.p.Emit("algebra", "projection", V(extents), V(kv)))
	}
	for _, a := range x.Aggs {
		v, err := g.agg(&env, a, gids, ng)
		if err != nil {
			return cenv{}, err
		}
		out = append(out, v)
	}
	return denseEnv(out), nil
}

// colAggs reports whether every aggregate argument is a bare column (or
// COUNT(*)).
func colAggs(aggs []rel.AggSpec) bool {
	for _, a := range aggs {
		if a.Arg == nil {
			continue
		}
		if _, ok := a.Arg.(*rel.Col); !ok {
			return false
		}
	}
	return true
}

func (g *gen) agg(env *cenv, a rel.AggSpec, gids int, ng Arg) (int, error) {
	var vals int
	agg := a.Agg
	if a.Arg == nil {
		// COUNT(*): count group members via the gid column itself.
		vals = gids
	} else {
		arg, err := g.expr(env, a.Arg)
		if err != nil {
			return 0, err
		}
		vals = g.mat(env, arg, a.Arg.Kind())
	}
	return g.p.Emit("aggr", "sub", V(vals), V(gids), ng, X(agg)), nil
}

func (g *gen) tileAgg(x *rel.TileAgg) (cenv, error) {
	scan := &rel.ScanArray{A: x.A, Alias: x.Alias}
	env, err := g.scanArray(scan)
	if err != nil {
		return cenv{}, err
	}
	fn := "tileagg"
	if x.UseSAT {
		fn = "tileaggsat"
	}
	out := append([]int{}, env.cols...)
	for _, a := range x.Aggs {
		var vals int
		agg := a.Agg
		if a.Arg == nil {
			// COUNT(*) over a tile counts the in-bounds cells: aggregate a
			// constant-one column with COUNT.
			vals = g.p.Emit("array", "fillerlike", V(env.cols[0]), K(types.Int(1)), X(types.KindInt))
			agg = gdk.AggCount
		} else {
			arg, err := g.expr(&env, a.Arg)
			if err != nil {
				return cenv{}, err
			}
			vals = g.mat(&env, arg, a.Arg.Kind())
		}
		v := g.p.Emit("array", fn, V(vals), X(x.A.Shape), X(append([]gdk.TileRange{}, x.Tile...)), X(agg))
		out = append(out, v)
	}
	return denseEnv(out), nil
}

// leafArg renders a Col/Const operand in base space for a fused
// candidate-carrying calculator instruction; other expressions (and
// out-of-range column ordinals, which fall through to expr's guarded Col
// case for a graceful error) return ok = false.
func leafArg(env *cenv, e rel.Expr) (Arg, bool) {
	switch x := e.(type) {
	case *rel.Col:
		if x.Idx < 0 || x.Idx >= len(env.cols) {
			return Arg{}, false
		}
		return V(env.cols[x.Idx]), true
	case *rel.Const:
		return K(x.Val), true
	}
	return Arg{}, false
}

// expr compiles a bound scalar expression over the environment, returning
// either a candidate-space variable or a constant argument. Expressions
// whose operands are bare columns or constants fuse the candidate list
// into the calculator instruction itself — no projection is emitted; other
// column references materialise (once, memoised) via matCol.
func (g *gen) expr(env *cenv, e rel.Expr) (Arg, error) {
	switch x := e.(type) {
	case *rel.Col:
		if x.Idx < 0 || x.Idx >= len(env.cols) {
			return Arg{}, fmt.Errorf("mal: column ordinal %d out of range (env has %d)", x.Idx, len(env.cols))
		}
		return V(g.matCol(env, x.Idx)), nil
	case *rel.Const:
		return K(x.Val), nil
	case *rel.Bin:
		if env.cand >= 0 {
			l, lok := leafArg(env, x.L)
			r, rok := leafArg(env, x.R)
			if lok && rok && (l.IsVar() || r.IsVar()) {
				return V(g.p.Emit("batcalc", "bin", X(x.Op), l, r, V(env.cand))), nil
			}
		}
		l, err := g.expr(env, x.L)
		if err != nil {
			return Arg{}, err
		}
		r, err := g.expr(env, x.R)
		if err != nil {
			return Arg{}, err
		}
		if !l.IsVar() && !r.IsVar() {
			l = V(g.mat(env, l, x.L.Kind()))
		}
		return V(g.p.Emit("batcalc", "bin", X(x.Op), l, r)), nil
	case *rel.Un:
		if env.cand >= 0 {
			if xe, ok := leafArg(env, x.X); ok && xe.IsVar() {
				return V(g.p.Emit("batcalc", "un", X(x.Op), xe, V(env.cand))), nil
			}
		}
		xe, err := g.expr(env, x.X)
		if err != nil {
			return Arg{}, err
		}
		if !xe.IsVar() {
			xe = V(g.mat(env, xe, x.X.Kind()))
		}
		return V(g.p.Emit("batcalc", "un", X(x.Op), xe)), nil
	case *rel.IfElse:
		c, err := g.expr(env, x.Cond)
		if err != nil {
			return Arg{}, err
		}
		t, err := g.expr(env, x.Then)
		if err != nil {
			return Arg{}, err
		}
		f, err := g.expr(env, x.Else)
		if err != nil {
			return Arg{}, err
		}
		// The condition drives the row count; materialise it.
		cv := g.mat(env, c, types.KindBool)
		return V(g.p.Emit("batcalc", "ifthenelse", V(cv), t, f)), nil
	case *rel.Cast:
		xe, err := g.expr(env, x.X)
		if err != nil {
			return Arg{}, err
		}
		if !xe.IsVar() {
			xe = V(g.mat(env, xe, x.X.Kind()))
		}
		return V(g.p.Emit("batcalc", "cast", X(x.To), xe)), nil
	case *rel.Substr:
		if env.cand >= 0 {
			s, sok := leafArg(env, x.X)
			from, fok := leafArg(env, x.From)
			forE, ook := leafArg(env, x.For)
			if sok && fok && ook && (s.IsVar() || from.IsVar() || forE.IsVar()) {
				return V(g.p.Emit("batcalc", "substring", s, from, forE, V(env.cand))), nil
			}
		}
		s, err := g.expr(env, x.X)
		if err != nil {
			return Arg{}, err
		}
		from, err := g.expr(env, x.From)
		if err != nil {
			return Arg{}, err
		}
		forE, err := g.expr(env, x.For)
		if err != nil {
			return Arg{}, err
		}
		if !s.IsVar() && !from.IsVar() && !forE.IsVar() {
			s = V(g.mat(env, s, types.KindStr))
		}
		return V(g.p.Emit("batcalc", "substring", s, from, forE)), nil
	case *rel.CellFetch:
		attr := g.p.Emit("array", "bindattr", X(x.A), K(types.Int(int64(x.AttrIdx))))
		if offs, ok := shiftOffsets(env, x); ok {
			args := []Arg{V(attr), X(x.A.Shape), X(offs)}
			if env.cand >= 0 {
				args = append(args, V(env.cand))
			}
			return V(g.p.Emit("array", "shift", args...)), nil
		}
		args := []Arg{V(attr), X(x.A.Shape)}
		for _, c := range x.Coords {
			a, err := g.expr(env, c)
			if err != nil {
				return Arg{}, err
			}
			args = append(args, V(g.mat(env, a, types.KindInt)))
		}
		return V(g.p.Emit("array", "cellfetch", args...)), nil
	default:
		return Arg{}, fmt.Errorf("mal: cannot compile expression %T", e)
	}
}

// shiftOffsets recognises a cell fetch from the array being scanned whose
// every coordinate is the scan's own dimension plus or minus an integer
// constant (`A[x-1][y]`), returning the constants. Offsets stay below
// 2^31 in magnitude: then dim ± c cannot wrap around int64 onto another
// cell of any array that fits in memory, so the shifted read and the
// coordinate arithmetic of array.cellfetch agree.
func shiftOffsets(env *cenv, x *rel.CellFetch) ([]int, bool) {
	if env.arr != x.A {
		return nil, false
	}
	offs := make([]int, len(x.Coords))
	for d, c := range x.Coords {
		dim, off, ok := dimPlusConst(c)
		if !ok || dim != d || off > math.MaxInt32 || off < -math.MaxInt32 {
			return nil, false
		}
		offs[d] = int(off)
	}
	return offs, true
}

// dimPlusConst matches col, col + c, c + col and col - c for a column
// ordinal col and a non-NULL integer constant c.
func dimPlusConst(e rel.Expr) (col int, off int64, ok bool) {
	switch x := e.(type) {
	case *rel.Col:
		return x.Idx, 0, true
	case *rel.Bin:
		l, isCol := x.L.(*rel.Col)
		c, isConst := x.R.(*rel.Const)
		if x.Op == "+" && !isCol {
			l, isCol = x.R.(*rel.Col)
			c, isConst = x.L.(*rel.Const)
		}
		if !isCol || !isConst || c.Val.Kind() != types.KindInt || c.Val.IsNull() {
			return 0, 0, false
		}
		switch x.Op {
		case "+":
			return l.Idx, c.Val.Int64(), true
		case "-":
			return l.Idx, -c.Val.Int64(), true
		}
	}
	return 0, 0, false
}

// mat materialises a constant argument into a candidate-length column
// aligned with the environment's visible rows; variables pass through.
func (g *gen) mat(env *cenv, a Arg, k types.Kind) int {
	if a.IsVar() {
		return a.Var
	}
	if k == types.KindVoid {
		k = types.KindInt
	}
	return g.p.Emit("array", "fillerlike", V(env.refVar()), K(a.Const), X(k))
}
