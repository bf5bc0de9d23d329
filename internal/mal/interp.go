package mal

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/shape"
	"repro/internal/types"
)

// Ctx is the interpreter state: the variable store.
type Ctx struct {
	Vars []any // *bat.BAT or types.Value
}

// batVar fetches a BAT variable.
func (c *Ctx) batVar(a Arg) (*bat.BAT, error) {
	if !a.IsVar() {
		return nil, fmt.Errorf("mal: expected a variable argument")
	}
	b, ok := c.Vars[a.Var].(*bat.BAT)
	if !ok {
		return nil, fmt.Errorf("mal: X_%d is not a BAT", a.Var)
	}
	return b, nil
}

// opnd converts an argument into a calculator operand of length n.
func (c *Ctx) opnd(a Arg, n int) (gdk.Opnd, error) {
	if a.IsVar() {
		switch v := c.Vars[a.Var].(type) {
		case *bat.BAT:
			return gdk.B(v), nil
		case types.Value:
			return gdk.C(v, n), nil
		default:
			return gdk.Opnd{}, fmt.Errorf("mal: X_%d is unset", a.Var)
		}
	}
	return gdk.C(a.Const, n), nil
}

// candOf resolves an optional candidate-list argument: a variable holds
// the candidate BAT, a nil constant means "all rows".
func (c *Ctx) candOf(a Arg) (*bat.BAT, error) {
	if !a.IsVar() {
		return nil, nil
	}
	return c.batVar(a)
}

// scalarInt extracts a constant (or scalar-variable) integer argument.
func (c *Ctx) scalarInt(a Arg) (int64, error) {
	v := a.Const
	if a.IsVar() {
		sv, ok := c.Vars[a.Var].(types.Value)
		if !ok {
			return 0, fmt.Errorf("mal: X_%d is not a scalar", a.Var)
		}
		v = sv
	}
	return v.AsInt()
}

// rowCount finds the ambient row count from the first BAT argument.
func (c *Ctx) rowCount(args []Arg) (int, error) {
	for _, a := range args {
		if a.IsVar() {
			if b, ok := c.Vars[a.Var].(*bat.BAT); ok {
				return b.Len(), nil
			}
		}
	}
	return 0, fmt.Errorf("mal: instruction has no columnar argument to derive a row count")
}

func (c *Ctx) exec(in *Instr) error {
	switch in.Module + "." + in.Fn {
	case "sql.tablecand":
		t := in.Args[0].Aux.(*catalog.Table)
		n := t.PhysRows()
		if t.Deleted == nil || !t.Deleted.Any() {
			c.Vars[in.Rets[0]] = bat.NewVoid(0, n)
			return nil
		}
		live := make([]int64, 0, n)
		for i := 0; i < n; i++ {
			if !t.Deleted.Get(i) {
				live = append(live, int64(i))
			}
		}
		b := bat.FromOIDs(live)
		b.Sorted, b.Key = true, true
		c.Vars[in.Rets[0]] = b
		return nil

	case "sql.bind":
		t := in.Args[0].Aux.(*catalog.Table)
		idx, err := c.scalarInt(in.Args[1])
		if err != nil {
			return err
		}
		if idx < 0 || int(idx) >= len(t.Bats) {
			return fmt.Errorf("column index %d out of range", idx)
		}
		c.Vars[in.Rets[0]] = t.Bats[idx]
		return nil

	case "array.binddim":
		a := in.Args[0].Aux.(*catalog.Array)
		idx, err := c.scalarInt(in.Args[1])
		if err != nil {
			return err
		}
		if idx < 0 || int(idx) >= len(a.DimBats) {
			return fmt.Errorf("dimension index %d out of range", idx)
		}
		c.Vars[in.Rets[0]] = a.DimBats[idx]
		return nil

	case "array.bindattr":
		a := in.Args[0].Aux.(*catalog.Array)
		idx, err := c.scalarInt(in.Args[1])
		if err != nil {
			return err
		}
		if idx < 0 || int(idx) >= len(a.AttrBats) {
			return fmt.Errorf("attribute index %d out of range", idx)
		}
		c.Vars[in.Rets[0]] = a.AttrBats[idx]
		return nil

	case "array.series":
		vals := make([]int64, 5)
		for i := range vals {
			v, err := c.scalarInt(in.Args[i])
			if err != nil {
				return err
			}
			vals[i] = v
		}
		b, err := bat.Series(vals[0], vals[1], vals[2], int(vals[3]), int(vals[4]))
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = b
		return nil

	case "array.filler":
		cnt, err := c.scalarInt(in.Args[0])
		if err != nil {
			return err
		}
		kind := in.Args[2].Aux.(types.Kind)
		b, err := bat.Filler(int(cnt), in.Args[1].Const, kind)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = b
		return nil

	case "array.fillerlike":
		ref, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		kind := in.Args[2].Aux.(types.Kind)
		b, err := bat.Filler(ref.Len(), in.Args[1].Const, kind)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = b
		return nil

	case "array.slab":
		a := in.Args[0].Aux.(*catalog.Array)
		lo := append([]int{}, in.Args[1].Aux.([]int)...)
		hi := append([]int{}, in.Args[2].Aux.([]int)...)
		out, err := gdk.SlabCandidates(a.Shape, lo, hi)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "array.cellfetch":
		attr, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		sh := in.Args[1].Aux.(shape.Shape)
		coords := make([]*bat.BAT, 0, len(in.Args)-2)
		for _, a := range in.Args[2:] {
			b, err := c.batVar(a)
			if err != nil {
				return err
			}
			coords = append(coords, b)
		}
		out, err := gdk.CellFetch(attr, sh, coords)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "array.shift":
		attr, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		sh := in.Args[1].Aux.(shape.Shape)
		offs := in.Args[2].Aux.([]int)
		var cand *bat.BAT
		if len(in.Args) > 3 {
			if cand, err = c.batVar(in.Args[3]); err != nil {
				return err
			}
		}
		out, err := gdk.Shift(attr, sh, offs, cand)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "array.tileagg", "array.tileaggsat":
		vals, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		sh := in.Args[1].Aux.(shape.Shape)
		tile := in.Args[2].Aux.([]gdk.TileRange)
		agg := in.Args[3].Aux.(gdk.AggKind)
		var out *bat.BAT
		if in.Fn == "tileaggsat" {
			out, err = gdk.TileAggSAT(agg, vals, sh, tile)
		} else {
			out, err = gdk.TileAgg(agg, vals, sh, tile)
		}
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "algebra.projection":
		idx, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		b, err := c.batVar(in.Args[1])
		if err != nil {
			return err
		}
		out, err := gdk.Project(idx, b)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "algebra.boolselect":
		cond, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		var cand *bat.BAT
		if len(in.Args) > 1 {
			if cand, err = c.candOf(in.Args[1]); err != nil {
				return err
			}
		}
		out, err := gdk.SelectBool(cond, cand)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "algebra.thetaselect":
		b, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		cand, err := c.candOf(in.Args[1])
		if err != nil {
			return err
		}
		op := in.Args[3].Aux.(string)
		out, err := gdk.ThetaSelect(b, cand, in.Args[2].Const, op)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "algebra.rangeselect":
		b, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		cand, err := c.candOf(in.Args[1])
		if err != nil {
			return err
		}
		out, err := gdk.RangeSelect(b, cand, in.Args[2].Const, in.Args[3].Const)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "algebra.emptycand":
		// The optimizer proved the predicate empty from column statistics.
		b := bat.FromOIDs([]int64{})
		b.Sorted, b.Key = true, true
		c.Vars[in.Rets[0]] = b
		return nil

	case "algebra.candand", "algebra.candor":
		a, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		b, err := c.batVar(in.Args[1])
		if err != nil {
			return err
		}
		if in.Fn == "candand" {
			c.Vars[in.Rets[0]] = gdk.AndCand(a, b)
		} else {
			c.Vars[in.Rets[0]] = gdk.OrCand(a, b)
		}
		return nil

	case "algebra.join", "algebra.leftjoin", "algebra.mergejoin":
		// mergejoin records the optimizer's pick; the kernel dispatches on
		// the runtime properties either way, so a stale plan-time claim
		// degrades to a hash join instead of a wrong result.
		nk := in.Args[0].Aux.(int)
		lkeys := make([]*bat.BAT, nk)
		rkeys := make([]*bat.BAT, nk)
		for i := 0; i < nk; i++ {
			var err error
			if lkeys[i], err = c.batVar(in.Args[1+i]); err != nil {
				return err
			}
			if rkeys[i], err = c.batVar(in.Args[1+nk+i]); err != nil {
				return err
			}
		}
		var lcand, rcand *bat.BAT
		if len(in.Args) > 1+2*nk {
			var err error
			if lcand, err = c.candOf(in.Args[1+2*nk]); err != nil {
				return err
			}
			if rcand, err = c.candOf(in.Args[2+2*nk]); err != nil {
				return err
			}
		}
		var li, ri *bat.BAT
		var err error
		if in.Fn == "leftjoin" {
			li, ri, err = gdk.LeftJoin(lkeys, rkeys, lcand, rcand)
		} else {
			li, ri, err = gdk.HashJoin(lkeys, rkeys, lcand, rcand)
		}
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = li
		c.Vars[in.Rets[1]] = ri
		return nil

	case "algebra.crossproduct":
		l, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		r, err := c.batVar(in.Args[1])
		if err != nil {
			return err
		}
		li, ri, err := gdk.Cross(l.Len(), r.Len())
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = li
		c.Vars[in.Rets[1]] = ri
		return nil

	case "algebra.sort":
		// Args: key columns, the per-key DESC flags, then an optional bound.
		args, limit := in.Args, -1
		if last := args[len(args)-1]; !last.IsVar() && last.Aux == nil {
			b, err := c.scalarInt(last)
			if err != nil {
				return err
			}
			args, limit = args[:len(args)-1], int(b)
		}
		descs := args[len(args)-1].Aux.([]bool)
		keys := make([]*bat.BAT, 0, len(args)-1)
		for _, a := range args[:len(args)-1] {
			b, err := c.batVar(a)
			if err != nil {
				return err
			}
			keys = append(keys, b)
		}
		specs := make([]gdk.SortSpec, len(descs))
		for i, d := range descs {
			specs[i] = gdk.SortSpec{Desc: d}
		}
		idx, err := gdk.OrderIdx(keys, specs, limit)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = idx
		return nil

	case "bat.slice":
		b, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		lo, err := c.scalarInt(in.Args[1])
		if err != nil {
			return err
		}
		hi, err := c.scalarInt(in.Args[2])
		if err != nil {
			return err
		}
		if lo < 0 {
			lo = 0
		}
		if lo > int64(b.Len()) {
			lo = int64(b.Len())
		}
		if hi > int64(b.Len()) || hi < 0 {
			hi = int64(b.Len())
		}
		if hi < lo {
			hi = lo
		}
		c.Vars[in.Rets[0]] = b.Slice(int(lo), int(hi))
		return nil

	case "bat.mirror":
		// The dense position range of a column: every row, in order.
		b, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = bat.NewVoid(0, b.Len())
		return nil

	case "bat.concat":
		l, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		r, err := c.batVar(in.Args[1])
		if err != nil {
			return err
		}
		kind := in.Args[2].Aux.(types.Kind)
		out := bat.New(kind, l.Len()+r.Len())
		for _, src := range []*bat.BAT{l, r} {
			for i := 0; i < src.Len(); i++ {
				v := src.Get(i)
				if v.IsNull() {
					out.AppendNull()
					continue
				}
				cv, err := v.Cast(kind)
				if err != nil {
					return err
				}
				if err := out.Append(cv); err != nil {
					return err
				}
			}
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "group.group":
		// First argument is the candidate list (nil = all rows), the rest
		// are the key columns.
		cand, err := c.candOf(in.Args[0])
		if err != nil {
			return err
		}
		keys := make([]*bat.BAT, len(in.Args)-1)
		for i, a := range in.Args[1:] {
			b, err := c.batVar(a)
			if err != nil {
				return err
			}
			keys[i] = b
		}
		res, err := gdk.Group(keys, cand)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = res.GIDs
		c.Vars[in.Rets[1]] = res.Extents
		c.Vars[in.Rets[2]] = types.Int(int64(res.N))
		return nil

	case "aggr.sub":
		vals, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		gids, err := c.batVar(in.Args[1])
		if err != nil {
			return err
		}
		ng, err := c.scalarInt(in.Args[2])
		if err != nil {
			return err
		}
		agg := in.Args[3].Aux.(gdk.AggKind)
		var cand *bat.BAT
		if len(in.Args) > 4 {
			if cand, err = c.candOf(in.Args[4]); err != nil {
				return err
			}
		}
		out, err := gdk.SubAggr(agg, vals, gids, int(ng), cand)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "batcalc.bin":
		return c.execBin(in)

	case "batcalc.un":
		op := in.Args[0].Aux.(string)
		n, err := c.rowCount(in.Args[1:2])
		if err != nil {
			return err
		}
		x, err := c.opnd(in.Args[1], n)
		if err != nil {
			return err
		}
		var cand *bat.BAT
		if len(in.Args) > 2 {
			if cand, err = c.candOf(in.Args[2]); err != nil {
				return err
			}
		}
		var out *bat.BAT
		switch op {
		case "-", "abs", "sqrt", "floor", "ceil", "exp", "log", "round", "sign":
			out, err = gdk.UnaryNum(op, x, cand)
		case "not":
			out, err = gdk.Not(x, cand)
		case "isnull":
			out, err = gdk.IsNull(x, cand)
		case "upper", "lower", "length":
			out, err = gdk.StrUnary(op, x, cand)
		default:
			return fmt.Errorf("unknown unary op %q", op)
		}
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "batcalc.ifthenelse":
		n, err := c.rowCount(in.Args)
		if err != nil {
			return err
		}
		cond, err := c.opnd(in.Args[0], n)
		if err != nil {
			return err
		}
		a, err := c.opnd(in.Args[1], n)
		if err != nil {
			return err
		}
		b, err := c.opnd(in.Args[2], n)
		if err != nil {
			return err
		}
		out, err := gdk.IfThenElse(cond, a, b, nil)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "batcalc.cast":
		kind := in.Args[0].Aux.(types.Kind)
		n, err := c.rowCount(in.Args[1:])
		if err != nil {
			return err
		}
		x, err := c.opnd(in.Args[1], n)
		if err != nil {
			return err
		}
		out, err := gdk.CastBAT(x, kind, nil)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	case "batcalc.substring":
		n, err := c.rowCount(in.Args[:3])
		if err != nil {
			return err
		}
		x, err := c.opnd(in.Args[0], n)
		if err != nil {
			return err
		}
		from, err := c.opnd(in.Args[1], n)
		if err != nil {
			return err
		}
		forO, err := c.opnd(in.Args[2], n)
		if err != nil {
			return err
		}
		var cand *bat.BAT
		if len(in.Args) > 3 {
			if cand, err = c.candOf(in.Args[3]); err != nil {
				return err
			}
		}
		out, err := gdk.Substring(x, from, forO, cand)
		if err != nil {
			return err
		}
		c.Vars[in.Rets[0]] = out
		return nil

	default:
		return fmt.Errorf("unknown MAL instruction")
	}
}

func (c *Ctx) execBin(in *Instr) error {
	op := in.Args[0].Aux.(string)
	n, err := c.rowCount(in.Args[1:3])
	if err != nil {
		return err
	}
	l, err := c.opnd(in.Args[1], n)
	if err != nil {
		return err
	}
	r, err := c.opnd(in.Args[2], n)
	if err != nil {
		return err
	}
	// Optional trailing candidate list: operands are base-aligned, the
	// kernel restricts them and produces a candidate-aligned result.
	var cand *bat.BAT
	if len(in.Args) > 3 {
		if cand, err = c.candOf(in.Args[3]); err != nil {
			return err
		}
	}
	var out *bat.BAT
	switch op {
	case "+", "-", "*", "/", "%":
		out, err = gdk.Arith(op, l, r, cand)
	case "=", "<>", "<", "<=", ">", ">=":
		out, err = gdk.Compare(op, l, r, cand)
	case "AND":
		out, err = gdk.And(l, r, cand)
	case "OR":
		out, err = gdk.Or(l, r, cand)
	case "||":
		out, err = gdk.Concat(l, r, cand)
	case "like":
		out, err = gdk.Like(l, r, cand)
	case "pow":
		out, err = gdk.Power(l, r, cand)
	default:
		return fmt.Errorf("unknown binary op %q", op)
	}
	if err != nil {
		return err
	}
	c.Vars[in.Rets[0]] = out
	return nil
}
