package mal

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// Ctx is the interpreter state: the variable store and the run's job,
// which every kernel call receives.
type Ctx struct {
	Vars []any    // *bat.BAT or types.Value
	job  *par.Job // nil: default shape, the run cannot be cancelled
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
		return c.set(in, b, err)

	case "array.filler":
		cnt, err := c.scalarInt(in.Args[0])
		if err != nil {
			return err
		}
		kind := in.Args[2].Aux.(types.Kind)
		b, err := bat.Filler(c.job, int(cnt), in.Args[1].Const, kind)
		return c.set(in, b, err)

	case "array.fillerlike":
		ref, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		kind := in.Args[2].Aux.(types.Kind)
		b, err := bat.Filler(c.job, ref.Len(), in.Args[1].Const, kind)
		return c.set(in, b, err)

	case "array.slab":
		a := in.Args[0].Aux.(*catalog.Array)
		lo := append([]int{}, in.Args[1].Aux.([]int)...)
		hi := append([]int{}, in.Args[2].Aux.([]int)...)
		out, err := gdk.SlabCandidates(a.Shape, lo, hi)
		return c.set(in, out, err)

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
		out, err := gdk.CellFetch(c.job, attr, sh, coords)
		return c.set(in, out, err)

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
		out, err := gdk.Shift(c.job, attr, sh, offs, cand)
		return c.set(in, out, err)

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
			out, err = gdk.TileAggSAT(c.job, agg, vals, sh, tile)
		} else {
			out, err = gdk.TileAgg(c.job, agg, vals, sh, tile)
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
		out, err := gdk.Project(c.job, idx, b)
		return c.set(in, out, err)

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
		out, err := gdk.SelectBool(c.job, cond, cand)
		return c.set(in, out, err)

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
		out, err := gdk.ThetaSelect(c.job, b, cand, in.Args[2].Const, op)
		return c.set(in, out, err)

	case "algebra.rangeselect":
		b, err := c.batVar(in.Args[0])
		if err != nil {
			return err
		}
		cand, err := c.candOf(in.Args[1])
		if err != nil {
			return err
		}
		out, err := gdk.RangeSelect(c.job, b, cand, in.Args[2].Const, in.Args[3].Const)
		return c.set(in, out, err)

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
			li, ri, err = gdk.LeftJoin(c.job, lkeys, rkeys, lcand, rcand)
		} else {
			li, ri, err = gdk.HashJoin(c.job, lkeys, rkeys, lcand, rcand)
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
		li, ri, err := gdk.Cross(c.job, l.Len(), r.Len())
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
		idx, err := gdk.OrderIdx(c.job, keys, specs, limit)
		return c.set(in, idx, err)

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
		res, err := gdk.Group(c.job, keys, cand)
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
		out, err := gdk.SubAggr(c.job, agg, vals, gids, int(ng), cand)
		return c.set(in, out, err)

	case "batcalc.bin":
		o, cand, err := c.calcOpnds(in.Args[1:], 2)
		if err != nil {
			return err
		}
		out, err := gdk.Bin(c.job, in.Args[0].Aux.(string), o[0], o[1], cand)
		return c.set(in, out, err)

	case "batcalc.un":
		o, cand, err := c.calcOpnds(in.Args[1:], 1)
		if err != nil {
			return err
		}
		out, err := gdk.Un(c.job, in.Args[0].Aux.(string), o[0], cand)
		return c.set(in, out, err)

	case "batcalc.ifthenelse":
		o, cand, err := c.calcOpnds(in.Args, 3)
		if err != nil {
			return err
		}
		out, err := gdk.IfThenElse(c.job, o[0], o[1], o[2], cand)
		return c.set(in, out, err)

	case "batcalc.cast":
		o, cand, err := c.calcOpnds(in.Args[1:], 1)
		if err != nil {
			return err
		}
		out, err := gdk.CastBAT(c.job, o[0], in.Args[0].Aux.(types.Kind), cand)
		return c.set(in, out, err)

	case "batcalc.substring":
		o, cand, err := c.calcOpnds(in.Args, 3)
		if err != nil {
			return err
		}
		out, err := gdk.Substring(c.job, o[0], o[1], o[2], cand)
		return c.set(in, out, err)

	default:
		return fmt.Errorf("unknown MAL instruction")
	}
}

// calcOpnds resolves a calculator instruction's first n arguments to
// operands at the row count of the first BAT among them, and the optional
// candidate list after them: operands are base-aligned, the kernel
// restricts them and produces a candidate-aligned result.
func (c *Ctx) calcOpnds(args []Arg, n int) ([]gdk.Opnd, *bat.BAT, error) {
	rows, err := c.rowCount(args[:n])
	if err != nil {
		return nil, nil, err
	}
	o := make([]gdk.Opnd, n)
	for i := range o {
		if o[i], err = c.opnd(args[i], rows); err != nil {
			return nil, nil, err
		}
	}
	var cand *bat.BAT
	if len(args) > n {
		cand, err = c.candOf(args[n])
	}
	return o, cand, err
}

// set stores a kernel's result column in the instruction's return
// variable.
func (c *Ctx) set(in *Instr, out *bat.BAT, err error) error {
	if err != nil {
		return err
	}
	c.Vars[in.Rets[0]] = out
	return nil
}
