package mal

import (
	"fmt"
	"math/bits"
	"unsafe"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// Ctx is the interpreter state: the variable store, the run's job, which
// every kernel call receives, and the run's free list.
type Ctx struct {
	Vars []any // *bat.BAT or types.Value
	job  *par.Job
	free par.Free
}

// release drops the variables whose last use is instruction in, the i-th,
// from Vars and hands the storage of each dead column back to the free
// list — which keeps it only if it handed it out — unless a live variable
// still shares it: a view, a pass-through or a result. Every variable an
// instruction uses is among its arguments and results.
func (c *Ctx) release(in *Instr, i int32, lastUse []int32) {
	var buf [8]*bat.BAT
	dead := buf[:0]
	drop := func(v int) {
		if v < 0 || lastUse[v] != i {
			return
		}
		if b, ok := c.Vars[v].(*bat.BAT); ok {
			dead = append(dead, b)
		}
		c.Vars[v] = nil
	}
	for _, v := range in.Rets {
		drop(v)
	}
	for j := range in.Args {
		drop(in.Args[j].Var)
	}
	for _, b := range dead {
		if p, _ := b.Span(); p != nil {
			if size, ok := c.free.Extent(p); ok && !c.shared(p, size) {
				c.free.Put(p)
			}
		}
	}
}

// shared reports whether the storage of a live variable overlaps the size
// bytes at p. Sharing is judged by address range, not by BAT identity, so
// a slice of a column and a column wrapping another's slice count.
func (c *Ctx) shared(p unsafe.Pointer, size uintptr) bool {
	lo, hi := uintptr(p), uintptr(p)+size
	for _, v := range c.Vars {
		if b, ok := v.(*bat.BAT); ok {
			if q, n := b.Span(); q != nil && uintptr(q) < hi && lo < uintptr(q)+n {
				return true
			}
		}
	}
	return false
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

// handler resolves an instruction to the interpreter method that runs
// it, nil for an unknown one (see link).
func handler(module, fn string) func(*Ctx, *Instr) error {
	switch module {
	case "sql":
		switch fn {
		case "tablecand":
			return (*Ctx).sqlTablecand
		case "bind":
			return (*Ctx).sqlBind
		}
	case "array":
		switch fn {
		case "binddim":
			return (*Ctx).arrayBinddim
		case "bindattr":
			return (*Ctx).arrayBindattr
		case "series":
			return (*Ctx).arraySeries
		case "filler":
			return (*Ctx).arrayFiller
		case "fillerlike":
			return (*Ctx).arrayFillerlike
		case "slab":
			return (*Ctx).arraySlab
		case "cellfetch":
			return (*Ctx).arrayCellfetch
		case "shift":
			return (*Ctx).arrayShift
		case "tileagg", "tileaggsat":
			return (*Ctx).arrayTileagg
		}
	case "algebra":
		switch fn {
		case "projection":
			return (*Ctx).algebraProjection
		case "boolselect":
			return (*Ctx).algebraBoolselect
		case "thetaselect":
			return (*Ctx).algebraThetaselect
		case "rangeselect":
			return (*Ctx).algebraRangeselect
		case "emptycand":
			return (*Ctx).algebraEmptycand
		case "candand", "candor":
			return (*Ctx).algebraCand
		case "join", "leftjoin", "mergejoin":
			return (*Ctx).algebraJoin
		case "crossproduct":
			return (*Ctx).algebraCrossproduct
		case "sort":
			return (*Ctx).algebraSort
		}
	case "bat":
		switch fn {
		case "slice":
			return (*Ctx).batSlice
		case "mirror":
			return (*Ctx).batMirror
		case "concat":
			return (*Ctx).batConcat
		}
	case "group":
		switch fn {
		case "group":
			return (*Ctx).groupGroup
		}
	case "aggr":
		switch fn {
		case "sub":
			return (*Ctx).aggrSub
		}
	case "batcalc":
		switch fn {
		case "bin":
			return (*Ctx).batcalcBin
		case "un":
			return (*Ctx).batcalcUn
		case "ifthenelse":
			return (*Ctx).batcalcIfthenelse
		case "cast":
			return (*Ctx).batcalcCast
		case "substring":
			return (*Ctx).batcalcSubstring
		}
	}
	return nil
}

// sqlTablecand lists a table's live rows: a dense run when none is
// deleted, otherwise the positions its deletion mask leaves clear.
func (c *Ctx) sqlTablecand(in *Instr) error {
	t := in.Args[0].Aux.(*catalog.Table)
	n := t.PhysRows()
	if t.Deleted == nil || !t.Deleted.Any() {
		c.Vars[in.Rets[0]] = bat.NewVoid(0, n)
		return nil
	}
	b := bat.FromOIDs(liveRows(n, t.Deleted))
	b.Sorted, b.Key = true, true
	c.Vars[in.Rets[0]] = b
	return nil
}

// liveRows returns the positions below n whose bit in deleted is clear,
// a word of the mask at a time: a word of deleted rows costs one test, and
// a live row one trailing-zero count.
func liveRows(n int, deleted *bat.Bitmap) []int64 {
	live := make([]int64, 0, max(n-deleted.Count(), 0))
	for w := 0; w<<6 < n; w++ {
		keep := ^deleted.Word(w)
		if rest := n - w<<6; rest < 64 {
			keep &= 1<<rest - 1
		}
		for ; keep != 0; keep &= keep - 1 {
			live = append(live, int64(w<<6+bits.TrailingZeros64(keep)))
		}
	}
	return live
}

func (c *Ctx) sqlBind(in *Instr) error {
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
}

func (c *Ctx) arrayBinddim(in *Instr) error {
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
}

func (c *Ctx) arrayBindattr(in *Instr) error {
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
}

func (c *Ctx) arraySeries(in *Instr) error {
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
}

func (c *Ctx) arrayFiller(in *Instr) error {
	cnt, err := c.scalarInt(in.Args[0])
	if err != nil {
		return err
	}
	kind := in.Args[2].Aux.(types.Kind)
	b, err := bat.Filler(c.job, int(cnt), in.Args[1].Const, kind)
	return c.set(in, b, err)
}

func (c *Ctx) arrayFillerlike(in *Instr) error {
	ref, err := c.batVar(in.Args[0])
	if err != nil {
		return err
	}
	kind := in.Args[2].Aux.(types.Kind)
	b, err := bat.Filler(c.job, ref.Len(), in.Args[1].Const, kind)
	return c.set(in, b, err)
}

func (c *Ctx) arraySlab(in *Instr) error {
	a := in.Args[0].Aux.(*catalog.Array)
	lo := append([]int{}, in.Args[1].Aux.([]int)...)
	hi := append([]int{}, in.Args[2].Aux.([]int)...)
	out, err := gdk.SlabCandidates(a.Shape, lo, hi)
	return c.set(in, out, err)
}

func (c *Ctx) arrayCellfetch(in *Instr) error {
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
}

func (c *Ctx) arrayShift(in *Instr) error {
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
}

func (c *Ctx) arrayTileagg(in *Instr) error {
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
}

func (c *Ctx) algebraProjection(in *Instr) error {
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
}

func (c *Ctx) algebraBoolselect(in *Instr) error {
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
}

func (c *Ctx) algebraThetaselect(in *Instr) error {
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
}

func (c *Ctx) algebraRangeselect(in *Instr) error {
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
}

func (c *Ctx) algebraEmptycand(in *Instr) error {
	// The optimizer proved the predicate empty from column statistics.
	b := bat.FromOIDs([]int64{})
	b.Sorted, b.Key = true, true
	c.Vars[in.Rets[0]] = b
	return nil
}

func (c *Ctx) algebraCand(in *Instr) error {
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
}

func (c *Ctx) algebraJoin(in *Instr) error {
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
}

func (c *Ctx) algebraCrossproduct(in *Instr) error {
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
}

func (c *Ctx) algebraSort(in *Instr) error {
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
}

func (c *Ctx) batSlice(in *Instr) error {
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
}

func (c *Ctx) batMirror(in *Instr) error {
	// The dense position range of a column: every row, in order.
	b, err := c.batVar(in.Args[0])
	if err != nil {
		return err
	}
	c.Vars[in.Rets[0]] = bat.NewVoid(0, b.Len())
	return nil
}

func (c *Ctx) batConcat(in *Instr) error {
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
}

func (c *Ctx) groupGroup(in *Instr) error {
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
}

func (c *Ctx) aggrSub(in *Instr) error {
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
}

func (c *Ctx) batcalcBin(in *Instr) error {
	o, cand, err := c.calcOpnds(in.Args[1:], 2)
	if err != nil {
		return err
	}
	out, err := gdk.Bin(c.job, in.Args[0].Aux.(string), o[0], o[1], cand)
	return c.set(in, out, err)
}

func (c *Ctx) batcalcUn(in *Instr) error {
	o, cand, err := c.calcOpnds(in.Args[1:], 1)
	if err != nil {
		return err
	}
	out, err := gdk.Un(c.job, in.Args[0].Aux.(string), o[0], cand)
	return c.set(in, out, err)
}

func (c *Ctx) batcalcIfthenelse(in *Instr) error {
	o, cand, err := c.calcOpnds(in.Args, 3)
	if err != nil {
		return err
	}
	out, err := gdk.IfThenElse(c.job, o[0], o[1], o[2], cand)
	return c.set(in, out, err)
}

func (c *Ctx) batcalcCast(in *Instr) error {
	o, cand, err := c.calcOpnds(in.Args[1:], 1)
	if err != nil {
		return err
	}
	out, err := gdk.CastBAT(c.job, o[0], in.Args[0].Aux.(types.Kind), cand)
	return c.set(in, out, err)
}

func (c *Ctx) batcalcSubstring(in *Instr) error {
	o, cand, err := c.calcOpnds(in.Args, 3)
	if err != nil {
		return err
	}
	out, err := gdk.Substring(c.job, o[0], o[1], o[2], cand)
	return c.set(in, out, err)
}

// calcOpnds resolves a calculator instruction's first n (at most three)
// arguments to operands at the row count of the first BAT among them, and
// the optional candidate list after them: operands are base-aligned, the
// kernel restricts them and produces a candidate-aligned result.
func (c *Ctx) calcOpnds(args []Arg, n int) (o [3]gdk.Opnd, cand *bat.BAT, err error) {
	rows, err := c.rowCount(args[:n])
	if err != nil {
		return o, nil, err
	}
	for i := range n {
		if o[i], err = c.opnd(args[i], rows); err != nil {
			return o, nil, err
		}
	}
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
