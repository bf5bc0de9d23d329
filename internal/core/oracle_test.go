package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/gdk"
	"repro/internal/rel"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/types"
)

// The statement-level oracle. refEval evaluates the bound, unoptimized
// plan of a SELECT one row at a time: evalRow (below) per row, a
// nested-loop join that applies each WHERE conjunct as soon as its
// columns are bound, map-based grouping, sort.SliceStable for ORDER BY.
// It shares the binder with the engine and nothing after it — no
// rel.Optimize, constant folding, MAL or GDK, and no expression code — so
// a bug in a fast path (zonemap, binary search, merge join, run grouping,
// candidate chains, join ordering) or in a folded constant shows as a
// difference here even when every fast path agrees with every other.
// TestOracleRandomSelect runs seeded random SELECTs through the full
// pipeline at 1, 2 and 8 threads against it; a failure prints the seed
// and the SQL.

// errRefTooBig marks a statement whose nested-loop evaluation would touch
// more rows than the oracle is willing to enumerate.
var errRefTooBig = errors.New("reference: statement too large to enumerate")

// refBudget caps the rows a join of a generated statement may visit or
// produce; larger statements are skipped and redrawn.
const refBudget = 60_000

// refEval evaluates a bound plan to its rows.
func refEval(n rel.Node, budget int) ([][]types.Value, error) {
	switch x := n.(type) {
	case *rel.ScanDual:
		return [][]types.Value{{types.Bool(true)}}, nil
	case *rel.ScanTable:
		var rows [][]types.Value
		for i := 0; i < x.T.PhysRows(); i++ {
			if x.T.Deleted.Get(i) {
				continue
			}
			row := make([]types.Value, len(x.T.Bats))
			for c, b := range x.T.Bats {
				row[c] = b.Get(i)
			}
			rows = append(rows, row)
		}
		return rows, nil
	case *rel.ScanArray:
		if x.Sliced() {
			return nil, fmt.Errorf("reference: slab-restricted scan in an unoptimized plan")
		}
		// One row per cell: dimension values, then attributes.
		sh := x.A.Shape
		rows := make([][]types.Value, sh.Cells())
		coords := make([]int64, len(sh))
		for p := range rows {
			sh.Coords(p, coords)
			row := make([]types.Value, 0, len(sh)+len(x.A.AttrBats))
			for _, c := range coords {
				row = append(row, types.Int(c))
			}
			for _, b := range x.A.AttrBats {
				row = append(row, b.Get(p))
			}
			rows[p] = row
		}
		return rows, nil
	case *rel.Filter:
		leaves, width := crossLeaves(x.Child)
		return refJoinLeaves(leaves, width, conjuncts(x.Pred), budget)
	case *rel.Join:
		if x.Cross {
			leaves, width := crossLeaves(x)
			return refJoinLeaves(leaves, width, nil, budget)
		}
		return refEquiJoin(x, budget)
	case *rel.Project:
		rows, err := refEval(x.Child, budget)
		if err != nil {
			return nil, err
		}
		out := make([][]types.Value, len(rows))
		for i, row := range rows {
			if out[i], err = evalAll(x.Exprs, row); err != nil {
				return nil, err
			}
		}
		return out, nil
	case *rel.GroupAgg:
		rows, err := refEval(x.Child, budget)
		if err != nil {
			return nil, err
		}
		return refGroupAgg(x, rows)
	case *rel.Sort:
		rows, err := refEval(x.Child, budget)
		if err != nil {
			return nil, err
		}
		keys := make([][]types.Value, len(rows))
		for i, row := range rows {
			if keys[i], err = evalAll(x.Keys, row); err != nil {
				return nil, err
			}
		}
		idx := make([]int, len(rows))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			for k := range x.Keys {
				c := refCompare(keys[idx[a]][k], keys[idx[b]][k])
				if x.Desc[k] {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		out := make([][]types.Value, len(rows))
		for i, j := range idx {
			out[i] = rows[j]
		}
		return out, nil
	case *rel.Limit:
		rows, err := refEval(x.Child, budget)
		if err != nil {
			return nil, err
		}
		lo := min(int(x.Offset), len(rows))
		hi := len(rows)
		if x.Count >= 0 {
			hi = min(lo+int(x.Count), hi)
		}
		return rows[lo:hi], nil
	case *rel.Distinct:
		rows, err := refEval(x.Child, budget)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		var out [][]types.Value
		for _, row := range rows {
			if k := refKey(row); !seen[k] {
				seen[k] = true
				out = append(out, row)
			}
		}
		return out, nil
	case *rel.UnionAll:
		l, err := refEval(x.L, budget)
		if err != nil {
			return nil, err
		}
		r, err := refEval(x.R, budget)
		if err != nil {
			return nil, err
		}
		return append(l, r...), nil
	}
	return nil, fmt.Errorf("reference: cannot evaluate %T", n)
}

// getter reads the columns of one row for evalRow.
func getter(row []types.Value) func(int) (types.Value, error) {
	return func(i int) (types.Value, error) { return row[i], nil }
}

// evalAll evaluates each expression over one row.
func evalAll(exprs []rel.Expr, row []types.Value) ([]types.Value, error) {
	out := make([]types.Value, len(exprs))
	for i, e := range exprs {
		v, err := evalRow(e, getter(row))
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// evalRow is the reference's expression evaluator: a bound expression
// over one boxed row, get returning the value of column ordinal i. It
// shares no code with the engine, which evaluates and folds every
// expression through the gdk kernels; it is written to the semantics the
// kernels document (three-valued logic, NULL propagation, truncating
// integer division, division-by-zero errors, the CAST rules of
// types.Value.Cast) one row at a time.
func evalRow(e rel.Expr, get func(int) (types.Value, error)) (types.Value, error) {
	switch x := e.(type) {
	case *rel.Const:
		return x.Val, nil
	case *rel.Col:
		if get == nil {
			return types.Value{}, fmt.Errorf("expression is not constant: references column %s", x)
		}
		return get(x.Idx)
	case *rel.Bin:
		return evalBin(x, get)
	case *rel.Un:
		return evalUn(x, get)
	case *rel.IfElse:
		c, err := evalRow(x.Cond, get)
		if err != nil {
			return types.Value{}, err
		}
		if !c.IsNull() && c.BoolVal() {
			v, err := evalRow(x.Then, get)
			if err != nil {
				return types.Value{}, err
			}
			return refCastTo(v, x.K)
		}
		v, err := evalRow(x.Else, get)
		if err != nil {
			return types.Value{}, err
		}
		return refCastTo(v, x.K)
	case *rel.Cast:
		v, err := evalRow(x.X, get)
		if err != nil {
			return types.Value{}, err
		}
		return v.Cast(x.To)
	case *rel.Substr:
		return evalSubstr(x, get)
	case *rel.CellFetch:
		if get == nil {
			return types.Value{}, fmt.Errorf("expression is not constant: contains a cell reference")
		}
		coords := make([]int64, len(x.Coords))
		for i, c := range x.Coords {
			v, err := evalRow(c, get)
			if err != nil {
				return types.Value{}, err
			}
			if v.IsNull() {
				return types.Null(x.Kind()), nil
			}
			iv, err := v.AsInt()
			if err != nil {
				return types.Value{}, err
			}
			coords[i] = iv
		}
		p, ok := x.A.Shape.Pos(coords)
		if !ok {
			return types.Null(x.Kind()), nil
		}
		return x.A.AttrBats[x.AttrIdx].Get(p), nil
	default:
		return types.Value{}, fmt.Errorf("cannot evaluate %T", e)
	}
}

func refCastTo(v types.Value, k types.Kind) (types.Value, error) {
	if v.IsNull() {
		return types.Null(k), nil
	}
	if v.Kind() == k {
		return v, nil
	}
	return v.Cast(k)
}

func evalBin(x *rel.Bin, get func(int) (types.Value, error)) (types.Value, error) {
	// AND/OR need lazy three-valued evaluation.
	if x.Op == "AND" || x.Op == "OR" {
		l, err := evalRow(x.L, get)
		if err != nil {
			return types.Value{}, err
		}
		r, err := evalRow(x.R, get)
		if err != nil {
			return types.Value{}, err
		}
		ln, rn := l.IsNull(), r.IsNull()
		lv := !ln && l.BoolVal()
		rv := !rn && r.BoolVal()
		if x.Op == "AND" {
			if (!ln && !lv) || (!rn && !rv) {
				return types.Bool(false), nil
			}
			if ln || rn {
				return types.Null(types.KindBool), nil
			}
			return types.Bool(true), nil
		}
		if lv || rv {
			return types.Bool(true), nil
		}
		if ln || rn {
			return types.Null(types.KindBool), nil
		}
		return types.Bool(false), nil
	}
	l, err := evalRow(x.L, get)
	if err != nil {
		return types.Value{}, err
	}
	r, err := evalRow(x.R, get)
	if err != nil {
		return types.Value{}, err
	}
	switch x.Op {
	case "+", "-", "*", "/", "%":
		if l.IsNull() || r.IsNull() {
			return types.Null(x.K), nil
		}
		if x.K == types.KindFloat {
			a, err := l.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			bf, err := r.AsFloat()
			if err != nil {
				return types.Value{}, err
			}
			switch x.Op {
			case "+":
				return types.Float(a + bf), nil
			case "-":
				return types.Float(a - bf), nil
			case "*":
				return types.Float(a * bf), nil
			case "/":
				if bf == 0 {
					return types.Value{}, fmt.Errorf("division by zero")
				}
				return types.Float(a / bf), nil
			case "%":
				if bf == 0 {
					return types.Value{}, fmt.Errorf("modulo by zero")
				}
				return types.Float(math.Mod(a, bf)), nil
			}
		}
		a, err := l.AsInt()
		if err != nil {
			return types.Value{}, err
		}
		bi, err := r.AsInt()
		if err != nil {
			return types.Value{}, err
		}
		switch x.Op {
		case "+":
			return types.Int(a + bi), nil
		case "-":
			return types.Int(a - bi), nil
		case "*":
			return types.Int(a * bi), nil
		case "/":
			if bi == 0 {
				return types.Value{}, fmt.Errorf("division by zero")
			}
			return types.Int(a / bi), nil
		case "%":
			if bi == 0 {
				return types.Value{}, fmt.Errorf("modulo by zero")
			}
			return types.Int(a % bi), nil
		}
	case "=", "<>", "<", "<=", ">", ">=":
		if l.IsNull() || r.IsNull() {
			return types.Null(types.KindBool), nil
		}
		c := l.Compare(r)
		switch x.Op {
		case "=":
			return types.Bool(c == 0), nil
		case "<>":
			return types.Bool(c != 0), nil
		case "<":
			return types.Bool(c < 0), nil
		case "<=":
			return types.Bool(c <= 0), nil
		case ">":
			return types.Bool(c > 0), nil
		case ">=":
			return types.Bool(c >= 0), nil
		}
	case "||":
		if l.IsNull() || r.IsNull() {
			return types.Null(types.KindStr), nil
		}
		return types.Str(l.StrVal() + r.StrVal()), nil
	case "like":
		if l.IsNull() || r.IsNull() {
			return types.Null(types.KindBool), nil
		}
		return types.Bool(likeScalar(l.StrVal(), r.StrVal())), nil
	case "pow":
		if l.IsNull() || r.IsNull() {
			return types.Null(types.KindFloat), nil
		}
		a, err := l.AsFloat()
		if err != nil {
			return types.Value{}, err
		}
		bf, err := r.AsFloat()
		if err != nil {
			return types.Value{}, err
		}
		return types.Float(math.Pow(a, bf)), nil
	}
	return types.Value{}, fmt.Errorf("cannot evaluate operator %q", x.Op)
}

func evalUn(x *rel.Un, get func(int) (types.Value, error)) (types.Value, error) {
	v, err := evalRow(x.X, get)
	if err != nil {
		return types.Value{}, err
	}
	if x.Op == "isnull" {
		return types.Bool(v.IsNull()), nil
	}
	if v.IsNull() {
		return types.Null(x.K), nil
	}
	switch x.Op {
	case "-":
		if v.Kind() == types.KindFloat {
			return types.Float(-v.Float64()), nil
		}
		iv, err := v.AsInt()
		if err != nil {
			return types.Value{}, err
		}
		return types.Int(-iv), nil
	case "not":
		return types.Bool(!v.BoolVal()), nil
	case "abs":
		if v.Kind() == types.KindFloat {
			return types.Float(math.Abs(v.Float64())), nil
		}
		iv, err := v.AsInt()
		if err != nil {
			return types.Value{}, err
		}
		if iv < 0 {
			iv = -iv
		}
		return types.Int(iv), nil
	case "sqrt", "floor", "ceil", "exp", "log", "round":
		f, err := v.AsFloat()
		if err != nil {
			return types.Value{}, err
		}
		switch x.Op {
		case "sqrt":
			if f < 0 {
				return types.Value{}, fmt.Errorf("sqrt of negative value %v", f)
			}
			return types.Float(math.Sqrt(f)), nil
		case "floor":
			return types.Float(math.Floor(f)), nil
		case "ceil":
			return types.Float(math.Ceil(f)), nil
		case "exp":
			return types.Float(math.Exp(f)), nil
		case "log":
			if f <= 0 {
				return types.Value{}, fmt.Errorf("log of non-positive value %v", f)
			}
			return types.Float(math.Log(f)), nil
		case "round":
			return types.Float(math.Round(f)), nil
		}
	case "sign":
		f, err := v.AsFloat()
		if err != nil {
			return types.Value{}, err
		}
		switch {
		case f > 0:
			return types.Int(1), nil
		case f < 0:
			return types.Int(-1), nil
		default:
			return types.Int(0), nil
		}
	case "upper":
		return types.Str(strings.ToUpper(v.StrVal())), nil
	case "lower":
		return types.Str(strings.ToLower(v.StrVal())), nil
	case "length":
		return types.Int(int64(len(v.StrVal()))), nil
	}
	return types.Value{}, fmt.Errorf("cannot evaluate unary %q", x.Op)
}

func evalSubstr(x *rel.Substr, get func(int) (types.Value, error)) (types.Value, error) {
	v, err := evalRow(x.X, get)
	if err != nil {
		return types.Value{}, err
	}
	fromV, err := evalRow(x.From, get)
	if err != nil {
		return types.Value{}, err
	}
	forV, err := evalRow(x.For, get)
	if err != nil {
		return types.Value{}, err
	}
	if v.IsNull() || fromV.IsNull() || forV.IsNull() {
		return types.Null(types.KindStr), nil
	}
	s := v.StrVal()
	fi, err := fromV.AsInt()
	if err != nil {
		return types.Value{}, err
	}
	li, err := forV.AsInt()
	if err != nil {
		return types.Value{}, err
	}
	from := int(fi) - 1
	if from < 0 {
		from = 0
	}
	if from > len(s) {
		from = len(s)
	}
	to := from + int(li)
	if to < from {
		to = from
	}
	if to > len(s) {
		to = len(s)
	}
	return types.Str(s[from:to]), nil
}

// likeScalar matches the same greedy algorithm as the gdk Like kernel.
func likeScalar(s, pattern string) bool {
	sr, pr := []rune(s), []rune(pattern)
	var si, pi int
	star, mark := -1, 0
	for si < len(sr) {
		switch {
		case pi < len(pr) && (pr[pi] == '_' || pr[pi] == sr[si]):
			si++
			pi++
		case pi < len(pr) && pr[pi] == '%':
			star = pi
			mark = si
			pi++
		case star >= 0:
			pi = star + 1
			mark++
			si = mark
		default:
			return false
		}
	}
	for pi < len(pr) && pr[pi] == '%' {
		pi++
	}
	return pi == len(pr)
}

// crossLeaves flattens a tree of cross joins into its inputs, left to
// right, and returns the combined width.
func crossLeaves(n rel.Node) ([]rel.Node, int) {
	if j, ok := n.(*rel.Join); ok && j.Cross && !j.LeftOuter && j.Residual == nil {
		l, lw := crossLeaves(j.L)
		r, rw := crossLeaves(j.R)
		return append(l, r...), lw + rw
	}
	return []rel.Node{n}, len(n.Schema())
}

// conjuncts splits a predicate at its top-level ANDs.
func conjuncts(e rel.Expr) []rel.Expr {
	if b, ok := e.(*rel.Bin); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []rel.Expr{e}
}

// holds reports whether a predicate is true (not false, not NULL) on row.
func holds(pred rel.Expr, row []types.Value) (bool, error) {
	v, err := evalRow(pred, getter(row))
	if err != nil {
		return false, err
	}
	return !v.IsNull() && v.BoolVal(), nil
}

// refJoinLeaves is the nested-loop join of the leaves, filtered by the
// conjuncts. Each conjunct is tested at the first leaf that binds every
// column it reads, so unselective prefixes are pruned early.
func refJoinLeaves(leaves []rel.Node, width int, preds []rel.Expr, budget int) ([][]types.Value, error) {
	inputs := make([][][]types.Value, len(leaves))
	ends := make([]int, len(leaves)) // combined width after each leaf
	off := 0
	for i, l := range leaves {
		rows, err := refEval(l, budget)
		if err != nil {
			return nil, err
		}
		inputs[i] = rows
		off += len(l.Schema())
		ends[i] = off
	}
	at := make([][]rel.Expr, len(leaves))
	for _, p := range preds {
		last := 0
		for c := range rel.ColsUsed(p) {
			for last < len(ends)-1 && c >= ends[last] {
				last++
			}
		}
		at[last] = append(at[last], p)
	}
	var out [][]types.Value
	row := make([]types.Value, width)
	visited := 0
	var walk func(d, off int) error
	walk = func(d, off int) error {
		if d == len(leaves) {
			if len(out) >= budget {
				return errRefTooBig
			}
			out = append(out, slices.Clone(row))
			return nil
		}
	next:
		for _, lr := range inputs[d] {
			if visited++; visited > budget {
				return errRefTooBig
			}
			copy(row[off:], lr)
			for _, p := range at[d] {
				ok, err := holds(p, row)
				if err != nil {
					return err
				}
				if !ok {
					continue next
				}
			}
			if err := walk(d+1, off+len(lr)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := walk(0, 0); err != nil {
		return nil, err
	}
	return out, nil
}

// refEquiJoin is the nested-loop equi-join (JOIN ... ON): keys equal and
// non-NULL, residual true; LEFT JOIN pads unmatched left rows with NULLs.
func refEquiJoin(j *rel.Join, budget int) ([][]types.Value, error) {
	left, err := refEval(j.L, budget)
	if err != nil {
		return nil, err
	}
	right, err := refEval(j.R, budget)
	if err != nil {
		return nil, err
	}
	rkeys := make([][]types.Value, len(right))
	for i, r := range right {
		if rkeys[i], err = evalAll(j.RKeys, r); err != nil {
			return nil, err
		}
	}
	var out [][]types.Value
	for _, l := range left {
		lk, err := evalAll(j.LKeys, l)
		if err != nil {
			return nil, err
		}
		matched := false
		for i, r := range right {
			if len(out) >= budget {
				return nil, errRefTooBig
			}
			eq := true
			for k := range lk {
				if lk[k].IsNull() || rkeys[i][k].IsNull() || !lk[k].Equal(rkeys[i][k]) {
					eq = false
					break
				}
			}
			if !eq {
				continue
			}
			row := append(slices.Clone(l), r...)
			if j.Residual != nil {
				ok, err := holds(j.Residual, row)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			out = append(out, row)
			matched = true
		}
		if j.LeftOuter && !matched {
			row := slices.Clone(l)
			for _, c := range j.R.Schema() {
				row = append(row, types.Null(c.Kind))
			}
			out = append(out, row)
		}
	}
	return out, nil
}

// refAgg is one group's running state for one aggregate.
type refAgg struct {
	n        int64 // rows counted (non-NULL arguments, or all for COUNT(*))
	sumI     int64
	sumF     float64
	min, max types.Value
}

// refGroupAgg groups rows by the boxed key values (NULLs form one group)
// in first-occurrence order and folds each aggregate; with no keys it
// always yields exactly one row.
func refGroupAgg(g *rel.GroupAgg, rows [][]types.Value) ([][]types.Value, error) {
	var keys [][]types.Value
	var states [][]refAgg
	ids := map[string]int{}
	if len(g.Keys) == 0 {
		keys, states = [][]types.Value{nil}, [][]refAgg{make([]refAgg, len(g.Aggs))}
		ids[""] = 0
	}
	for _, row := range rows {
		kv, err := evalAll(g.Keys, row)
		if err != nil {
			return nil, err
		}
		id, ok := ids[refKey(kv)]
		if !ok {
			id = len(keys)
			ids[refKey(kv)] = id
			keys = append(keys, kv)
			states = append(states, make([]refAgg, len(g.Aggs)))
		}
		for a, spec := range g.Aggs {
			st := &states[id][a]
			if spec.Agg == gdk.AggCountAll {
				st.n++
				continue
			}
			v, err := evalRow(spec.Arg, getter(row))
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			if st.n == 0 || refCompare(v, st.min) < 0 {
				st.min = v
			}
			if st.n == 0 || refCompare(v, st.max) > 0 {
				st.max = v
			}
			st.n++
			if v.Kind() == types.KindFloat {
				st.sumF += v.Float64()
			} else if v.Kind().Numeric() {
				st.sumI += v.Int64()
			}
		}
	}
	out := make([][]types.Value, len(keys))
	for id, kv := range keys {
		row := slices.Clone(kv)
		for a, spec := range g.Aggs {
			st := states[id][a]
			var v types.Value
			switch {
			case spec.Agg == gdk.AggCount || spec.Agg == gdk.AggCountAll:
				v = types.Int(st.n)
			case st.n == 0:
				v = types.Null(spec.K)
			case spec.Agg == gdk.AggMin:
				v = st.min
			case spec.Agg == gdk.AggMax:
				v = st.max
			case spec.Agg == gdk.AggAvg && spec.Arg.Kind() == types.KindFloat:
				v = types.Float(st.sumF / float64(st.n))
			case spec.Agg == gdk.AggAvg:
				v = types.Float(float64(st.sumI) / float64(st.n))
			case spec.K == types.KindFloat:
				v = types.Float(st.sumF)
			default:
				v = types.Int(st.sumI)
			}
			row = append(row, v)
		}
		out[id] = row
	}
	return out, nil
}

// refCompare is Value.Compare (NULL first) with NaN above every number.
func refCompare(a, b types.Value) int {
	if !a.IsNull() && !b.IsNull() && a.Kind() == types.KindFloat && b.Kind() == types.KindFloat {
		an, bn := math.IsNaN(a.Float64()), math.IsNaN(b.Float64())
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		}
	}
	return a.Compare(b)
}

// refKey is a row as a map key: NULL one marker, a float its bits with
// -0.0 read as 0.0, anything else its kind and text.
func refKey(row []types.Value) string {
	var sb strings.Builder
	for _, v := range row {
		switch {
		case v.IsNull():
			sb.WriteString("N|")
		case v.Kind() == types.KindFloat:
			fmt.Fprintf(&sb, "F%x|", math.Float64bits(v.Float64()+0))
		default:
			fmt.Fprintf(&sb, "%s:%q|", v.Kind(), v.String())
		}
	}
	return sb.String()
}

// ---------------------------------------------------------------- oracle

// oracleDB is buildJoinOrderDB plus a small array with holes over a
// negative dimension range: x in [0,6), y in [-2,3), an int attribute and
// a float one that holds both -0.0 and 0.0, a third of the cells deleted.
func oracleDB(t testing.TB) *DB {
	db := buildJoinOrderDB(t)
	for _, q := range []string{
		`CREATE ARRAY grid (x INT DIMENSION[0:1:6], y INT DIMENSION[-2:1:3], v INT DEFAULT 0, f DOUBLE)`,
		`UPDATE grid SET v = (x * 7 + y * 3) % 5, f = x * 0.5 - y * 0.25`,
		`DELETE FROM grid WHERE (x + y) % 3 = 0`,
		`UPDATE grid SET f = -0.0 WHERE x = 2 AND y = -1`,
		`UPDATE grid SET f = 0.0 WHERE x = 3 AND y = -1`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

// ocol is a column of one FROM item, with the column's distinct non-NULL
// values in ascending order, so constants can hit the bounds the
// statistics paths prune on.
type ocol struct {
	alias, name string
	kind        types.Kind
	domain      []types.Value
}

func (c ocol) String() string { return c.alias + "." + c.name }

func (c ocol) str() bool      { return c.kind == types.KindStr }
func (c ocol) flt() bool      { return c.kind == types.KindFloat }
func isInt(c ocol) bool       { return !c.str() && !c.flt() }
func sameKind(c, d ocol) bool { return c.str() == d.str() && !c.flt() && !d.flt() }

// oracleRel is one relation the generator draws from.
type oracleRel struct {
	name string
	cols []ocol // alias left blank
}

// oracleRels reads every table and array of db with its column domains.
func oracleRels(db *DB) ([]oracleRel, error) {
	var scans []rel.Node
	for _, name := range db.cat.TableNames() {
		t, _ := db.cat.Table(name)
		scans = append(scans, &rel.ScanTable{T: t, Alias: name})
	}
	for _, name := range db.cat.ArrayNames() {
		a, _ := db.cat.Array(name)
		scans = append(scans, &rel.ScanArray{A: a, Alias: name})
	}
	var rels []oracleRel
	for _, scan := range scans {
		rows, err := refEval(scan, refBudget)
		if err != nil {
			return nil, err
		}
		r := oracleRel{name: scan.Schema()[0].Qual}
		for c, info := range scan.Schema() {
			seen := map[string]bool{}
			col := ocol{name: info.Name, kind: info.Kind}
			for _, row := range rows {
				if k := refKey(row[c : c+1]); !row[c].IsNull() && !seen[k] {
					seen[k] = true
					col.domain = append(col.domain, row[c])
				}
			}
			sort.Slice(col.domain, func(i, j int) bool { return refCompare(col.domain[i], col.domain[j]) < 0 })
			r.cols = append(r.cols, col)
		}
		rels = append(rels, r)
	}
	return rels, nil
}

// oracleGen draws random SELECT statements from a seeded source.
type oracleGen struct {
	rng  *rand.Rand
	rels []oracleRel
}

// pick returns a random element of cols satisfying ok (the zero ocol and
// false when none does).
func (g *oracleGen) pick(cols []ocol, ok func(ocol) bool) (ocol, bool) {
	var cand []ocol
	for _, c := range cols {
		if ok(c) {
			cand = append(cand, c)
		}
	}
	if len(cand) == 0 {
		return ocol{}, false
	}
	return cand[g.rng.Intn(len(cand))], true
}

// constFor draws a constant of c's type: a column bound, a value the
// column holds, or a value near its data.
func (g *oracleGen) constFor(c ocol) string {
	if d := c.domain; len(d) > 0 && g.rng.Intn(2) == 0 {
		v := d[g.rng.Intn(len(d))]
		if g.rng.Intn(2) == 0 {
			v = d[(len(d)-1)*g.rng.Intn(2)]
		}
		return literal(v)
	}
	switch {
	case c.str():
		return fmt.Sprintf("'s%d'", g.rng.Intn(9))
	case c.flt():
		return strconv.FormatFloat(float64(g.rng.Intn(13)-3)*0.25, 'f', 2, 64)
	}
	return strconv.Itoa(g.rng.Intn(24) - 3)
}

// literal renders a value as SQL text.
func literal(v types.Value) string {
	switch v.Kind() {
	case types.KindStr:
		return "'" + v.StrVal() + "'"
	case types.KindFloat:
		return strconv.FormatFloat(v.Float64(), 'f', -1, 64)
	}
	return v.String()
}

// constExpr draws a constant subexpression of c's type, which the engine
// folds through its kernels before it runs and the reference evaluates
// row by row: integer division and modulo with negative operands, CASTs
// from strings, negations, NULL arithmetic, and -0.0.
func (g *oracleGen) constExpr(c ocol) string {
	switch {
	case c.str():
		return []string{"'s' || '1'", "LOWER('S3')", "SUBSTRING('xs5', 2, 2)", "(NULL || 's2')"}[g.rng.Intn(4)]
	case c.flt():
		return []string{"-0.0", "(-1.5 / 2)", "CAST('0.25' AS DOUBLE)", "(NULL * 0.5)", "-(-2.5)", "(7 % -2.5)"}[g.rng.Intn(6)]
	}
	a, b := g.rng.Intn(21)-10, g.rng.Intn(9)-4
	if b == 0 {
		b = -3
	}
	return []string{
		fmt.Sprintf("(%d / %d)", a, b),
		fmt.Sprintf("(%d %% %d)", a, b),
		fmt.Sprintf("CAST('%d' AS INT)", a),
		fmt.Sprintf("-(%d)", a),
		"(NULL + 1)",
	}[g.rng.Intn(5)]
}

// atom draws one WHERE atom over cols: a theta or range comparison with
// a constant or a constant subexpression, an OR of two, IS [NOT] NULL, or
// a theta predicate between two columns.
func (g *oracleGen) atom(cols []ocol) string {
	c := cols[g.rng.Intn(len(cols))]
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	switch g.rng.Intn(7) {
	case 0:
		if isInt(c) {
			lo, _ := strconv.Atoi(g.constFor(c))
			hi, _ := strconv.Atoi(g.constFor(c))
			if lo > hi && g.rng.Intn(6) != 0 { // sometimes an empty range
				lo, hi = hi, lo
			}
			return fmt.Sprintf("%s BETWEEN %d AND %d", c, lo, hi)
		}
	case 1:
		return fmt.Sprintf("(%s OR %s)", g.atom(cols), g.atom(cols))
	case 2:
		if g.rng.Intn(2) == 0 {
			return c.String() + " IS NULL"
		}
		return c.String() + " IS NOT NULL"
	case 3:
		if d, ok := g.pick(cols, func(d ocol) bool { return d.str() == c.str() && d.String() != c.String() }); ok {
			if isInt(c) && isInt(d) && g.rng.Intn(2) == 0 {
				return fmt.Sprintf("%s %s %s + %d", c, ops[g.rng.Intn(6)], d, g.rng.Intn(5)-2)
			}
			return fmt.Sprintf("%s %s %s", c, ops[g.rng.Intn(6)], d)
		}
	case 4:
		return fmt.Sprintf("%s %s %s", c, ops[g.rng.Intn(6)], g.constExpr(c))
	}
	return fmt.Sprintf("%s %s %s", c, ops[g.rng.Intn(6)], g.constFor(c))
}

// item draws one non-aggregate output expression, sometimes with a
// constant subexpression in it.
func (g *oracleGen) item(cols []ocol) string {
	c := cols[g.rng.Intn(len(cols))]
	switch r := g.rng.Intn(12); {
	case isInt(c) && r < 3:
		return fmt.Sprintf("%s * %d + %d", c, g.rng.Intn(4)+1, g.rng.Intn(9)-4)
	case isInt(c) && r < 5:
		return fmt.Sprintf("%s + %s", c, g.constExpr(c))
	case c.flt() && r < 5:
		return c.String() + " * 2.5"
	case c.flt() && r < 7:
		return fmt.Sprintf("%s + %s", c, g.constExpr(c))
	case r == 7:
		return fmt.Sprintf("CASE WHEN %d < %d THEN %s END", g.rng.Intn(3), g.rng.Intn(3), c)
	}
	return c.String()
}

// from draws 1–5 FROM items and the equality conjuncts that connect each
// later item to an earlier one. With some probability the items chain as
// explicit [LEFT] JOIN ... ON instead of a comma list.
func (g *oracleGen) from() (sql string, cols []ocol, where []string) {
	n := 1 + g.rng.Intn(5)
	explicit := n > 1 && g.rng.Intn(5) == 0
	var sb strings.Builder
	for i := 0; i < n; i++ {
		r := g.rels[g.rng.Intn(len(g.rels))]
		for len(r.cols[0].domain) == 0 && g.rng.Intn(4) != 0 {
			// An empty relation joins everything away: keep it rare.
			r = g.rels[g.rng.Intn(len(g.rels))]
		}
		alias := fmt.Sprintf("t%d", i+1)
		mine := slices.Clone(r.cols)
		for c := range mine {
			mine[c].alias = alias
		}
		var eq string
		if i > 0 {
			for tries := 0; tries < 8 && eq == ""; tries++ {
				c := mine[g.rng.Intn(len(mine))]
				if d, ok := g.pick(cols, func(d ocol) bool { return sameKind(c, d) }); ok {
					eq = fmt.Sprintf("%s = %s", d, c)
				}
			}
		}
		switch {
		case i == 0:
			fmt.Fprintf(&sb, "%s %s", r.name, alias)
		case explicit && eq != "":
			join := "JOIN"
			if g.rng.Intn(3) == 0 {
				join = "LEFT JOIN"
			}
			fmt.Fprintf(&sb, " %s %s %s ON %s", join, r.name, alias, eq)
			eq = ""
		case explicit:
			// No equality available: a cross join with a theta filter.
			fmt.Fprintf(&sb, " JOIN %s %s ON %s", r.name, alias, g.atom(append(slices.Clone(cols), mine...)))
		default:
			fmt.Fprintf(&sb, ", %s %s", r.name, alias)
		}
		if eq != "" {
			where = append(where, eq)
		}
		cols = append(cols, mine...)
	}
	return sb.String(), cols, where
}

// like draws `k [NOT] LIKE pattern` for a string column k, the pattern
// matching the values that end like one k holds.
func (g *oracleGen) like(k ocol) string {
	p := "%"
	if d := k.domain; len(d) > 0 {
		v := d[g.rng.Intn(len(d))].StrVal()
		p += v[max(0, len(v)-1):]
	}
	if g.rng.Intn(3) == 0 {
		return fmt.Sprintf("%s NOT LIKE '%s'", k, p)
	}
	return fmt.Sprintf("%s LIKE '%s'", k, p)
}

// postAgg draws an expression over group keys and aggregates: arithmetic
// on an integer SUM, a COALESCE over a MIN, LIKE on a string key or a CASE
// on COUNT(*). None sums floats, so each may be an ORDER BY key.
func (g *oracleGen) postAgg(cols, keys []ocol) string {
	switch g.rng.Intn(4) {
	case 0:
		if a, ok := g.pick(cols, isInt); ok {
			rhs := strconv.Itoa(g.rng.Intn(5))
			if k, ok := g.pick(keys, isInt); ok {
				rhs = k.String()
			}
			return fmt.Sprintf("SUM(%s) - %s", a, rhs)
		}
	case 1:
		if c, ok := g.pick(cols, ocol.str); ok {
			return fmt.Sprintf("COALESCE(MIN(%s), '')", c)
		}
	case 2:
		if k, ok := g.pick(keys, ocol.str); ok {
			return g.like(k)
		}
	}
	then := "'many'"
	if len(keys) > 0 {
		then = keys[g.rng.Intn(len(keys))].String()
	}
	return fmt.Sprintf("CASE WHEN COUNT(*) > %d THEN %s END", g.rng.Intn(3), then)
}

// having draws a HAVING predicate over group keys and aggregates.
func (g *oracleGen) having(cols, keys []ocol) string {
	switch g.rng.Intn(4) {
	case 0:
		return fmt.Sprintf("COUNT(*) > %d", g.rng.Intn(3))
	case 1:
		if k, ok := g.pick(keys, ocol.str); ok {
			return g.like(k)
		}
	case 2:
		return "(" + g.postAgg(cols, keys) + ") IS NOT NULL"
	}
	c := cols[g.rng.Intn(len(cols))]
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	return fmt.Sprintf("%s(%s) %s %s", []string{"MIN", "MAX"}[g.rng.Intn(2)], c, ops[g.rng.Intn(6)], g.constFor(c))
}

// stmt draws one SELECT: a join with theta, range and OR atoms, then
// either a plain projection (sometimes DISTINCT, sometimes a UNION ALL
// of two filters) or a grouped or global aggregate, and sometimes ORDER
// BY … LIMIT. Ordered outputs always order by enough columns to make the
// order unique, so a LIMIT cuts at the same rows everywhere. Aggregates
// sometimes carry expressions over keys and aggregates, a HAVING clause
// and an ORDER BY on an aggregate that is not projected. The reference
// binds them with the engine's binder, so these check how such plans run
// at every width, not how they bind; rel's binder tests and the
// plan-identity check recorded in EXPERIMENTS.md cover the binding.
func (g *oracleGen) stmt() string {
	from, cols, eqs := g.from()
	where := func() string {
		conj := slices.Clone(eqs)
		for i := g.rng.Intn(3); i > 0; i-- {
			conj = append(conj, g.atom(cols))
		}
		if len(conj) == 0 {
			return ""
		}
		return " WHERE " + strings.Join(conj, " AND ")
	}
	var items []string
	var orderable []int // output positions (1-based) that may be ORDER BY keys
	grouped := g.rng.Intn(3) == 0
	head := "SELECT "
	if grouped {
		var keys []ocol
		var keyNames []string
		for i := g.rng.Intn(3); i > 0; i-- {
			if c, ok := g.pick(cols, func(c ocol) bool { return !c.flt() }); ok && !slices.Contains(keyNames, c.String()) {
				keys = append(keys, c)
				keyNames = append(keyNames, c.String())
			}
		}
		items = append(items, keyNames...)
		for i := range keys {
			orderable = append(orderable, i+1)
		}
		for i := 1 + g.rng.Intn(3); i > 0; i-- {
			c := cols[g.rng.Intn(len(cols))]
			agg := []string{"COUNT(*)", "COUNT", "MIN", "MAX", "SUM", "AVG"}[g.rng.Intn(6)]
			if c.str() && (agg == "SUM" || agg == "AVG") {
				agg = "MIN"
			}
			if agg != "COUNT(*)" {
				agg = fmt.Sprintf("%s(%s)", agg, c)
			}
			items = append(items, agg)
			// A float SUM or AVG depends on the summation order: never
			// sort by one.
			if !c.flt() || !(strings.HasPrefix(agg, "SUM") || strings.HasPrefix(agg, "AVG")) {
				orderable = append(orderable, len(items))
			}
		}
		for i := g.rng.Intn(3); i > 0; i-- {
			items = append(items, g.postAgg(cols, keys))
			orderable = append(orderable, len(items))
		}
		sql := head + strings.Join(items, ", ") + " FROM " + from + where()
		if len(keys) > 0 {
			sql += " GROUP BY " + strings.Join(keyNames, ", ")
		}
		if g.rng.Intn(3) == 0 {
			sql += " HAVING " + g.having(cols, keys)
		}
		lead := ""
		if g.rng.Intn(3) == 0 {
			c := cols[g.rng.Intn(len(cols))]
			lead = fmt.Sprintf("%s(%s)", []string{"MIN", "MAX", "COUNT"}[g.rng.Intn(3)], c)
		}
		return g.orderLimit(sql, orderable, len(keys) > 0, lead)
	}
	for i := 1 + g.rng.Intn(4); i > 0; i-- {
		items = append(items, g.item(cols))
		orderable = append(orderable, len(items))
	}
	if g.rng.Intn(6) == 0 {
		head += "DISTINCT "
	}
	sql := head + strings.Join(items, ", ") + " FROM " + from + where()
	if g.rng.Intn(8) == 0 {
		sql += " UNION ALL SELECT " + strings.Join(items, ", ") + " FROM " + from + where()
	}
	return g.orderLimit(sql, orderable, true, "")
}

// orderLimit sometimes appends ORDER BY over every orderable output
// position (shuffled, random directions), led by the expression lead when
// it is not empty, and then sometimes LIMIT/OFFSET.
func (g *oracleGen) orderLimit(sql string, orderable []int, canLimit bool, lead string) string {
	if len(orderable) == 0 || g.rng.Intn(2) == 0 {
		return sql
	}
	g.rng.Shuffle(len(orderable), func(i, j int) { orderable[i], orderable[j] = orderable[j], orderable[i] })
	var keys []string
	if lead != "" {
		keys = append(keys, lead)
	}
	for _, p := range orderable {
		keys = append(keys, strconv.Itoa(p))
		if g.rng.Intn(2) == 0 {
			keys[len(keys)-1] += " DESC"
		}
	}
	sql += " ORDER BY " + strings.Join(keys, ", ")
	if canLimit && g.rng.Intn(3) != 0 {
		sql += fmt.Sprintf(" LIMIT %d", g.rng.Intn(12))
		if g.rng.Intn(3) == 0 {
			sql += fmt.Sprintf(" OFFSET %d", g.rng.Intn(5))
		}
	}
	return sql
}

// refAnswer is the reference's answer to one statement.
type refAnswer struct {
	rows    [][]types.Value
	ordered bool // the plan's root is a Sort, possibly under a Limit
	err     error
}

// refQuery binds sql against db's catalog and evaluates it with refEval,
// letting each join visit or produce at most budget rows.
func refQuery(db *DB, sql string, budget int) refAnswer {
	stmt, err := parser.ParseOne(sql)
	if err != nil {
		return refAnswer{err: err}
	}
	sel, ok := stmt.(*ast.Select)
	if !ok {
		return refAnswer{err: fmt.Errorf("not a SELECT: %s", sql)}
	}
	plan, err := rel.NewBinder(db.cat).BindSelect(sel)
	if err != nil {
		return refAnswer{err: err}
	}
	_, ordered := plan.(*rel.Sort)
	if l, ok := plan.(*rel.Limit); ok {
		_, ordered = l.Child.(*rel.Sort)
	}
	rows, err := refEval(plan, budget)
	return refAnswer{rows, ordered, err}
}

// renderExact renders a value with full float precision.
func renderExact(v types.Value) string {
	switch {
	case v.IsNull():
		return "NULL"
	case v.Kind() == types.KindFloat:
		return strconv.FormatFloat(v.Float64(), 'g', -1, 64)
	case v.Kind() == types.KindStr:
		return strconv.Quote(v.StrVal())
	}
	return v.String()
}

// resultRows extracts a result's rows.
func resultRows(r *Result) [][]types.Value {
	rows := make([][]types.Value, r.NumRows())
	for i := range rows {
		rows[i] = make([]types.Value, r.NumCols())
		for c := range rows[i] {
			rows[i][c] = r.Value(i, c)
		}
	}
	return rows
}

// canonical orders rows for an order-insensitive comparison: by every
// non-float column's exact text, then by the float columns' values.
func canonical(rows [][]types.Value) [][]types.Value {
	rows = slices.Clone(rows)
	sort.SliceStable(rows, func(a, b int) bool {
		for pass := 0; pass < 2; pass++ {
			for c := range rows[a] {
				x, y := rows[a][c], rows[b][c]
				isF := x.Kind() == types.KindFloat || y.Kind() == types.KindFloat
				if isF != (pass == 1) {
					continue
				}
				if isF {
					if cmp := refCompare(x, y); cmp != 0 {
						return cmp < 0
					}
					continue
				}
				if sx, sy := renderExact(x), renderExact(y); sx != sy {
					return sx < sy
				}
			}
		}
		return false
	})
	return rows
}

// sameRows compares two row lists in order: exactly, except that two
// non-NULL floats may differ by a relative 1e-9 when tol is set.
func sameRows(got, want [][]types.Value, tol bool) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d rows, want %d", len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("row %d has %d columns, want %d", i, len(got[i]), len(want[i]))
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			if tol && !g.IsNull() && !w.IsNull() && g.Kind() == types.KindFloat && w.Kind() == types.KindFloat {
				if d := math.Abs(g.Float64() - w.Float64()); d <= 1e-9*math.Max(1, math.Abs(w.Float64())) {
					continue
				}
			}
			if renderExact(g) != renderExact(w) {
				return fmt.Errorf("row %d column %d is %s, want %s", i, c, renderExact(g), renderExact(w))
			}
		}
	}
	return nil
}

// oracleThreads are the kernel widths every statement runs at; the
// lowered morsel cutoff (setWidth) makes the small inputs engage the pool.
var oracleThreads = []int{1, 2, 8}

// setWidth makes db's statements run at width with a 64-row morsel
// cutoff, and returns a func that restores the previous shape. Call it
// only while no statement runs on db.
func setWidth(db *DB, width int) (restore func()) {
	w, c := db.width, db.cutoff
	db.width, db.cutoff = width, 64
	return func() { db.width, db.cutoff = w, c }
}

// checkEngine runs sql through the full pipeline at every width in
// widths (oracleThreads when none are given) and compares each answer
// with want: exactly across widths, and exactly (floats within 1e-9)
// against the reference.
func checkEngine(db *DB, sql string, want refAnswer, widths ...int) error {
	if len(widths) == 0 {
		widths = oracleThreads
	}
	defer setWidth(db, 1)()
	var first [][]types.Value
	for _, th := range widths {
		setWidth(db, th)
		res, err := db.Query(sql)
		if (err != nil) != (want.err != nil) {
			return fmt.Errorf("threads=%d: engine error %v, reference error %v", th, err, want.err)
		}
		if err != nil {
			return nil
		}
		got := resultRows(res)
		if first == nil {
			first = got
			cmpGot, cmpWant := got, want.rows
			if !want.ordered {
				cmpGot, cmpWant = canonical(got), canonical(want.rows)
			}
			if err := sameRows(cmpGot, cmpWant, true); err != nil {
				return fmt.Errorf("threads=%d vs reference: %v", th, err)
			}
			continue
		}
		if err := sameRows(got, first, false); err != nil {
			return fmt.Errorf("threads=%d vs threads=%d: %v", th, widths[0], err)
		}
	}
	return nil
}

// checkAgainstRef checks a generated statement at every width in
// oracleThreads. skipped reports a statement too large for refBudget.
func checkAgainstRef(db *DB, sql string) (skipped bool, err error) {
	want := refQuery(db, sql, refBudget)
	if errors.Is(want.err, errRefTooBig) {
		return true, nil
	}
	return false, checkEngine(db, sql, want)
}

// oracleSeeds and oracleStmts size the random run: every seed draws
// statements until oracleStmts of them were small enough to check, each
// at every width in oracleThreads.
const (
	oracleSeeds = 6
	oracleStmts = 100
)

func TestOracleRandomSelect(t *testing.T) {
	db := oracleDB(t)
	rels, err := oracleRels(db)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= oracleSeeds; seed++ {
		g := &oracleGen{rng: rand.New(rand.NewSource(seed)), rels: rels}
		ran := 0
		for i := 0; ran < oracleStmts; i++ {
			if i == 2*oracleStmts {
				t.Fatalf("seed %d: only %d of %d statements were small enough for the reference", seed, ran, i)
			}
			sql := g.stmt()
			skipped, err := checkAgainstRef(db, sql)
			if err != nil {
				t.Fatalf("seed %d statement %d: %v\n%s", seed, i, err, sql)
			}
			if !skipped {
				ran++
			}
		}
	}
}

// TestConcurrentDBsKeepTheirWidths: two databases at widths 1 and 8 run
// the same oracle statements side by side. Each statement's job carries
// its DB's width, so neither run disturbs the other, and both answer
// every statement with identical rows.
func TestConcurrentDBsKeepTheirWidths(t *testing.T) {
	narrow, wide := oracleDB(t), oracleDB(t)
	setWidth(narrow, 1)
	setWidth(wide, 8)
	rels, err := oracleRels(narrow)
	if err != nil {
		t.Fatal(err)
	}
	// The statements the random oracle checks: those small enough for
	// the reference.
	g := &oracleGen{rng: rand.New(rand.NewSource(1)), rels: rels}
	var stmts []string
	for len(stmts) < 60 {
		if sql := g.stmt(); !errors.Is(refQuery(narrow, sql, refBudget).err, errRefTooBig) {
			stmts = append(stmts, sql)
		}
	}
	type answer struct {
		rows [][]types.Value
		err  error
	}
	run := func(db *DB) []answer {
		out := make([]answer, len(stmts))
		for i, sql := range stmts {
			res, err := db.Query(sql)
			out[i].err = err
			if err == nil {
				out[i].rows = resultRows(res)
			}
		}
		return out
	}
	var got [2][]answer
	var wg sync.WaitGroup
	for i, db := range []*DB{narrow, wide} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = run(db)
		}()
	}
	wg.Wait()
	for i, sql := range stmts {
		a, b := got[0][i], got[1][i]
		if (a.err != nil) != (b.err != nil) {
			t.Fatalf("%s\nwidth 1 error %v, width 8 error %v", sql, a.err, b.err)
		}
		if err := sameRows(b.rows, a.rows, false); err != nil {
			t.Fatalf("%s\nwidth 8 vs width 1: %v", sql, err)
		}
	}
}

// TestFoldMatchesReference: rel.Optimize folds a constant expression
// through the gdk kernels, and evalRow evaluates the binder's unfolded
// tree with code the engine does not share. A folded constant must equal
// the reference's value, kind included; an expression the optimizer
// leaves unfolded (the reference fails on it, or a fold rule keeps its
// shape) must still evaluate to the reference's answer; and the engine
// must answer the statement as the reference does, or fail as it does.
func TestFoldMatchesReference(t *testing.T) {
	db := New()
	for _, c := range []struct {
		expr  string
		folds bool
	}{
		// Three-valued logic.
		{"TRUE AND NULL", true},
		{"FALSE AND NULL", true},
		{"FALSE OR NULL", true},
		{"NULL OR TRUE", true},
		{"(1 < NULL) OR (2 > 1)", true},
		{"NOT (NULL AND TRUE)", true},
		{"(1 < 2) AND (NULL = 1)", true},
		{"NOT NULL", true},
		// Integer division and modulo truncate toward zero.
		{"-7 / 2", true},
		{"7 / -2", true},
		{"-7 % 2", true},
		{"7 % -3", true},
		{"-7 % -3", true},
		{"MOD(-7, 3)", true},
		{"1 + 2 * 3 - 4 / 2", true},
		// Division by zero is left for run time.
		{"1 / 0", false},
		{"5 % 0", false},
		{"1 / (2 - 2)", false},
		{"1.5 / 0", false},
		{"0.0 / 0.0", false},
		// Two's-complement wrap at the int64 edge.
		{"-(-9223372036854775807 - 1)", true},
		{"(-9223372036854775807 - 1) / -1", true},
		{"(-9223372036854775807 - 1) % -1", true},
		{"9223372036854775807 + 1", true},
		// Every CAST rule, and the ones that fail.
		{"CAST(2.7 AS INT)", true},
		{"CAST(-2.7 AS INT)", true},
		{"CAST(1e19 AS INT)", false},
		{"CAST(' 42 ' AS INT)", true},
		{"CAST('4x' AS INT)", false},
		{"CAST(TRUE AS INT)", true},
		{"CAST(CAST(3 AS OID) AS INT)", true},
		{"CAST(7 AS OID)", true},
		{"CAST(-1 AS OID)", false},
		{"CAST(1.5 AS OID)", false},
		{"CAST('3' AS OID)", false},
		{"CAST(TRUE AS OID)", false},
		{"CAST(CAST(3 AS OID) AS DOUBLE)", true},
		{"CAST(CAST(3 AS OID) AS BOOLEAN)", true},
		{"CAST(CAST(3 AS OID) AS VARCHAR)", true},
		{"CAST(CAST(3 AS OID) AS OID)", true},
		{"CAST(5 AS INT)", true},
		{"CAST('x' AS VARCHAR)", true},
		{"CAST(3 AS DOUBLE)", true},
		{"CAST(' 2.5 ' AS DOUBLE)", true},
		{"CAST(FALSE AS DOUBLE)", true},
		{"CAST('x' AS DOUBLE)", false},
		{"CAST(0 AS BOOLEAN)", true},
		{"CAST(0.5 AS BOOLEAN)", true},
		{"CAST(' T ' AS BOOLEAN)", true},
		{"CAST('maybe' AS BOOLEAN)", false},
		{"CAST(42 AS VARCHAR)", true},
		{"CAST(0.1 AS VARCHAR)", true},
		{"CAST(TRUE AS VARCHAR)", true},
		{"CAST(NULL AS INT)", true},
		{"CAST(NULL AS BOOLEAN)", true},
		// LIKE.
		{"'abc' LIKE 'a%'", true},
		{"'abc' LIKE '_b_'", true},
		{"'abc' LIKE '%d'", true},
		{"'a%c' LIKE 'a%%'", true},
		{"'abc' NOT LIKE 'a%c'", true},
		{"'héllo' LIKE 'h_llo'", true},
		{"'' LIKE '%'", true},
		{"NULL LIKE 'a'", true},
		// SUBSTRING bounds (1-based start, clamped to the string).
		{"SUBSTRING('hello', 0, 3)", true},
		{"SUBSTRING('hello', -2, 5)", true},
		{"SUBSTRING('hello', 4)", true},
		{"SUBSTRING('hello', 10, 2)", true},
		{"SUBSTRING('hello', 2, -1)", true},
		{"SUBSTRING('hello', 2.9, 2)", true},
		{"SUBSTRING('hello', NULL, 2)", true},
		{"SUBSTRING(NULL, 1, 2)", true},
		// A NULL takes its expression's type.
		{"NULL + 1", true},
		{"NULL + 1.5", true},
		{"NULL + NULL", true},
		{"-NULL", true},
		{"NULL || 'a'", true},
		{"NULL = NULL", true},
		{"ABS(NULL)", true},
		{"UPPER(NULL)", true},
		{"CAST(NULL AS INT) + 1", true},
		// CASE and its sugar.
		{"CASE WHEN 1 < 2 THEN 1 ELSE 2.5 END", true},
		{"CASE WHEN NULL THEN 1 ELSE 2 END", true},
		{"CASE WHEN 1 > 2 THEN 'a' END", true},
		{"COALESCE(NULL, 3)", true},
		{"NULLIF(3, 3)", true},
		{"GREATEST(1, NULL, 3)", true},
		{"GREATEST(1, 2.5)", true},
		{"LEAST(4, 2)", true},
		// Functions, comparisons, floats.
		{"ABS(-3)", true},
		{"ABS(-2.5)", true},
		{"SIGN(-2.5)", true},
		{"SIGN(0)", true},
		{"SQRT(-1)", false},
		{"LOG(0)", false},
		{"POWER(2, 10)", true},
		{"POWER(-8, 0.5)", true},
		{"ROUND(-2.5)", true},
		{"FLOOR(-1.5)", true},
		{"CEIL(-0.5)", true},
		{"UPPER('aB') || LOWER('aB')", true},
		{"LENGTH('héllo')", true},
		{"'a' + 'b'", true},
		{"1 = 1.0", true},
		{"'a' < 'b'", true},
		{"TRUE > FALSE", true},
		{"-(0.0 + 0.0)", true},
		{"-0.0 = 0.0", true},
		{"0.0 * -1", true},
		{"1e308 * 10", true},
		{"7 % -2.5", true},
	} {
		sql := "SELECT " + c.expr
		bound := func() *rel.Project {
			stmt, err := parser.ParseOne(sql)
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			plan, err := rel.NewBinder(db.cat).BindSelect(stmt.(*ast.Select))
			if err != nil {
				t.Fatalf("%s: %v", sql, err)
			}
			return plan.(*rel.Project)
		}
		e := bound().Exprs[0]
		if _, ok := e.(*rel.Const); ok {
			t.Fatalf("%s: the binder folded %s", sql, e)
		}
		want, werr := evalRow(e, nil)
		folded := rel.Optimize(bound()).(*rel.Project).Exprs[0]
		k, isConst := folded.(*rel.Const)
		switch {
		case isConst != c.folds:
			t.Errorf("%s: optimized to %s, folds=%v expected (reference %s, %v)", sql, folded, c.folds, renderExact(want), werr)
			continue
		case isConst && werr != nil:
			t.Errorf("%s: folded to %s where the reference fails: %v", sql, k, werr)
			continue
		case isConst && (k.Val.Kind() != want.Kind() || renderExact(k.Val) != renderExact(want)):
			t.Errorf("%s: folded to %s %s, reference %s %s", sql, k.Val.Kind(), renderExact(k.Val), want.Kind(), renderExact(want))
			continue
		case !isConst && werr == nil:
			if got, err := evalRow(folded, nil); err != nil || renderExact(got) != renderExact(want) {
				t.Errorf("%s: optimized %s evaluates to %s (%v), reference %s", sql, folded, renderExact(got), err, renderExact(want))
				continue
			}
		}
		res, err := db.Query(sql)
		if (err != nil) != (werr != nil) {
			t.Errorf("%s: engine error %v, reference error %v", sql, err, werr)
			continue
		}
		if err == nil {
			if got := res.Value(0, 0); renderExact(got) != renderExact(want) {
				t.Errorf("%s: engine answers %s, reference %s", sql, renderExact(got), renderExact(want))
			}
		}
	}
}
