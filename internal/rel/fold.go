package rel

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/gdk"
	"repro/internal/types"
)

// Constant folding. The binder leaves expressions as written; Optimize
// begins by folding every expression of the plan bottom-up (foldPlan).
// Constant subtrees evaluate through the same gdk kernels the compiled
// program runs (evalConst), so a folded constant cannot disagree with
// its unfolded evaluation.

// evalConst evaluates a column-free expression through the gdk kernels,
// each operand a one-row constant. A NULL result takes e's kind.
func evalConst(e Expr) (types.Value, error) {
	var (
		out *bat.BAT
		err error
	)
	switch x := e.(type) {
	case *Const:
		return x.Val, nil
	case *Bin:
		var o []gdk.Opnd
		if o, err = constOpnds(x.L, x.R); err == nil {
			out, err = gdk.Bin(nil, x.Op, o[0], o[1], nil)
		}
	case *Un:
		var o []gdk.Opnd
		if o, err = constOpnds(x.X); err == nil {
			out, err = gdk.Un(nil, x.Op, o[0], nil)
		}
	case *IfElse:
		var o []gdk.Opnd
		if o, err = constOpnds(x.Cond, x.Then, x.Else); err == nil {
			out, err = gdk.IfThenElse(nil, o[0], o[1], o[2], nil)
		}
		if err == nil && out.ValueKind() != x.K && x.K != types.KindVoid {
			// The picked branch widens to the kind of the whole CASE.
			out, err = gdk.CastBAT(nil, gdk.B(out), x.K, nil)
		}
	case *Cast:
		var o []gdk.Opnd
		if o, err = constOpnds(x.X); err == nil {
			out, err = gdk.CastBAT(nil, o[0], x.To, nil)
		}
	case *Substr:
		var o []gdk.Opnd
		if o, err = constOpnds(x.X, x.From, x.For); err == nil {
			out, err = gdk.Substring(nil, o[0], o[1], o[2], nil)
		}
	default:
		return types.Value{}, fmt.Errorf("expression is not constant: %s", e)
	}
	if err != nil {
		return types.Value{}, err
	}
	if v := out.Get(0); !v.IsNull() {
		return v, nil
	}
	return types.Null(e.Kind()), nil
}

// constOpnds evaluates each expression to a one-row kernel operand.
func constOpnds(es ...Expr) ([]gdk.Opnd, error) {
	o := make([]gdk.Opnd, len(es))
	for i, e := range es {
		v, err := evalConst(e)
		if err != nil {
			return nil, err
		}
		o[i] = gdk.C(v, 1)
	}
	return o, nil
}

// isConstTree reports whether the expression references no columns and no
// arrays (safe to fold).
func isConstTree(e Expr) bool {
	ok := true
	WalkExpr(e, func(x Expr) {
		switch x.(type) {
		case *Col, *CellFetch:
			ok = false
		}
	})
	return ok
}

// foldPlan folds every expression of the plan in place.
func foldPlan(n Node) {
	switch x := n.(type) {
	case *Filter:
		foldPlan(x.Child)
		x.Pred = foldExpr(x.Pred)
	case *Project:
		foldPlan(x.Child)
		foldExprs(x.Exprs)
	case *Join:
		foldPlan(x.L)
		foldPlan(x.R)
		foldExprs(x.LKeys)
		foldExprs(x.RKeys)
		x.Residual = foldExpr(x.Residual)
	case *GroupAgg:
		foldPlan(x.Child)
		foldExprs(x.Keys)
		foldAggs(x.Aggs)
	case *TileAgg:
		foldAggs(x.Aggs)
	case *Sort:
		foldPlan(x.Child)
		foldExprs(x.Keys)
	case *Limit:
		foldPlan(x.Child)
	case *Distinct:
		foldPlan(x.Child)
	case *UnionAll:
		foldPlan(x.L)
		foldPlan(x.R)
	case *Write:
		foldPlan(x.Child)
		for i := range x.Sets {
			x.Sets[i].Val = foldExpr(x.Sets[i].Val)
		}
	}
}

func foldExprs(es []Expr) {
	for i, e := range es {
		es[i] = foldExpr(e)
	}
}

func foldAggs(aggs []AggSpec) {
	for i := range aggs {
		aggs[i].Arg = foldExpr(aggs[i].Arg)
	}
}

// foldExpr folds e bottom-up: the children first, then the node itself.
func foldExpr(e Expr) Expr {
	switch x := e.(type) {
	case *Bin:
		x.L, x.R = foldExpr(x.L), foldExpr(x.R)
	case *Un:
		x.X = foldExpr(x.X)
	case *IfElse:
		x.Cond, x.Then, x.Else = foldExpr(x.Cond), foldExpr(x.Then), foldExpr(x.Else)
	case *Cast:
		x.X = foldExpr(x.X)
	case *Substr:
		x.X, x.From, x.For = foldExpr(x.X), foldExpr(x.From), foldExpr(x.For)
	case *CellFetch:
		foldExprs(x.Coords)
		return e
	default: // a column, a constant, or no expression
		return e
	}
	return fold(e)
}

// fold simplifies one node whose children are folded: a node over
// constants is evaluated, and boolean connectives and CASE arms with a
// constant side are reduced. Folding is best-effort: evaluation errors
// (division by zero) are left for runtime.
func fold(e Expr) Expr {
	if constOperands(e) {
		if v, err := evalConst(e); err == nil {
			return &Const{Val: v}
		}
	}
	switch x := e.(type) {
	case *Bin:
		if x.Op == "AND" || x.Op == "OR" {
			if c, ok := x.L.(*Const); ok {
				return foldLogic(x.Op, c.Val, x.R)
			}
			if c, ok := x.R.(*Const); ok {
				return foldLogic(x.Op, c.Val, x.L)
			}
		}
	case *IfElse:
		if c, ok := x.Cond.(*Const); ok {
			if !c.Val.IsNull() && c.Val.BoolVal() {
				return retyped(x.Then, x.K)
			}
			return retyped(x.Else, x.K)
		}
	}
	return e
}

// constOperands reports whether every operand of e is a constant. As
// operands fold first, a constant subtree that is not a Const failed to
// evaluate, and e would fail on it again.
func constOperands(e Expr) bool {
	switch x := e.(type) {
	case *Bin:
		return isConst(x.L) && isConst(x.R)
	case *Un:
		return isConst(x.X)
	case *IfElse:
		return isConst(x.Cond) && isConst(x.Then) && isConst(x.Else)
	case *Cast:
		return isConst(x.X)
	case *Substr:
		return isConst(x.X) && isConst(x.From) && isConst(x.For)
	}
	return false
}

func isConst(e Expr) bool {
	_, ok := e.(*Const)
	return ok
}

// retyped casts a folded branch to the IfElse result kind when needed.
func retyped(e Expr, k types.Kind) Expr {
	if e.Kind() == k {
		return e
	}
	if c, ok := e.(*Const); ok {
		if v, err := c.Val.Cast(k); err == nil {
			return &Const{Val: v}
		}
	}
	return &Cast{X: e, To: k}
}

// foldLogic reduces AND/OR with one constant side, preserving three-valued
// semantics.
func foldLogic(op string, c types.Value, other Expr) Expr {
	if c.IsNull() {
		// null AND x = x ? no: null AND false = false, null AND true = null.
		// Not reducible without knowing x; keep the original shape.
		return &Bin{Op: op, L: &Const{Val: types.Null(types.KindBool)}, R: other, K: types.KindBool}
	}
	v := c.BoolVal()
	if op == "AND" {
		if v {
			return other
		}
		return &Const{Val: types.Bool(false)}
	}
	if v {
		return &Const{Val: types.Bool(true)}
	}
	return other
}
