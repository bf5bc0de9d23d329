package rel

import (
	"fmt"
	"math"

	"repro/internal/sql/ast"
	"repro/internal/types"
)

// aggFuncs names the supported aggregate functions.
var aggFuncs = map[string]bool{
	"sum": true, "count": true, "avg": true, "min": true, "max": true,
}

// IsAggregate reports whether the AST expression contains an aggregate call.
func IsAggregate(e ast.Expr) bool {
	found := false
	ast.Walk(e, func(x ast.Expr) bool {
		if fc, ok := x.(*ast.FuncCall); ok && aggFuncs[fc.Name] {
			found = true
		}
		return true
	})
	return found
}

// BindScalar binds an AST expression over a scope, with no aggregates
// allowed.
func (b *Binder) BindScalar(s *Scope, e ast.Expr) (Expr, error) {
	if IsAggregate(e) {
		return nil, fmt.Errorf("at %s: aggregate function not allowed here", e.Position())
	}
	return b.bindExpr(s, e)
}

func (b *Binder) bindExpr(s *Scope, e ast.Expr) (Expr, error) {
	if s.agg != nil {
		if out, done, err := b.bindPostAgg(s.agg, e); done {
			return out, err
		}
	}
	switch x := e.(type) {
	case *ast.Literal:
		return &Const{Val: x.Val}, nil

	case *ast.ColRef:
		idx, err := s.Resolve(x.Table, x.Name)
		if err != nil {
			return nil, fmt.Errorf("at %s: %v", x.Pos, err)
		}
		return &Col{Idx: idx, Info: s.Cols[idx]}, nil

	case *ast.BinExpr:
		l, err := b.bindExpr(s, x.L)
		if err != nil {
			return nil, err
		}
		r, err := b.bindExpr(s, x.R)
		if err != nil {
			return nil, err
		}
		return b.makeBin(x.Op, l, r, x.Pos)

	case *ast.UnExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case "-":
			if !xe.Kind().Numeric() && xe.Kind() != types.KindVoid {
				return nil, fmt.Errorf("at %s: unary minus needs a numeric operand, got %s", x.Pos, xe.Kind())
			}
			return &Un{Op: "-", X: xe, K: xe.Kind()}, nil
		case "NOT":
			if xe.Kind() != types.KindBool && xe.Kind() != types.KindVoid {
				return nil, fmt.Errorf("at %s: NOT needs a boolean operand, got %s", x.Pos, xe.Kind())
			}
			return &Un{Op: "not", X: xe, K: types.KindBool}, nil
		}
		return nil, fmt.Errorf("at %s: unknown unary operator %q", x.Pos, x.Op)

	case *ast.FuncCall:
		if aggFuncs[x.Name] {
			return nil, fmt.Errorf("at %s: aggregate %s not allowed in this context", x.Pos, x.Name)
		}
		return b.bindFunc(s, x)

	case *ast.CaseExpr:
		return b.bindCase(s, x)

	case *ast.CastExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		st, ok := types.SQLTypeByName(x.TypeName)
		if !ok {
			return nil, fmt.Errorf("at %s: unknown type %q in CAST", x.Pos, x.TypeName)
		}
		return &Cast{X: xe, To: st.Kind}, nil

	case *ast.BetweenExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		lo, err := b.bindExpr(s, x.Lo)
		if err != nil {
			return nil, err
		}
		hi, err := b.bindExpr(s, x.Hi)
		if err != nil {
			return nil, err
		}
		ge, err := b.makeBin(">=", xe, lo, x.Pos)
		if err != nil {
			return nil, err
		}
		le, err := b.makeBin("<=", xe, hi, x.Pos)
		if err != nil {
			return nil, err
		}
		out, err := b.makeBin("AND", ge, le, x.Pos)
		if err != nil {
			return nil, err
		}
		if x.Not {
			return &Un{Op: "not", X: out, K: types.KindBool}, nil
		}
		return out, nil

	case *ast.InExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		var out Expr
		for _, item := range x.List {
			ie, err := b.bindExpr(s, item)
			if err != nil {
				return nil, err
			}
			eq, err := b.makeBin("=", xe, ie, x.Pos)
			if err != nil {
				return nil, err
			}
			if out == nil {
				out = eq
			} else if out, err = b.makeBin("OR", out, eq, x.Pos); err != nil {
				return nil, err
			}
		}
		if x.Not {
			return &Un{Op: "not", X: out, K: types.KindBool}, nil
		}
		return out, nil

	case *ast.IsNullExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		out := Expr(&Un{Op: "isnull", X: xe, K: types.KindBool})
		if x.Not {
			out = &Un{Op: "not", X: out, K: types.KindBool}
		}
		return out, nil

	case *ast.LikeExpr:
		xe, err := b.bindExpr(s, x.X)
		if err != nil {
			return nil, err
		}
		pe, err := b.bindExpr(s, x.Pattern)
		if err != nil {
			return nil, err
		}
		if (xe.Kind() != types.KindStr && xe.Kind() != types.KindVoid) ||
			(pe.Kind() != types.KindStr && pe.Kind() != types.KindVoid) {
			return nil, fmt.Errorf("at %s: LIKE needs string operands", x.Pos)
		}
		out := Expr(&Bin{Op: "like", L: xe, R: pe, K: types.KindBool})
		if x.Not {
			out = &Un{Op: "not", X: out, K: types.KindBool}
		}
		return out, nil

	case *ast.CellRef:
		return b.bindCellRef(s, x)

	default:
		return nil, fmt.Errorf("unsupported expression %T", e)
	}
}

// makeBin type-checks one binary operation.
func (b *Binder) makeBin(op string, l, r Expr, pos ast.Pos) (Expr, error) {
	lk, rk := l.Kind(), r.Kind()
	switch op {
	case "+", "-", "*", "/", "%":
		if lk == types.KindStr && rk == types.KindStr && op == "+" {
			return &Bin{Op: "||", L: l, R: r, K: types.KindStr}, nil
		}
		k, err := types.CommonKind(lk, rk)
		if err != nil {
			return nil, fmt.Errorf("at %s: operator %s: %v", pos, op, err)
		}
		if !k.Numeric() && k != types.KindVoid {
			return nil, fmt.Errorf("at %s: operator %s needs numeric operands, got %s", pos, op, k)
		}
		if k == types.KindVoid {
			k = types.KindInt
		}
		return &Bin{Op: op, L: l, R: r, K: k}, nil
	case "=", "<>", "<", "<=", ">", ">=":
		if _, err := types.CommonKind(lk, rk); err != nil {
			return nil, fmt.Errorf("at %s: cannot compare %s with %s", pos, lk, rk)
		}
		return &Bin{Op: op, L: l, R: r, K: types.KindBool}, nil
	case "AND", "OR":
		for _, k := range []types.Kind{lk, rk} {
			if k != types.KindBool && k != types.KindVoid {
				return nil, fmt.Errorf("at %s: %s needs boolean operands, got %s", pos, op, k)
			}
		}
		return &Bin{Op: op, L: l, R: r, K: types.KindBool}, nil
	case "||":
		for _, k := range []types.Kind{lk, rk} {
			if k != types.KindStr && k != types.KindVoid {
				return nil, fmt.Errorf("at %s: || needs string operands, got %s", pos, k)
			}
		}
		return &Bin{Op: "||", L: l, R: r, K: types.KindStr}, nil
	default:
		return nil, fmt.Errorf("at %s: unknown operator %q", pos, op)
	}
}

// bindFunc binds scalar function calls, desugaring COALESCE/NULLIF/
// GREATEST/LEAST into IfElse chains.
func (b *Binder) bindFunc(s *Scope, x *ast.FuncCall) (Expr, error) {
	bindArgs := func(want int) ([]Expr, error) {
		if want >= 0 && len(x.Args) != want {
			return nil, fmt.Errorf("at %s: %s expects %d argument(s), got %d", x.Pos, x.Name, want, len(x.Args))
		}
		out := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			e, err := b.bindExpr(s, a)
			if err != nil {
				return nil, err
			}
			out[i] = e
		}
		return out, nil
	}
	numeric1 := func(op string, k types.Kind) (Expr, error) {
		args, err := bindArgs(1)
		if err != nil {
			return nil, err
		}
		if !args[0].Kind().Numeric() && args[0].Kind() != types.KindVoid {
			return nil, fmt.Errorf("at %s: %s needs a numeric argument", x.Pos, x.Name)
		}
		if k == 0 {
			k = args[0].Kind()
			if k == types.KindVoid {
				k = types.KindInt
			}
		}
		return &Un{Op: op, X: args[0], K: k}, nil
	}
	str1 := func(op string, k types.Kind) (Expr, error) {
		args, err := bindArgs(1)
		if err != nil {
			return nil, err
		}
		if args[0].Kind() != types.KindStr && args[0].Kind() != types.KindVoid {
			return nil, fmt.Errorf("at %s: %s needs a string argument", x.Pos, x.Name)
		}
		return &Un{Op: op, X: args[0], K: k}, nil
	}

	switch x.Name {
	case "abs":
		return numeric1("abs", 0)
	case "sqrt", "floor", "ceil", "exp", "log", "round":
		return numeric1(x.Name, types.KindFloat)
	case "sign":
		return numeric1("sign", types.KindInt)
	case "power", "pow":
		args, err := bindArgs(2)
		if err != nil {
			return nil, err
		}
		for _, a := range args {
			if !a.Kind().Numeric() && a.Kind() != types.KindVoid {
				return nil, fmt.Errorf("at %s: power needs numeric arguments", x.Pos)
			}
		}
		return &Bin{Op: "pow", L: args[0], R: args[1], K: types.KindFloat}, nil
	case "mod":
		args, err := bindArgs(2)
		if err != nil {
			return nil, err
		}
		return b.makeBin("%", args[0], args[1], x.Pos)
	case "upper", "lower":
		return str1(x.Name, types.KindStr)
	case "length":
		return str1("length", types.KindInt)
	case "substring", "substr":
		if len(x.Args) != 2 && len(x.Args) != 3 {
			return nil, fmt.Errorf("at %s: substring expects 2 or 3 arguments", x.Pos)
		}
		args, err := bindArgs(-1)
		if err != nil {
			return nil, err
		}
		forE := Expr(&Const{Val: types.Int(math.MaxInt32)})
		if len(args) == 3 {
			forE = args[2]
		}
		return &Substr{X: args[0], From: args[1], For: forE}, nil
	case "coalesce":
		if len(x.Args) < 1 {
			return nil, fmt.Errorf("at %s: coalesce needs at least one argument", x.Pos)
		}
		args, err := bindArgs(-1)
		if err != nil {
			return nil, err
		}
		k := types.KindVoid
		for _, a := range args {
			var cerr error
			k, cerr = types.CommonKind(k, a.Kind())
			if cerr != nil {
				return nil, fmt.Errorf("at %s: coalesce: %v", x.Pos, cerr)
			}
		}
		out := args[len(args)-1]
		for i := len(args) - 2; i >= 0; i-- {
			out = &IfElse{
				Cond: &Un{Op: "isnull", X: args[i], K: types.KindBool},
				Then: out,
				Else: args[i],
				K:    k,
			}
		}
		return out, nil
	case "nullif":
		args, err := bindArgs(2)
		if err != nil {
			return nil, err
		}
		eq, err := b.makeBin("=", args[0], args[1], x.Pos)
		if err != nil {
			return nil, err
		}
		k := args[0].Kind()
		return &IfElse{Cond: eq, Then: &Const{Val: types.Null(k)}, Else: args[0], K: k}, nil
	case "greatest", "least":
		if len(x.Args) < 2 {
			return nil, fmt.Errorf("at %s: %s needs at least two arguments", x.Pos, x.Name)
		}
		args, err := bindArgs(-1)
		if err != nil {
			return nil, err
		}
		op := ">="
		if x.Name == "least" {
			op = "<="
		}
		out := args[0]
		for _, a := range args[1:] {
			cmp, err := b.makeBin(op, out, a, x.Pos)
			if err != nil {
				return nil, err
			}
			k, err := types.CommonKind(out.Kind(), a.Kind())
			if err != nil {
				return nil, fmt.Errorf("at %s: %s: %v", x.Pos, x.Name, err)
			}
			// SQL GREATEST/LEAST yield NULL when any argument is NULL.
			picked := &IfElse{Cond: cmp, Then: out, Else: a, K: k}
			out = &IfElse{
				Cond: &Un{Op: "isnull", X: a, K: types.KindBool},
				Then: &Const{Val: types.Null(k)},
				Else: picked,
				K:    k,
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("at %s: unknown function %q", x.Pos, x.Name)
	}
}

func (b *Binder) bindCase(s *Scope, x *ast.CaseExpr) (Expr, error) {
	// Determine the common result kind across all arms.
	k := types.KindVoid
	type arm struct{ cond, res Expr }
	arms := make([]arm, 0, len(x.Whens))
	for _, w := range x.Whens {
		cond, err := b.bindExpr(s, w.Cond)
		if err != nil {
			return nil, err
		}
		if cond.Kind() != types.KindBool && cond.Kind() != types.KindVoid {
			return nil, fmt.Errorf("at %s: CASE condition must be boolean, got %s", x.Pos, cond.Kind())
		}
		res, err := b.bindExpr(s, w.Result)
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
		e, err := b.bindExpr(s, x.Else)
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
	return out, nil
}

func (b *Binder) bindCellRef(s *Scope, x *ast.CellRef) (Expr, error) {
	a, ok := s.Arrays[x.Array]
	if !ok {
		// Fall back to the catalog for arrays not in the FROM clause.
		if _, a = b.Lookup(x.Array); a == nil {
			return nil, fmt.Errorf("at %s: %q is not an array in scope", x.Pos, x.Array)
		}
	}
	if len(x.Coords) != len(a.Shape) {
		return nil, fmt.Errorf("at %s: array %q has %d dimensions, got %d coordinates",
			x.Pos, x.Array, len(a.Shape), len(x.Coords))
	}
	attrIdx := 0
	if x.Attr != "" {
		i, ok := a.AttrIndex(x.Attr)
		if !ok {
			return nil, fmt.Errorf("at %s: array %q has no attribute %q", x.Pos, x.Array, x.Attr)
		}
		attrIdx = i
	} else if len(a.Attrs) != 1 {
		return nil, fmt.Errorf("at %s: array %q has %d attributes; qualify the cell reference",
			x.Pos, x.Array, len(a.Attrs))
	}
	coords := make([]Expr, len(x.Coords))
	for i, c := range x.Coords {
		ce, err := b.bindExpr(s, c)
		if err != nil {
			return nil, err
		}
		if !ce.Kind().Numeric() && ce.Kind() != types.KindVoid {
			return nil, fmt.Errorf("at %s: cell coordinates must be integers", x.Pos)
		}
		coords[i] = ce
	}
	return &CellFetch{A: a, AttrIdx: attrIdx, Coords: coords}, nil
}
