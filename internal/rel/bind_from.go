package rel

import (
	"fmt"

	"repro/internal/sql/ast"
	"repro/internal/types"
)

// bindFrom binds the FROM clause: comma-separated items become cross joins
// (the optimizer later converts them into hash joins using WHERE equi
// predicates); explicit JOIN ... ON becomes an equi join immediately.
func (b *Binder) bindFrom(refs []ast.TableRef) (Node, *Scope, error) {
	var (
		node Node
		sc   *Scope
	)
	for _, ref := range refs {
		n, s, err := b.bindTableRef(ref)
		if err != nil {
			return nil, nil, err
		}
		if node == nil {
			node, sc = n, s
			continue
		}
		if err := checkDupAliases(sc, s); err != nil {
			return nil, nil, err
		}
		node = &Join{L: node, R: n, Cross: true}
		sc = sc.merge(s)
	}
	return node, sc, nil
}

func checkDupAliases(a, c *Scope) error {
	seen := map[string]bool{}
	for _, col := range a.Cols {
		if col.Qual != "" {
			seen[col.Qual] = true
		}
	}
	for _, col := range c.Cols {
		if col.Qual != "" && seen[col.Qual] {
			return fmt.Errorf("duplicate table alias %q in FROM", col.Qual)
		}
	}
	return nil
}

func (b *Binder) bindTableRef(ref ast.TableRef) (Node, *Scope, error) {
	switch x := ref.(type) {
	case *ast.BaseTable:
		alias := x.Alias
		if alias == "" {
			alias = x.Name
		}
		t, a := b.Lookup(x.Name)
		if t != nil {
			n := &ScanTable{T: t, Alias: alias}
			sc := NewScope(n.Schema())
			return n, sc, nil
		}
		if a != nil {
			n := &ScanArray{A: a, Alias: alias}
			sc := NewScope(n.Schema())
			sc.Arrays[alias] = a
			if alias != a.Name {
				sc.Arrays[a.Name] = a
			}
			return n, sc, nil
		}
		return nil, nil, fmt.Errorf("at %s: no such table or array: %q", x.Pos, x.Name)

	case *ast.SubqueryRef:
		inner, err := b.BindSelect(x.Query)
		if err != nil {
			return nil, nil, err
		}
		// Re-qualify the subquery's output columns with the alias; the scope
		// (not the node schema) drives name resolution, so the inner node is
		// returned unchanged.
		cols := inner.Schema()
		out := make([]ColInfo, len(cols))
		for i, c := range cols {
			c.Qual = x.Alias
			out[i] = c
		}
		return inner, NewScope(out), nil

	case *ast.JoinRef:
		ln, ls, err := b.bindTableRef(x.Left)
		if err != nil {
			return nil, nil, err
		}
		rn, rs, err := b.bindTableRef(x.Right)
		if err != nil {
			return nil, nil, err
		}
		if err := checkDupAliases(ls, rs); err != nil {
			return nil, nil, err
		}
		merged := ls.merge(rs)
		on, err := b.BindScalar(merged, x.On)
		if err != nil {
			return nil, nil, err
		}
		nl := len(ls.Cols)
		lkeys, rkeys, residual, err := splitJoinCondition(on, nl)
		if err != nil {
			return nil, nil, fmt.Errorf("at %s: %v", x.Pos, err)
		}
		if x.LeftOuter && residual != nil {
			return nil, nil, fmt.Errorf("at %s: LEFT JOIN conditions must be pure equi-joins", x.Pos)
		}
		if len(lkeys) == 0 {
			// No equi component: cross join plus residual filter (inner only).
			if x.LeftOuter {
				return nil, nil, fmt.Errorf("at %s: LEFT JOIN requires at least one equality condition", x.Pos)
			}
			j := &Join{L: ln, R: rn, Cross: true}
			var n Node = j
			if residual != nil {
				n = &Filter{Child: j, Pred: residual}
			}
			return n, merged, nil
		}
		j := &Join{L: ln, R: rn, LeftOuter: x.LeftOuter, LKeys: lkeys, RKeys: rkeys, Residual: residual}
		return j, merged, nil

	default:
		return nil, nil, fmt.Errorf("unsupported FROM clause item %T", ref)
	}
}

// splitJoinCondition decomposes a bound ON predicate into equi-join keys
// (left-side expr = right-side expr) and a residual predicate over the
// combined schema. nl is the left schema width.
func splitJoinCondition(on Expr, nl int) (lkeys, rkeys []Expr, residual Expr, err error) {
	for _, conj := range splitConjuncts(on) {
		bin, ok := conj.(*Bin)
		if ok && bin.Op == "=" {
			lSide := sideOf(bin.L, nl)
			rSide := sideOf(bin.R, nl)
			switch {
			case lSide == sideLeft && rSide == sideRight:
				lkeys = append(lkeys, bin.L)
				rkeys = append(rkeys, MapCols(bin.R, func(i int) int { return i - nl }))
				continue
			case lSide == sideRight && rSide == sideLeft:
				lkeys = append(lkeys, bin.R)
				rkeys = append(rkeys, MapCols(bin.L, func(i int) int { return i - nl }))
				continue
			}
		}
		residual = andExprs(residual, conj)
	}
	return lkeys, rkeys, residual, nil
}

type side int

const (
	sideNone side = iota // constants: usable on either side
	sideLeft
	sideRight
	sideBoth
)

// sideOf classifies which input's columns an expression references.
func sideOf(e Expr, nl int) side {
	s := sideNone
	WalkExpr(e, func(x Expr) {
		c, ok := x.(*Col)
		if !ok {
			if _, isCell := x.(*CellFetch); isCell {
				s = sideBoth // conservatively not a pure key
			}
			return
		}
		var cs side
		if c.Idx < nl {
			cs = sideLeft
		} else {
			cs = sideRight
		}
		switch {
		case s == sideNone:
			s = cs
		case s != cs:
			s = sideBoth
		}
	})
	return s
}

// splitConjuncts flattens an AND tree.
func splitConjuncts(e Expr) []Expr {
	if b, ok := e.(*Bin); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}

// andExprs conjoins two (possibly nil) predicates.
func andExprs(a, b Expr) Expr {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	return &Bin{Op: "AND", L: a, R: b, K: types.KindBool}
}
