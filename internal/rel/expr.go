// Package rel contains the bound logical algebra of the engine: the binder
// resolves parsed SQL/SciQL statements against the catalog into typed plan
// trees (this package), which the MAL generator (internal/mal) lowers into
// executable MAL programs. It corresponds to the "SQL/SciQL compiler →
// relational algebra" stage of the paper's Fig. 2.
package rel

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/types"
)

// Expr is a bound, typed scalar expression evaluated over an operator's
// output schema.
type Expr interface {
	// Kind is the expression's result kind.
	Kind() types.Kind
	// String renders the expression for EXPLAIN output.
	String() string
}

// Col references a column of the input schema by ordinal.
type Col struct {
	Idx  int
	Info ColInfo
}

// Kind returns the column kind.
func (c *Col) Kind() types.Kind { return c.Info.Kind }

func (c *Col) String() string {
	if c.Info.Qual != "" {
		return fmt.Sprintf("%s.%s#%d", c.Info.Qual, c.Info.Name, c.Idx)
	}
	return fmt.Sprintf("%s#%d", c.Info.Name, c.Idx)
}

// Const is a literal.
type Const struct {
	Val types.Value
}

// Kind returns the literal kind.
func (c *Const) Kind() types.Kind { return c.Val.Kind() }

func (c *Const) String() string {
	if !c.Val.IsNull() && c.Val.Kind() == types.KindStr {
		return "'" + c.Val.StrVal() + "'"
	}
	return c.Val.String()
}

// Bin is a binary operation. Op is one of the arithmetic operators
// (+ - * / %), comparisons (= <> < <= > >=), AND, OR, || or LIKE.
type Bin struct {
	Op   string
	L, R Expr
	K    types.Kind
}

// Kind returns the result kind.
func (b *Bin) Kind() types.Kind { return b.K }

func (b *Bin) String() string { return fmt.Sprintf("(%s %s %s)", b.L, b.Op, b.R) }

// Un is a unary operation: "-", "NOT", "isnull", "abs", "sqrt", "floor",
// "ceil", "exp", "log", "upper", "lower", "length".
type Un struct {
	Op string
	X  Expr
	K  types.Kind
}

// Kind returns the result kind.
func (u *Un) Kind() types.Kind { return u.K }

func (u *Un) String() string { return fmt.Sprintf("%s(%s)", u.Op, u.X) }

// IfElse evaluates Then where Cond is true and Else where it is false or
// NULL — the building block CASE chains desugar into.
type IfElse struct {
	Cond, Then, Else Expr
	K                types.Kind
}

// Kind returns the result kind.
func (e *IfElse) Kind() types.Kind { return e.K }

func (e *IfElse) String() string {
	return fmt.Sprintf("if(%s, %s, %s)", e.Cond, e.Then, e.Else)
}

// Cast converts its operand to a target kind.
type Cast struct {
	X  Expr
	To types.Kind
}

// Kind returns the target kind.
func (c *Cast) Kind() types.Kind { return c.To }

func (c *Cast) String() string { return fmt.Sprintf("cast(%s as %s)", c.X, c.To) }

// Substr is SUBSTRING(X FROM From FOR For).
type Substr struct {
	X, From, For Expr
}

// Kind returns the string kind.
func (s *Substr) Kind() types.Kind { return types.KindStr }

func (s *Substr) String() string {
	return fmt.Sprintf("substring(%s, %s, %s)", s.X, s.From, s.For)
}

// CellFetch addresses an array cell by absolute coordinates computed from
// the current row (SciQL relative cell addressing, e.g. img[x-1][y].v).
type CellFetch struct {
	A       *catalog.Array
	AttrIdx int
	Coords  []Expr
}

// Kind returns the fetched attribute's kind.
func (c *CellFetch) Kind() types.Kind { return c.A.Attrs[c.AttrIdx].Type.Kind }

func (c *CellFetch) String() string {
	var sb strings.Builder
	sb.WriteString(c.A.Name)
	for _, e := range c.Coords {
		fmt.Fprintf(&sb, "[%s]", e)
	}
	sb.WriteString("." + c.A.Attrs[c.AttrIdx].Name)
	return sb.String()
}

// WalkExpr visits e and its children, parents first.
func WalkExpr(e Expr, visit func(Expr)) {
	if e == nil {
		return
	}
	visit(e)
	switch x := e.(type) {
	case *Bin:
		WalkExpr(x.L, visit)
		WalkExpr(x.R, visit)
	case *Un:
		WalkExpr(x.X, visit)
	case *IfElse:
		WalkExpr(x.Cond, visit)
		WalkExpr(x.Then, visit)
		WalkExpr(x.Else, visit)
	case *Cast:
		WalkExpr(x.X, visit)
	case *Substr:
		WalkExpr(x.X, visit)
		WalkExpr(x.From, visit)
		WalkExpr(x.For, visit)
	case *CellFetch:
		for _, c := range x.Coords {
			WalkExpr(c, visit)
		}
	}
}

// MapCols rewrites every Col ordinal through f, returning a new tree.
func MapCols(e Expr, f func(int) int) Expr {
	switch x := e.(type) {
	case nil:
		return nil
	case *Col:
		return &Col{Idx: f(x.Idx), Info: x.Info}
	case *Const:
		return x
	case *Bin:
		return &Bin{Op: x.Op, L: MapCols(x.L, f), R: MapCols(x.R, f), K: x.K}
	case *Un:
		return &Un{Op: x.Op, X: MapCols(x.X, f), K: x.K}
	case *IfElse:
		return &IfElse{Cond: MapCols(x.Cond, f), Then: MapCols(x.Then, f), Else: MapCols(x.Else, f), K: x.K}
	case *Cast:
		return &Cast{X: MapCols(x.X, f), To: x.To}
	case *Substr:
		return &Substr{X: MapCols(x.X, f), From: MapCols(x.From, f), For: MapCols(x.For, f)}
	case *CellFetch:
		coords := make([]Expr, len(x.Coords))
		for i, c := range x.Coords {
			coords[i] = MapCols(c, f)
		}
		return &CellFetch{A: x.A, AttrIdx: x.AttrIdx, Coords: coords}
	default:
		panic(fmt.Sprintf("rel: unknown expr %T", e))
	}
}
