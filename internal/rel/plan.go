package rel

import (
	"fmt"
	"strings"

	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/shape"
	"repro/internal/types"
)

// ColInfo describes one column of an operator's output schema.
type ColInfo struct {
	Qual  string // table alias or name, empty for computed columns
	Name  string
	Kind  types.Kind
	IsDim bool // SciQL: the column is an array dimension

	// For dimension columns flowing out of an array scan: the source array
	// and dimension ordinal. Used to preserve the array's shape when the
	// query result is coerced back into an array (Fig. 1(e) keeps the 4x4
	// shape even though HAVING selects only a few anchors).
	Array  *catalog.Array
	DimIdx int
}

// Node is a logical plan operator.
type Node interface {
	Schema() []ColInfo
}

// ScanTable reads the live rows of a relational table.
type ScanTable struct {
	T     *catalog.Table
	Alias string
}

// Schema lists the table's columns.
func (s *ScanTable) Schema() []ColInfo {
	out := make([]ColInfo, len(s.T.Columns))
	for i, c := range s.T.Columns {
		out[i] = ColInfo{Qual: s.Alias, Name: c.Name, Kind: c.Type.Kind}
	}
	return out
}

// ScanArray reads the cells of an array as aligned columns: the dimensions
// first (in declaration order), then the attributes. When SlabLo/SlabHi
// are set (by the optimizer's dimension-range pushdown), only the cells of
// the hyper-rectangle with those inclusive index bounds are read —
// computed arithmetically from the shape, without scanning.
type ScanArray struct {
	A     *catalog.Array
	Alias string

	SlabLo, SlabHi []int
}

// Sliced reports whether a slab restriction applies.
func (s *ScanArray) Sliced() bool { return s.SlabLo != nil }

// Schema lists dimension columns then attribute columns.
func (s *ScanArray) Schema() []ColInfo {
	out := make([]ColInfo, 0, len(s.A.Shape)+len(s.A.Attrs))
	for k, d := range s.A.Shape {
		out = append(out, ColInfo{Qual: s.Alias, Name: d.Name, Kind: types.KindInt, IsDim: true, Array: s.A, DimIdx: k})
	}
	for _, c := range s.A.Attrs {
		out = append(out, ColInfo{Qual: s.Alias, Name: c.Name, Kind: c.Type.Kind})
	}
	return out
}

// ScanDual is the one-row, one-column source behind FROM-less SELECTs.
type ScanDual struct{}

// Schema is a single hidden boolean column.
func (*ScanDual) Schema() []ColInfo {
	return []ColInfo{{Name: "%dual", Kind: types.KindBool}}
}

// Filter keeps rows where Pred is true.
type Filter struct {
	Child Node
	Pred  Expr
}

// Schema passes the child schema through.
func (f *Filter) Schema() []ColInfo { return f.Child.Schema() }

// Project computes the output expressions. OutNames are the result column
// names; Dims flags SciQL dimensional items `[expr]`; ShapeHint, when
// non-nil, is the array shape the result preserves.
type Project struct {
	Child     Node
	Exprs     []Expr
	OutNames  []string
	Dims      []bool
	ShapeHint shape.Shape
}

// Schema derives column infos from the projection expressions.
func (p *Project) Schema() []ColInfo {
	out := make([]ColInfo, len(p.Exprs))
	for i, e := range p.Exprs {
		ci := ColInfo{Name: p.OutNames[i], Kind: e.Kind()}
		if i < len(p.Dims) {
			ci.IsDim = p.Dims[i]
		}
		if c, ok := e.(*Col); ok {
			ci.Array = c.Info.Array
			ci.DimIdx = c.Info.DimIdx
		}
		out[i] = ci
	}
	return out
}

// Join combines two inputs. With Cross set it is a cross product;
// otherwise LKeys/RKeys are the equi-join keys (evaluated over the left
// and right schemas respectively) and Residual is an extra predicate over
// the combined schema.
type Join struct {
	L, R      Node
	Cross     bool
	LeftOuter bool
	LKeys     []Expr
	RKeys     []Expr
	Residual  Expr

	// Est and Order are set by the join ordering pass (joinorder.go): the
	// estimated output cardinality and join algorithm for this node, and —
	// on the top join of a reordered tree — the chosen relation order.
	// Annotations only; the generator ignores them.
	Est   *JoinEst
	Order string
}

// Schema is the concatenation of both input schemas.
func (j *Join) Schema() []ColInfo {
	l := j.L.Schema()
	r := j.R.Schema()
	out := make([]ColInfo, 0, len(l)+len(r))
	out = append(out, l...)
	out = append(out, r...)
	return out
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Agg  gdk.AggKind
	Arg  Expr // nil for COUNT(*)
	Name string
	K    types.Kind
}

// GroupAgg is value-based grouping: the output schema is the key
// expressions followed by the aggregates, one row per group. With no keys
// it produces exactly one row (global aggregation).
type GroupAgg struct {
	Child    Node
	Keys     []Expr
	KeyNames []string
	Aggs     []AggSpec
}

// Schema lists key columns then aggregate columns.
func (g *GroupAgg) Schema() []ColInfo {
	out := make([]ColInfo, 0, len(g.Keys)+len(g.Aggs))
	for i, k := range g.Keys {
		ci := ColInfo{Name: g.KeyNames[i], Kind: k.Kind()}
		if c, ok := k.(*Col); ok {
			ci.IsDim = c.Info.IsDim
			ci.Array = c.Info.Array
			ci.DimIdx = c.Info.DimIdx
		}
		out = append(out, ci)
	}
	for _, a := range g.Aggs {
		out = append(out, ColInfo{Name: a.Name, Kind: a.K})
	}
	return out
}

// TileAgg is SciQL structural grouping over one array: every cell is an
// anchor; each aggregate's Arg is evaluated cell-aligned over the array
// scan schema (dims then attrs) and aggregated over the tile. The output
// schema is the array scan schema (anchor-aligned) followed by the
// aggregates, one row per cell.
type TileAgg struct {
	A     *catalog.Array
	Alias string
	Tile  []gdk.TileRange
	Aggs  []AggSpec
	// UseSAT is set by the optimizer when the summed-area-table kernel
	// should be used.
	UseSAT bool
}

// Schema is the array scan schema plus aggregate columns.
func (t *TileAgg) Schema() []ColInfo {
	scan := (&ScanArray{A: t.A, Alias: t.Alias}).Schema()
	for _, a := range t.Aggs {
		scan = append(scan, ColInfo{Name: a.Name, Kind: a.K})
	}
	return scan
}

// Sort orders rows by the key expressions.
type Sort struct {
	Child Node
	Keys  []Expr
	Desc  []bool
}

// Schema passes the child schema through.
func (s *Sort) Schema() []ColInfo { return s.Child.Schema() }

// Limit keeps Count rows starting at Offset. Count < 0 means unlimited.
type Limit struct {
	Child  Node
	Offset int64
	Count  int64
}

// Schema passes the child schema through.
func (l *Limit) Schema() []ColInfo { return l.Child.Schema() }

// Distinct removes duplicate rows.
type Distinct struct {
	Child Node
}

// Schema passes the child schema through.
func (d *Distinct) Schema() []ColInfo { return d.Child.Schema() }

// UnionAll concatenates two inputs with compatible schemas.
type UnionAll struct {
	L, R Node
}

// Schema is the left input's schema.
func (u *UnionAll) Schema() []ColInfo { return u.L.Schema() }

// ---------------------------------------------------------------- explain

// Explain renders the plan as an indented tree for the EXPLAIN statement.
func Explain(n Node) string {
	var sb strings.Builder
	explain(&sb, n, 0)
	return sb.String()
}

func explain(sb *strings.Builder, n Node, depth int) {
	ind := strings.Repeat("  ", depth)
	switch x := n.(type) {
	case *ScanTable:
		fmt.Fprintf(sb, "%sscan table %s", ind, x.T.Name)
		if x.Alias != "" && x.Alias != x.T.Name {
			fmt.Fprintf(sb, " as %s", x.Alias)
		}
		sb.WriteString("\n")
	case *ScanArray:
		fmt.Fprintf(sb, "%sscan array %s", ind, x.A.Name)
		if x.Alias != "" && x.Alias != x.A.Name {
			fmt.Fprintf(sb, " as %s", x.Alias)
		}
		if x.Sliced() {
			fmt.Fprintf(sb, " slab %v..%v", x.SlabLo, x.SlabHi)
		}
		fmt.Fprintf(sb, " %v\n", x.A.Shape)
	case *ScanDual:
		fmt.Fprintf(sb, "%sdual\n", ind)
	case *Filter:
		fmt.Fprintf(sb, "%sselect %s\n", ind, x.Pred)
		explain(sb, x.Child, depth+1)
	case *CandSelect:
		if x.Empty {
			fmt.Fprintf(sb, "%sselect candidates none (statistics prove the predicate empty)\n", ind)
		} else {
			fmt.Fprintf(sb, "%sselect candidates %s\n", ind, stepsString(x.Steps))
		}
		explain(sb, x.Child, depth+1)
	case *Project:
		items := make([]string, len(x.Exprs))
		for i, e := range x.Exprs {
			s := e.String()
			if x.Dims[i] {
				s = "[" + s + "]"
			}
			items[i] = s + " as " + x.OutNames[i]
		}
		fmt.Fprintf(sb, "%sproject %s\n", ind, strings.Join(items, ", "))
		explain(sb, x.Child, depth+1)
	case *Join:
		switch {
		case x.Cross:
			fmt.Fprintf(sb, "%scross join", ind)
			if x.Residual != nil {
				fmt.Fprintf(sb, " where %s", x.Residual)
			}
		case x.LeftOuter:
			fmt.Fprintf(sb, "%sleft outer join on %s", ind, joinKeys(x))
		default:
			fmt.Fprintf(sb, "%sjoin on %s", ind, joinKeys(x))
			if x.Residual != nil {
				fmt.Fprintf(sb, " where %s", x.Residual)
			}
		}
		if x.Est != nil {
			fmt.Fprintf(sb, " [%s, ~%.0f rows]", x.Est.Algo, x.Est.Rows)
		}
		if x.Order != "" {
			fmt.Fprintf(sb, " (order %s)", x.Order)
		}
		sb.WriteString("\n")
		explain(sb, x.L, depth+1)
		explain(sb, x.R, depth+1)
	case *GroupAgg:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = k.String()
		}
		fmt.Fprintf(sb, "%sgroup by [%s] aggs %s\n", ind, strings.Join(keys, ", "), aggList(x.Aggs))
		explain(sb, x.Child, depth+1)
	case *TileAgg:
		tiles := make([]string, len(x.Tile))
		for i, t := range x.Tile {
			tiles[i] = fmt.Sprintf("[%+d:%+d)", t.Lo, t.Hi)
		}
		kernel := "generic"
		if x.UseSAT {
			kernel = "summed-area-table"
		}
		fmt.Fprintf(sb, "%stile %s%s aggs %s kernel=%s\n", ind, x.A.Name, strings.Join(tiles, ""), aggList(x.Aggs), kernel)
	case *Sort:
		keys := make([]string, len(x.Keys))
		for i, k := range x.Keys {
			keys[i] = k.String()
			if x.Desc[i] {
				keys[i] += " desc"
			}
		}
		fmt.Fprintf(sb, "%sorder by %s\n", ind, strings.Join(keys, ", "))
		explain(sb, x.Child, depth+1)
	case *Limit:
		fmt.Fprintf(sb, "%slimit %d offset %d\n", ind, x.Count, x.Offset)
		explain(sb, x.Child, depth+1)
	case *Distinct:
		fmt.Fprintf(sb, "%sdistinct\n", ind)
		explain(sb, x.Child, depth+1)
	case *UnionAll:
		fmt.Fprintf(sb, "%sunion all\n", ind)
		explain(sb, x.L, depth+1)
		explain(sb, x.R, depth+1)
	case *Write:
		if x.Delete {
			fmt.Fprintf(sb, "%sdelete from %s\n", ind, x.Name())
		} else {
			sets := make([]string, len(x.Sets))
			for k, s := range x.Sets {
				sets[k] = x.TargetName(k) + " = " + s.Val.String()
			}
			fmt.Fprintf(sb, "%supdate %s set %s\n", ind, x.Name(), strings.Join(sets, ", "))
		}
		explain(sb, x.Child, depth+1)
	default:
		fmt.Fprintf(sb, "%s?%T\n", ind, n)
	}
}

func joinKeys(j *Join) string {
	parts := make([]string, len(j.LKeys))
	for i := range j.LKeys {
		parts[i] = fmt.Sprintf("%s = %s", j.LKeys[i], j.RKeys[i])
	}
	return strings.Join(parts, " and ")
}

// stepsString renders a candidate-selection chain for EXPLAIN output.
func stepsString(steps []SelStep) string {
	parts := make([]string, len(steps))
	for i, s := range steps {
		switch {
		case s.Atom != nil:
			parts[i] = s.Atom.String()
		case s.Or != nil:
			ors := make([]string, len(s.Or))
			for j, a := range s.Or {
				ors[j] = a.String()
			}
			parts[i] = "(" + strings.Join(ors, " or ") + ")"
		default:
			parts[i] = "residual " + s.Pred.String()
		}
	}
	return strings.Join(parts, " -> ")
}

func aggList(aggs []AggSpec) string {
	parts := make([]string, len(aggs))
	for i, a := range aggs {
		arg := "*"
		if a.Arg != nil {
			arg = a.Arg.String()
		}
		parts[i] = fmt.Sprintf("%s(%s)", a.Agg, arg)
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
