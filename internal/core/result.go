package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/bat"
	"repro/internal/gdk"
	"repro/internal/mal"
	"repro/internal/shape"
	"repro/internal/types"
)

// Result is the outcome of one statement. Query results carry aligned
// columns; when the projection contains SciQL dimensional items `[expr]`
// the result is an array (IsArray) with a concrete Shape: the columns are
// then cell-aligned (dimension columns first, in Fig. 3 series layout).
type Result struct {
	Names []string
	Kinds []types.Kind
	Dims  []bool
	Cols  []*bat.BAT

	IsArray bool
	Shape   shape.Shape

	// Affected is the row/cell count touched by a DML statement.
	Affected int
	// Text carries EXPLAIN/PLAN and status output.
	Text string
}

func textResult(s string) *Result { return &Result{Text: s} }

func statusResult(format string, args ...any) *Result {
	return &Result{Text: fmt.Sprintf(format, args...)}
}

// NumRows returns the number of rows (cells for array results).
func (r *Result) NumRows() int {
	if len(r.Cols) == 0 {
		return 0
	}
	return r.Cols[0].Len()
}

// NumCols returns the number of columns.
func (r *Result) NumCols() int { return len(r.Cols) }

// Value returns the value at (row, col).
func (r *Result) Value(row, col int) types.Value { return r.Cols[col].Get(row) }

// assembleResult converts an executed MAL program into a Result, applying
// SciQL table→array coercion when the projection has dimensional items.
func assembleResult(q *stmt, prog *mal.Program, ctx *mal.Ctx) (*Result, error) {
	res, err := rawResult(prog, ctx)
	if err != nil || !slices.Contains(res.Dims, true) {
		return res, err
	}
	return coerceToArray(q, res, prog.ShapeHint)
}

// rawResult collects an executed program's result columns as they are,
// before any array coercion.
func rawResult(prog *mal.Program, ctx *mal.Ctx) (*Result, error) {
	res := &Result{
		Names: prog.ResultNames,
		Kinds: prog.ResultKinds,
		Dims:  prog.ResultDims,
	}
	for _, v := range prog.ResultVars {
		b, ok := ctx.Vars[v].(*bat.BAT)
		if !ok {
			return nil, fmt.Errorf("result variable X_%d is not a column", v)
		}
		res.Cols = append(res.Cols, b)
	}
	return res, nil
}

// coerceToArray builds an array result: dimension bounds come from the
// preserved shape hint when available, otherwise they are derived from the
// dimension columns (§2: "an unbounded array with actual size derived from
// the dimension column expressions"). Cells not present in the rows stay
// NULL; duplicate positions keep the last row; rows outside the hinted
// shape, a NULL coordinate included, are dropped.
//
// When the rows already are the cells in order (every Scenario 2 raster
// query and the Life step over a whole array) the columns are the result
// as they stand; otherwise each attribute is scattered once into a column
// of holes.
func coerceToArray(q *stmt, r *Result, hint shape.Shape) (*Result, error) {
	var dimIdx, attrIdx []int
	for i, d := range r.Dims {
		if d {
			dimIdx = append(dimIdx, i)
		} else {
			attrIdx = append(attrIdx, i)
		}
	}
	hinted := hint != nil && len(hint) == len(dimIdx)
	sh := hint
	if !hinted {
		sh = make(shape.Shape, len(dimIdx))
	}
	coords := make([][]int64, len(dimIdx))
	nulls := false
	for k, ci := range dimIdx {
		col := r.Cols[ci]
		switch col.Kind() {
		case types.KindInt, types.KindOID, types.KindVoid:
		default:
			return nil, fmt.Errorf("dimension column %q must be integer, got %s", r.Names[ci], col.ValueKind())
		}
		if col.HasNulls() {
			if !hinted {
				return nil, fmt.Errorf("NULL value in dimension column %q", r.Names[ci])
			}
			nulls = true
		}
		coords[k] = col.Materialize().DecodedInts(q.job)
		if !hinted {
			sh[k] = spanDim(r.Names[ci], coords[k])
		}
	}
	identity := !nulls && gdk.CellsInOrder(sh, coords)
	var pos []int
	if !identity {
		pos, _ = gdk.CellPos(sh, coords)
		for _, ci := range dimIdx {
			for i := 0; nulls && i < len(pos); i++ {
				if r.Cols[ci].IsNull(i) {
					pos[i] = -1
				}
			}
		}
	}

	out := &Result{IsArray: true, Shape: sh}
	// Dimension columns in series layout; rows that are the cells in order
	// carry the series already (an empty result included).
	var series []*bat.BAT
	if !identity {
		var err error
		if series, err = gdk.DimBATs(sh); err != nil {
			return nil, err
		}
	}
	for k, ci := range dimIdx {
		col := r.Cols[ci]
		switch {
		case !identity:
			col = series[k]
		case col.Kind() != types.KindInt:
			col = bat.FromInts(coords[k])
		}
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, types.KindInt)
		out.Dims = append(out.Dims, true)
		out.Cols = append(out.Cols, col)
	}
	for _, ci := range attrIdx {
		cell := r.Cols[ci].Materialize()
		if !identity {
			var err error
			if cell, err = bat.Filler(q.job, sh.Cells(), types.NullUnknown(), r.Cols[ci].ValueKind()); err != nil {
				return nil, err
			}
			if err := cell.ReplaceAt(pos, r.Cols[ci]); err != nil {
				return nil, err
			}
		}
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, cell.ValueKind())
		out.Dims = append(out.Dims, false)
		out.Cols = append(out.Cols, cell)
	}
	return out, nil
}

// spanDim derives an unhinted result dimension from its coordinates in
// one pass: the range [lo, hi] on the step grid their offsets share (the
// GCD of the offsets from any one of them equals the GCD of the offsets
// from the minimum; 1 when indeterminate). No coordinates span the empty
// range [0:1:0].
func spanDim(name string, c []int64) shape.Dim {
	if len(c) == 0 {
		return shape.Dim{Name: name, Start: 0, Step: 1, Stop: 0}
	}
	lo, hi, g := c[0], c[0], int64(0)
	for _, v := range c {
		lo, hi = min(lo, v), max(hi, v)
		if g == 1 {
			continue // no step is finer
		}
		d := v - c[0]
		if d < 0 {
			d = -d
		}
		g = gcd(g, d)
	}
	if g == 0 {
		g = 1
	}
	return shape.Dim{Name: name, Start: lo, Step: g, Stop: hi + g}
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// String renders the result: DML/status text, or a column-aligned table
// (see Formatter.AppendText).
func (r *Result) String() string {
	if r.Text != "" {
		return r.Text
	}
	var f Formatter
	f.Format(r)
	return string(f.AppendText(nil))
}

// Grid renders a 2-D single-attribute array result as a coordinate grid
// (rows = second dimension descending, like the paper's Fig. 1), with
// "null" for holes.
func (r *Result) Grid() (string, error) {
	if !r.IsArray || len(r.Shape) != 2 {
		return "", fmt.Errorf("grid rendering needs a 2-D array result")
	}
	attr := -1
	for i, d := range r.Dims {
		if !d {
			if attr >= 0 {
				return "", fmt.Errorf("grid rendering needs exactly one attribute")
			}
			attr = i
		}
	}
	if attr < 0 {
		return "", fmt.Errorf("grid rendering needs an attribute column")
	}
	col := r.Cols[attr]
	dx, dy := r.Shape[0], r.Shape[1]
	var sb strings.Builder
	for yi := dy.N() - 1; yi >= 0; yi-- {
		y := dy.Value(yi)
		vals := make([]string, dx.N())
		for xi := 0; xi < dx.N(); xi++ {
			p, _ := r.Shape.Pos([]int64{dx.Value(xi), y})
			vals[xi] = col.Get(p).String()
		}
		fmt.Fprintf(&sb, "y=%-4d %s\n", y, strings.Join(vals, "\t"))
	}
	return sb.String(), nil
}
