package core

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/mal"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/types"
)

// insertSource materialises the literal VALUES rows of an INSERT. It
// binds against an explicit catalog so the optimistic write path can
// stage rows off a published snapshot (see optimistic.go).
func insertSource(cat *catalog.Catalog, s *ast.Insert, wantCols int) ([][]types.Value, error) {
	b := rel.NewBinder(cat)
	rows := make([][]types.Value, 0, len(s.Rows))
	for _, r := range s.Rows {
		if len(r) != wantCols {
			return nil, fmt.Errorf("INSERT expects %d values per row, got %d", wantCols, len(r))
		}
		row := make([]types.Value, len(r))
		for i, e := range r {
			v, err := b.ConstValue(e)
			if err != nil {
				return nil, fmt.Errorf("at %s: %v", e.Position(), err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// runSelectRaw executes the query side of an INSERT under the statement's
// context, without array coercion (positions matter, not the coerced
// shape).
func (db *DB) runSelectRaw(ctx context.Context, sel *ast.Select) (*Result, error) {
	prog, err := compileSelect(db.cat, sel)
	if err != nil {
		return nil, err
	}
	mctx, err := mal.RunCtx(ctx, prog)
	if err != nil {
		return nil, err
	}
	return rawResult(prog, mctx)
}

// insert implements INSERT INTO for both tables (append) and arrays
// (overwrite cells at the given positions, §2).
func (db *DB) insert(ctx context.Context, s *ast.Insert) (*Result, error) {
	if t, ok := db.cat.Table(s.Table); ok {
		return db.insertTable(ctx, s, t)
	}
	if a, ok := db.cat.Array(s.Table); ok {
		return db.insertArray(ctx, s, a)
	}
	return nil, fmt.Errorf("at %s: no such table or array: %q", s.Pos, s.Table)
}

// insertMapping resolves the target column ordinal per source column of
// a table INSERT.
func insertMapping(t *catalog.Table, s *ast.Insert) ([]int, error) {
	mapping := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			mapping = append(mapping, i)
		}
		return mapping, nil
	}
	for _, name := range s.Columns {
		i, ok := t.ColumnIndex(name)
		if !ok {
			return nil, fmt.Errorf("at %s: table %q has no column %q", s.Pos, t.Name, name)
		}
		mapping = append(mapping, i)
	}
	return mapping, nil
}

// castInsertRows is phase 1 of a table INSERT: cast every row and fill
// defaults before touching storage, so a bad value fails the whole
// statement cleanly (no partial append) and the WAL record matches the
// applied effect exactly. Pure: safe against a frozen snapshot table.
func castInsertRows(t *catalog.Table, mapping []int, rows [][]types.Value) ([][]types.Value, error) {
	full := make([][]types.Value, len(rows))
	for ri, row := range rows {
		vals := make([]types.Value, len(t.Columns))
		filled := make([]bool, len(t.Columns))
		for si, ti := range mapping {
			v, err := row[si].Cast(t.Columns[ti].Type.Kind)
			if err != nil {
				return nil, fmt.Errorf("column %q: %v", t.Columns[ti].Name, err)
			}
			vals[ti] = v
			filled[ti] = true
		}
		for i, col := range t.Columns {
			if !filled[i] {
				if col.HasDef {
					vals[i] = col.Default
				} else {
					vals[i] = types.Null(col.Type.Kind)
				}
			}
		}
		full[ri] = vals
	}
	return full, nil
}

// stageTableInsert resolves and casts the literal rows of an
// INSERT ... VALUES, entirely read-only against cat: the plan half of
// insertTable, shared with the optimistic write path.
func stageTableInsert(cat *catalog.Catalog, t *catalog.Table, s *ast.Insert) ([][]types.Value, error) {
	mapping, err := insertMapping(t, s)
	if err != nil {
		return nil, err
	}
	rows, err := insertSource(cat, s, len(mapping))
	if err != nil {
		return nil, err
	}
	return castInsertRows(t, mapping, rows)
}

// applyTableInsert is phase 2 of a table INSERT: append the staged rows
// under the writer lock and log the effect (appends beyond the frozen
// count are invisible to published snapshots, no copy-on-write needed).
func (db *DB) applyTableInsert(t *catalog.Table, full [][]types.Value) (*Result, error) {
	db.noteModifyTable(t)
	for _, vals := range full {
		for i := range t.Columns {
			if err := t.Bats[i].Append(vals[i]); err != nil {
				return nil, err
			}
		}
	}
	if t.Deleted != nil {
		t.Deleted.Resize(t.PhysRows())
	}
	if db.durable() && len(full) > 0 {
		db.logRecord(encTableAppend(t.Name, len(t.Columns), full))
	}
	return &Result{Affected: len(full), Text: fmt.Sprintf("%d rows inserted", len(full))}, nil
}

func (db *DB) insertTable(ctx context.Context, s *ast.Insert, t *catalog.Table) (*Result, error) {
	if s.Query == nil {
		full, err := stageTableInsert(db.cat, t, s)
		if err != nil {
			return nil, err
		}
		return db.applyTableInsert(t, full)
	}
	mapping, err := insertMapping(t, s)
	if err != nil {
		return nil, err
	}
	res, qerr := db.runSelectRaw(ctx, s.Query)
	if qerr != nil {
		return nil, qerr
	}
	if res.NumCols() != len(mapping) {
		return nil, fmt.Errorf("INSERT expects %d columns, query produces %d", len(mapping), res.NumCols())
	}
	rows := make([][]types.Value, res.NumRows())
	for i := range rows {
		rows[i] = res.Row(i)
	}
	full, err := castInsertRows(t, mapping, rows)
	if err != nil {
		return nil, err
	}
	return db.applyTableInsert(t, full)
}

// arrayTarget is one source column of an array INSERT: a dimension or an
// attribute of the target array, by ordinal.
type arrayTarget struct {
	isDim bool
	idx   int
}

// arrayTargets resolves the source columns of an array INSERT: dimensions
// then attributes in declaration order unless listed; every dimension
// must be provided.
func arrayTargets(a *catalog.Array, s *ast.Insert) ([]arrayTarget, error) {
	var targets []arrayTarget
	if len(s.Columns) == 0 {
		for k := range a.Shape {
			targets = append(targets, arrayTarget{true, k})
		}
		for i := range a.Attrs {
			targets = append(targets, arrayTarget{false, i})
		}
	} else {
		for _, name := range s.Columns {
			if k, ok := a.DimIndex(name); ok {
				targets = append(targets, arrayTarget{true, k})
				continue
			}
			if i, ok := a.AttrIndex(name); ok {
				targets = append(targets, arrayTarget{false, i})
				continue
			}
			return nil, fmt.Errorf("at %s: array %q has no column %q", s.Pos, a.Name, name)
		}
	}
	dimSeen := make([]bool, len(a.Shape))
	for _, tg := range targets {
		if tg.isDim {
			dimSeen[tg.idx] = true
		}
	}
	for k, seen := range dimSeen {
		if !seen {
			return nil, fmt.Errorf("at %s: INSERT into array %q must provide dimension %q", s.Pos, a.Name, a.Shape[k].Name)
		}
	}
	return targets, nil
}

// valuesColumns casts the literal rows of an array INSERT ... VALUES once
// into one typed column per target: dimensions to integer coordinates
// (Value.AsInt, NULLs kept for the coordinate check to refuse),
// attributes to the attribute kind.
func valuesColumns(a *catalog.Array, targets []arrayTarget, rows [][]types.Value) ([]*bat.BAT, error) {
	cols := make([]*bat.BAT, len(targets))
	for ti, tg := range targets {
		kind := types.KindInt
		if !tg.isDim {
			kind = a.Attrs[tg.idx].Type.Kind
		}
		col := bat.New(kind, len(rows))
		for _, row := range rows {
			v := row[ti]
			switch {
			case v.IsNull():
			case tg.isDim:
				iv, err := v.AsInt()
				if err != nil {
					return nil, fmt.Errorf("dimension %q: %v", a.Shape[tg.idx].Name, err)
				}
				v = types.Int(iv)
			default:
				cv, err := v.Cast(kind)
				if err != nil {
					return nil, fmt.Errorf("attribute %q: %v", a.Attrs[tg.idx].Name, err)
				}
				v = cv
			}
			if err := col.Append(v); err != nil {
				return nil, err
			}
		}
		cols[ti] = col
	}
	return cols, nil
}

// arrayWrite is the columnar effect of an array INSERT: the (possibly
// grown) shape, the target cell of every source row, and per written
// attribute one column cast to its kind, aligned with pos.
type arrayWrite struct {
	shape shape.Shape
	pos   []int
	attrs []int
	vals  []*bat.BAT
}

// stageArrayInsert validates an array INSERT's source columns and turns
// them into its write set without touching the array: coordinates
// (NULL or non-integer fails), growth of unbounded dimensions (off-grid
// fails), cell positions in the grown shape (outside fails), attribute
// casts (a failed cast fails), in that order.
func stageArrayInsert(a *catalog.Array, targets []arrayTarget, cols []*bat.BAT) (*arrayWrite, error) {
	coords := make([][]int64, len(a.Shape))
	for ti, tg := range targets {
		if tg.isDim {
			c, err := coordInts(cols[ti], a.Shape[tg.idx].Name)
			if err != nil {
				return nil, err
			}
			coords[tg.idx] = c
		}
	}
	sh, err := grownShape(a, coords)
	if err != nil {
		return nil, err
	}
	w := &arrayWrite{shape: sh}
	var outside int
	if w.pos, outside = gdk.CellPos(sh, coords); outside > 0 {
		i := slices.Index(w.pos, -1)
		cell := make([]int64, len(coords))
		for k := range coords {
			cell[k] = coords[k][i]
		}
		return nil, fmt.Errorf("cell %v is outside the dimension ranges of array %q", cell, a.Name)
	}
	for ti, tg := range targets {
		if tg.isDim {
			continue
		}
		col := cols[ti]
		if kind := a.Attrs[tg.idx].Type.Kind; col.ValueKind() != kind {
			if col, err = gdk.CastBAT(gdk.B(col), kind, nil); err != nil {
				return nil, fmt.Errorf("attribute %q: %v", a.Attrs[tg.idx].Name, err)
			}
		}
		w.attrs = append(w.attrs, tg.idx)
		w.vals = append(w.vals, col)
	}
	return w, nil
}

// coordInts reads one source column of an array INSERT as integer
// coordinates, with Value.AsInt semantics: integers as they are, floats
// truncated toward zero; a NULL or a value with no integer reading fails.
func coordInts(col *bat.BAT, dim string) ([]int64, error) {
	nullErr := func() error { return fmt.Errorf("NULL value for dimension %q", dim) }
	switch col.Kind() {
	case types.KindInt, types.KindOID, types.KindVoid:
		if col.HasNulls() {
			return nil, nullErr()
		}
		return col.Materialize().DecodedInts(), nil
	case types.KindFloat:
		fs := col.DecodedFloats()
		out := make([]int64, len(fs))
		for i, f := range fs {
			if col.IsNull(i) {
				return nil, nullErr()
			}
			v, err := types.Float(f).AsInt()
			if err != nil {
				return nil, fmt.Errorf("dimension %q: %v", dim, err)
			}
			out[i] = v
		}
		return out, nil
	}
	// No bool or string value reads as an integer, so the first row decides.
	if col.Len() == 0 {
		return nil, nil
	}
	if col.IsNull(0) {
		return nil, nullErr()
	}
	_, err := col.Get(0).AsInt()
	return nil, fmt.Errorf("dimension %q: %v", dim, err)
}

// insertArray overwrites the cells an INSERT's rows address (§2): its
// source — the query's result columns, or the literal rows cast once into
// columns — becomes a columnar write set, validated whole before the
// array changes.
func (db *DB) insertArray(ctx context.Context, s *ast.Insert, a *catalog.Array) (*Result, error) {
	targets, err := arrayTargets(a, s)
	if err != nil {
		return nil, err
	}
	var cols []*bat.BAT
	if s.Query != nil {
		res, err := db.runSelectRaw(ctx, s.Query)
		if err != nil {
			return nil, err
		}
		if res.NumCols() != len(targets) {
			return nil, fmt.Errorf("INSERT expects %d columns, query produces %d", len(targets), res.NumCols())
		}
		cols = res.Cols
	} else {
		rows, err := insertSource(db.cat, s, len(targets))
		if err != nil {
			return nil, err
		}
		if cols, err = valuesColumns(a, targets, rows); err != nil {
			return nil, err
		}
	}
	w, err := stageArrayInsert(a, targets, cols)
	if err != nil {
		return nil, err
	}
	return db.applyArrayWrite(a, w)
}

// applyArrayWrite reshapes the array to the write set's shape, then
// scatters each attribute column into its cells and logs the effect.
// Cell overwrites are in-place, so any attribute column shared with a
// published snapshot is cloned first (copy-on-write); concurrent readers
// keep their frozen version.
func (db *DB) applyArrayWrite(a *catalog.Array, w *arrayWrite) (*Result, error) {
	db.noteModifyArray(a)
	grew := !shapesEqual(a.Shape, w.shape)
	if grew {
		if err := reshapeArrayTo(a, w.shape); err != nil {
			return nil, err
		}
	}
	// A source column may be one of the target columns itself (INSERT INTO
	// a SELECT ... FROM a): scatter from a copy, so every row is read as
	// it was before the statement wrote anything.
	for k, src := range w.vals {
		for _, ai := range w.attrs {
			if src == a.AttrBats[ai] {
				w.vals[k] = src.Clone()
				break
			}
		}
	}
	for k, ai := range w.attrs {
		a.AttrBats[ai] = a.AttrBats[ai].Writable()
		if err := a.AttrBats[ai].ReplaceAt(w.pos, w.vals[k]); err != nil {
			return nil, err
		}
	}
	if db.durable() && (grew || len(w.pos) > 0) {
		db.logRecord(encArrayCells(recArrayCells, a.Name, a.Shape, w.attrs, w.pos,
			func(cell, k int) types.Value { return w.vals[k].Get(cell) }))
	}
	return &Result{Affected: len(w.pos), Text: fmt.Sprintf("%d cells updated", len(w.pos))}, nil
}

// grownShape returns the shape of a after expanding its unbounded
// dimensions to cover the inserted coordinates, one column per dimension
// (a.Shape itself when nothing grows). Pure: the caller reshapes once the
// statement is known to succeed, filling fresh cells with attribute
// defaults.
func grownShape(a *catalog.Array, coords [][]int64) (shape.Shape, error) {
	newShape := append(shape.Shape{}, a.Shape...)
	for k := range a.Shape {
		c := coords[k]
		if !a.Unbounded[k] || len(c) == 0 {
			continue
		}
		d := &newShape[k]
		if d.N() == 0 {
			d.Start, d.Stop = c[0], c[0]+d.Step
		}
		lo, hi := c[0], c[0]
		for _, v := range c {
			// Keep the grid: the coordinate must be reachable by the step.
			if ((v-d.Start)%d.Step+d.Step)%d.Step != 0 {
				return nil, fmt.Errorf("coordinate %d is off the step grid of dimension %q", v, d.Name)
			}
			lo, hi = min(lo, v), max(hi, v)
		}
		if d.Step > 0 {
			if lo < d.Start {
				d.Start = lo
			}
			if hi >= d.Stop {
				d.Stop = hi + d.Step
			}
		} else {
			if hi > d.Start {
				d.Start = hi
			}
			if lo <= d.Stop {
				d.Stop = lo + d.Step
			}
		}
	}
	return newShape, nil
}

// update implements UPDATE for tables and arrays. Dimensions act as bound
// variables in expressions (§2) but cannot be assigned.
func (db *DB) update(s *ast.Update) (*Result, error) {
	if t, ok := db.cat.Table(s.Table); ok {
		return db.updateTable(s, t)
	}
	if a, ok := db.cat.Array(s.Table); ok {
		return db.updateArray(s, a)
	}
	return nil, fmt.Errorf("at %s: no such table or array: %q", s.Pos, s.Table)
}

func tableScope(t *catalog.Table) *rel.Scope {
	cols := make([]rel.ColInfo, len(t.Columns))
	for i, c := range t.Columns {
		cols[i] = rel.ColInfo{Qual: t.Name, Name: c.Name, Kind: c.Type.Kind}
	}
	return rel.NewScope(cols)
}

func arrayScope(a *catalog.Array) *rel.Scope {
	cols := make([]rel.ColInfo, 0, len(a.Shape)+len(a.Attrs))
	for k, d := range a.Shape {
		cols = append(cols, rel.ColInfo{Qual: a.Name, Name: d.Name, Kind: types.KindInt, IsDim: true, Array: a, DimIdx: k})
	}
	for _, c := range a.Attrs {
		cols = append(cols, rel.ColInfo{Qual: a.Name, Name: c.Name, Kind: c.Type.Kind})
	}
	sc := rel.NewScope(cols)
	sc.Arrays[a.Name] = a
	return sc
}

// arrayCols returns the aligned physical columns of an array scope:
// dimension BATs then attribute BATs.
func arrayCols(a *catalog.Array) []*bat.BAT {
	out := make([]*bat.BAT, 0, len(a.DimBats)+len(a.AttrBats))
	out = append(out, a.DimBats...)
	out = append(out, a.AttrBats...)
	return out
}

// tableUpdatePlan is the staged effect of a table UPDATE: the rows to
// touch, the SET target columns, and the fully cast replacement values
// (row-major, len(cols) per row). Planning is pure — it reads the table
// without mutating it — so a statement that fails applies nothing, in
// memory and on disk alike, and the optimistic path can plan against a
// frozen snapshot and apply against the live table once validated.
type tableUpdatePlan struct {
	cols []int
	idxs []int
	flat []types.Value
}

func planTableUpdate(cat *catalog.Catalog, t *catalog.Table, s *ast.Update) (*tableUpdatePlan, error) {
	b := rel.NewBinder(cat)
	sc := tableScope(t)
	n := t.PhysRows()
	mask, err := dmlMask(b, sc, t.Bats, n, s.Where)
	if err != nil {
		return nil, err
	}
	// Evaluate all SET expressions against the pre-update state.
	ops, err := bindTableSets(b, sc, t, n, s)
	if err != nil {
		return nil, err
	}
	// Cast every affected row into a flat buffer, so a cast failure
	// aborts before any overwrite and the WAL record matches the applied
	// effect exactly.
	p := &tableUpdatePlan{cols: make([]int, len(ops))}
	for k, op := range ops {
		p.cols[k] = op.col
	}
	mt := maskTrue(mask)
	for i := 0; i < n; i++ {
		if t.Deleted.Get(i) || !mt(i) {
			continue
		}
		for _, op := range ops {
			cv, err := op.vals.Get(i).Cast(t.Columns[op.col].Type.Kind)
			if err != nil {
				return nil, fmt.Errorf("column %q: %v", t.Columns[op.col].Name, err)
			}
			p.flat = append(p.flat, cv)
		}
		p.idxs = append(p.idxs, i)
	}
	return p, nil
}

// tableSetOp is one bound SET clause of a table UPDATE: the target
// column and its values evaluated against the pre-update state.
type tableSetOp struct {
	col  int
	vals *bat.BAT
}

func bindTableSets(b *rel.Binder, sc *rel.Scope, t *catalog.Table, n int, s *ast.Update) ([]tableSetOp, error) {
	ops := make([]tableSetOp, 0, len(s.Sets))
	for _, as := range s.Sets {
		ci, ok := t.ColumnIndex(as.Col)
		if !ok {
			return nil, fmt.Errorf("at %s: table %q has no column %q", s.Pos, t.Name, as.Col)
		}
		e, err := b.BindScalar(sc, as.Expr)
		if err != nil {
			return nil, err
		}
		vals, err := evalVecBAT(t.Bats, n, e)
		if err != nil {
			return nil, err
		}
		ops = append(ops, tableSetOp{ci, vals})
	}
	return ops, nil
}

// applyTableUpdate applies a staged update under the writer lock:
// copy-on-write the SET target columns (they are overwritten in place,
// so any column shared with a published snapshot is cloned first),
// overwrite, log.
func (db *DB) applyTableUpdatePlan(t *catalog.Table, p *tableUpdatePlan) (*Result, error) {
	db.noteModifyTable(t)
	for _, c := range p.cols {
		t.Bats[c] = t.Bats[c].Writable()
	}
	for j, idx := range p.idxs {
		for k, c := range p.cols {
			if err := t.Bats[c].Replace(idx, p.flat[j*len(p.cols)+k]); err != nil {
				return nil, err
			}
		}
	}
	if db.durable() && len(p.idxs) > 0 {
		db.logRecord(encTableUpdate(t.Name, p.cols, p.idxs, p.flat))
	}
	return &Result{Affected: len(p.idxs), Text: fmt.Sprintf("%d rows updated", len(p.idxs))}, nil
}

func (db *DB) updateTable(s *ast.Update, t *catalog.Table) (*Result, error) {
	p, err := planTableUpdate(db.cat, t, s)
	if err != nil {
		return nil, err
	}
	return db.applyTableUpdatePlan(t, p)
}

// arrayUpdatePlan is tableUpdatePlan for arrays: the cells to touch, the
// SET target attributes, and the fully cast replacement values.
type arrayUpdatePlan struct {
	attrs []int
	idxs  []int
	flat  []types.Value
}

func planArrayUpdate(cat *catalog.Catalog, a *catalog.Array, s *ast.Update) (*arrayUpdatePlan, error) {
	b := rel.NewBinder(cat)
	sc := arrayScope(a)
	cols := arrayCols(a)
	n := a.Cells()
	mask, err := dmlMask(b, sc, cols, n, s.Where)
	if err != nil {
		return nil, err
	}
	ops, err := bindArraySets(b, sc, a, cols, n, s)
	if err != nil {
		return nil, err
	}
	// Cast first into a flat buffer (see planTableUpdate).
	p := &arrayUpdatePlan{attrs: make([]int, len(ops))}
	for k, op := range ops {
		p.attrs[k] = op.attr
	}
	mt := maskTrue(mask)
	for i := 0; i < n; i++ {
		if !mt(i) {
			continue
		}
		for _, op := range ops {
			cv, err := op.vals.Get(i).Cast(a.Attrs[op.attr].Type.Kind)
			if err != nil {
				return nil, fmt.Errorf("attribute %q: %v", a.Attrs[op.attr].Name, err)
			}
			p.flat = append(p.flat, cv)
		}
		p.idxs = append(p.idxs, i)
	}
	return p, nil
}

// arraySetOp is one bound SET clause of an array UPDATE.
type arraySetOp struct {
	attr int
	vals *bat.BAT
}

func bindArraySets(b *rel.Binder, sc *rel.Scope, a *catalog.Array, cols []*bat.BAT, n int, s *ast.Update) ([]arraySetOp, error) {
	ops := make([]arraySetOp, 0, len(s.Sets))
	for _, as := range s.Sets {
		if _, isDim := a.DimIndex(as.Col); isDim {
			return nil, fmt.Errorf("at %s: cannot assign to dimension %q", s.Pos, as.Col)
		}
		ai, ok := a.AttrIndex(as.Col)
		if !ok {
			return nil, fmt.Errorf("at %s: array %q has no attribute %q", s.Pos, a.Name, as.Col)
		}
		e, err := b.BindScalar(sc, as.Expr)
		if err != nil {
			return nil, err
		}
		vals, err := evalVecBAT(cols, n, e)
		if err != nil {
			return nil, err
		}
		ops = append(ops, arraySetOp{ai, vals})
	}
	return ops, nil
}

// applyArrayUpdate applies a staged array update under the writer lock:
// copy-on-write the overwritten attribute columns, overwrite, log.
func (db *DB) applyArrayUpdatePlan(a *catalog.Array, p *arrayUpdatePlan) (*Result, error) {
	db.noteModifyArray(a)
	for _, ai := range p.attrs {
		a.AttrBats[ai] = a.AttrBats[ai].Writable()
	}
	for j, idx := range p.idxs {
		for k, ai := range p.attrs {
			if err := a.AttrBats[ai].Replace(idx, p.flat[j*len(p.attrs)+k]); err != nil {
				return nil, err
			}
		}
	}
	if db.durable() && len(p.idxs) > 0 {
		db.logRecord(encArrayCells(recArrayUpdate, a.Name, nil, p.attrs, p.idxs,
			func(cell, k int) types.Value { return p.flat[cell*len(p.attrs)+k] }))
	}
	return &Result{Affected: len(p.idxs), Text: fmt.Sprintf("%d cells updated", len(p.idxs))}, nil
}

func (db *DB) updateArray(s *ast.Update, a *catalog.Array) (*Result, error) {
	p, err := planArrayUpdate(db.cat, a, s)
	if err != nil {
		return nil, err
	}
	return db.applyArrayUpdatePlan(a, p)
}

// dmlMask evaluates a WHERE clause to a boolean column (nil = all rows).
func dmlMask(b *rel.Binder, sc *rel.Scope, cols []*bat.BAT, n int, where ast.Expr) (*bat.BAT, error) {
	if where == nil {
		return nil, nil
	}
	e, err := b.BindScalar(sc, where)
	if err != nil {
		return nil, err
	}
	if e.Kind() != types.KindBool && e.Kind() != types.KindVoid {
		return nil, fmt.Errorf("WHERE must be boolean, got %s", e.Kind())
	}
	return evalVecBAT(cols, n, e)
}

// maskTrue compiles the WHERE-mask row test: the mask payload is decoded
// once, not per row.
func maskTrue(mask *bat.BAT) func(int) bool {
	if mask == nil {
		return func(int) bool { return true }
	}
	vals := mask.DecodedBools()
	if !mask.HasNulls() {
		return func(i int) bool { return vals[i] }
	}
	return func(i int) bool { return !mask.IsNull(i) && vals[i] }
}

// planTableDelete stages the row positions a table DELETE will mark
// (pure: already-deleted rows and mask misses are filtered out).
func planTableDelete(cat *catalog.Catalog, t *catalog.Table, s *ast.Delete) ([]int, error) {
	b := rel.NewBinder(cat)
	n := t.PhysRows()
	mask, err := dmlMask(b, tableScope(t), t.Bats, n, s.Where)
	if err != nil {
		return nil, err
	}
	var idxs []int
	mt := maskTrue(mask)
	for i := 0; i < n; i++ {
		if t.Deleted.Get(i) || !mt(i) {
			continue
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

// applyTableDelete marks the staged rows deleted under the writer lock.
func (db *DB) applyTableDeletePlan(t *catalog.Table, idxs []int) (*Result, error) {
	db.noteDeleteTable(t)
	if t.Deleted == nil {
		t.Deleted = bat.NewBitmap(t.PhysRows())
	}
	for _, i := range idxs {
		t.Deleted.Set(i, true)
	}
	if db.durable() && len(idxs) > 0 {
		db.logRecord(encPositions(recTableDelete, t.Name, idxs))
	}
	return &Result{Affected: len(idxs), Text: fmt.Sprintf("%d rows deleted", len(idxs))}, nil
}

// planArrayDelete stages the cell positions an array DELETE will null.
func planArrayDelete(cat *catalog.Catalog, a *catalog.Array, s *ast.Delete) ([]int, error) {
	b := rel.NewBinder(cat)
	n := a.Cells()
	mask, err := dmlMask(b, arrayScope(a), arrayCols(a), n, s.Where)
	if err != nil {
		return nil, err
	}
	var idxs []int
	mt := maskTrue(mask)
	for i := 0; i < n; i++ {
		if !mt(i) {
			continue
		}
		idxs = append(idxs, i)
	}
	return idxs, nil
}

// applyArrayDelete punches NULL holes at the staged cells under the
// writer lock. No copy-on-write is needed: Freeze deep-clones null
// masks, so in-place null flips never reach a published snapshot.
func (db *DB) applyArrayDeletePlan(a *catalog.Array, idxs []int) (*Result, error) {
	db.noteModifyArray(a)
	for _, i := range idxs {
		for _, ab := range a.AttrBats {
			ab.SetNull(i, true)
		}
	}
	if db.durable() && len(idxs) > 0 {
		db.logRecord(encPositions(recArrayDelete, a.Name, idxs))
	}
	return &Result{Affected: len(idxs), Text: fmt.Sprintf("%d cells deleted", len(idxs))}, nil
}

// deleteStmt implements DELETE: tables mark rows deleted; arrays punch
// NULL holes in every attribute (§2: "the DELETE statement creates holes").
func (db *DB) deleteStmt(s *ast.Delete) (*Result, error) {
	if t, ok := db.cat.Table(s.Table); ok {
		idxs, err := planTableDelete(db.cat, t, s)
		if err != nil {
			return nil, err
		}
		return db.applyTableDeletePlan(t, idxs)
	}
	if a, ok := db.cat.Array(s.Table); ok {
		idxs, err := planArrayDelete(db.cat, a, s)
		if err != nil {
			return nil, err
		}
		return db.applyArrayDeletePlan(a, idxs)
	}
	return nil, fmt.Errorf("at %s: no such table or array: %q", s.Pos, s.Table)
}
