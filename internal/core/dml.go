package core

import (
	"fmt"
	"slices"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/mal"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/types"
)

// insertSource materialises the literal VALUES rows of an INSERT through
// the statement's binder, against whichever catalog the write is staged
// on (see stage.go).
func insertSource(b *rel.Binder, s *ast.Insert, wantCols int) ([][]types.Value, error) {
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

// runRaw binds s through b, compiles it and runs it (run), and returns
// its program with the result columns as they are: the query side of an
// INSERT (positions matter, not the coerced shape) and the write program
// of an UPDATE or DELETE.
func (db *DB) runRaw(q *stmt, b *rel.Binder, s ast.Statement) (*mal.Program, *Result, error) {
	prog, mctx, err := db.run(q, b, s)
	if err != nil {
		return nil, nil, err
	}
	res, err := rawResult(prog, mctx)
	return prog, res, err
}

// queryColumns runs the query side of an INSERT and checks it produces
// one column per target.
func (db *DB) queryColumns(q *stmt, b *rel.Binder, s *ast.Insert, want int) (*Result, error) {
	_, res, err := db.runRaw(q, b, s.Query)
	if err != nil {
		return nil, err
	}
	if res.NumCols() != want {
		return nil, fmt.Errorf("INSERT expects %d columns, query produces %d", want, res.NumCols())
	}
	return res, nil
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

// tableColumns is the write set of a table INSERT: per table column, the
// source column mapped to it cast to the column's kind through
// gdk.CastBAT, or n rows of its DEFAULT (NULL without one). Everything
// is cast before storage is touched, so a bad value fails the whole
// statement cleanly (no partial append) and the WAL record matches the
// applied effect exactly. Pure: safe against a frozen snapshot table.
func tableColumns(job *par.Job, t *catalog.Table, mapping []int, src []*bat.BAT, n int) ([]*bat.BAT, error) {
	cols := make([]*bat.BAT, len(t.Columns))
	var err error
	for si, ti := range mapping {
		col := src[si]
		if kind := t.Columns[ti].Type.Kind; col.ValueKind() != kind {
			if col, err = gdk.CastBAT(job, gdk.B(col), kind, nil); err != nil {
				return nil, fmt.Errorf("column %q: %v", t.Columns[ti].Name, err)
			}
		}
		cols[ti] = col
	}
	for i, c := range t.Columns {
		if cols[i] != nil {
			continue
		}
		def := types.Null(c.Type.Kind)
		if c.HasDef {
			def = c.Default
		}
		if cols[i], err = bat.Filler(job, n, def, c.Type.Kind); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// stageTableInsert turns a table INSERT's source — the query's result
// columns, or the literal rows cast once into columns — into the table's
// write set, reading the catalog through b and never mutating it.
func (db *DB) stageTableInsert(q *stmt, b *rel.Binder, t *catalog.Table, s *ast.Insert) ([]*bat.BAT, error) {
	mapping, err := insertMapping(t, s)
	if err != nil {
		return nil, err
	}
	if s.Query != nil {
		res, err := db.queryColumns(q, b, s, len(mapping))
		if err != nil {
			return nil, err
		}
		return tableColumns(q.job, t, mapping, res.Cols, res.NumRows())
	}
	rows, err := insertSource(b, s, len(mapping))
	if err != nil {
		return nil, err
	}
	src := make([]*bat.BAT, len(mapping))
	for si, ti := range mapping {
		c := t.Columns[ti]
		if src[si], err = valuesColumn(rows, si, c.Type.Kind, castTo(c.Type.Kind)); err != nil {
			return nil, fmt.Errorf("column %q: %v", c.Name, err)
		}
	}
	return tableColumns(q.job, t, mapping, src, len(rows))
}

// appendRows is the mutation of a table INSERT, shared with WAL replay:
// each column of the write set is appended to its table column. Appends
// land beyond every published snapshot's frozen row count, so no
// copy-on-write is needed.
func (db *DB) appendRows(t *catalog.Table, cols []*bat.BAT) error {
	db.modify(t.Name, &t.Mod)
	for i, col := range cols {
		// INSERT INTO t SELECT ... FROM t staged against the live catalog
		// (inside a transaction, or staged again after a conflict): append
		// from a copy, so every row is read as it was before the statement
		// wrote anything. A column staged on a snapshot is a frozen copy,
		// never one of t's own BATs.
		if slices.Contains(t.Bats, col) {
			cols[i] = col.Clone()
		}
	}
	for i, col := range cols {
		if err := t.Bats[i].AppendBAT(col); err != nil {
			return err
		}
	}
	if t.Deleted != nil {
		t.Deleted.Resize(t.PhysRows())
	}
	return nil
}

// applyTableInsert is phase 2 of a table INSERT: append the write set
// under the writer lock and log the effect.
func (db *DB) applyTableInsert(t *catalog.Table, cols []*bat.BAT) (*Result, error) {
	if err := db.appendRows(t, cols); err != nil {
		return nil, err
	}
	n := cols[0].Len()
	if db.durable() && n > 0 {
		for _, rec := range encTableAppend(t.Name, cols, maxRecordCells) {
			db.logRecord(rec)
		}
	}
	return &Result{Affected: n, Text: fmt.Sprintf("%d rows inserted", n)}, nil
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
		var err error
		if tg.isDim {
			if cols[ti], err = valuesColumn(rows, ti, types.KindInt, func(v types.Value) (types.Value, error) {
				iv, err := v.AsInt()
				return types.Int(iv), err
			}); err != nil {
				return nil, fmt.Errorf("dimension %q: %v", a.Shape[tg.idx].Name, err)
			}
			continue
		}
		attr := a.Attrs[tg.idx]
		if cols[ti], err = valuesColumn(rows, ti, attr.Type.Kind, castTo(attr.Type.Kind)); err != nil {
			return nil, fmt.Errorf("attribute %q: %v", attr.Name, err)
		}
	}
	return cols, nil
}

// valuesColumn converts column si of the literal rows of an INSERT ...
// VALUES into one column of kind: every non-NULL value through conv.
func valuesColumn(rows [][]types.Value, si int, kind types.Kind, conv func(types.Value) (types.Value, error)) (*bat.BAT, error) {
	col := bat.New(kind, len(rows))
	for _, row := range rows {
		v := row[si]
		if !v.IsNull() {
			var err error
			if v, err = conv(v); err != nil {
				return nil, err
			}
		}
		if err := col.Append(v); err != nil {
			return nil, err
		}
	}
	return col, nil
}

// castTo is the conversion of a value to kind k (Value.Cast).
func castTo(k types.Kind) func(types.Value) (types.Value, error) {
	return func(v types.Value) (types.Value, error) { return v.Cast(k) }
}

// arrayWrite is the columnar effect of an array INSERT: the (possibly
// grown) shape, the target cell of every source row, and per written
// attribute one column cast to its kind, aligned with pos. An ALTER
// DIMENSION is one with a new shape and no cells.
type arrayWrite struct {
	shape shape.Shape
	pos   []int
	attrs []int
	vals  []*bat.BAT
}

// stageArrayInsert turns an array INSERT's source — the query's result
// columns, or the literal rows cast once into columns — into its write
// set (arrayWriteSet), reading the catalog through b and never mutating
// it.
func (db *DB) stageArrayInsert(q *stmt, b *rel.Binder, a *catalog.Array, s *ast.Insert) (*arrayWrite, error) {
	targets, err := arrayTargets(a, s)
	if err != nil {
		return nil, err
	}
	var cols []*bat.BAT
	if s.Query != nil {
		res, err := db.queryColumns(q, b, s, len(targets))
		if err != nil {
			return nil, err
		}
		cols = res.Cols
	} else {
		rows, err := insertSource(b, s, len(targets))
		if err != nil {
			return nil, err
		}
		if cols, err = valuesColumns(a, targets, rows); err != nil {
			return nil, err
		}
	}
	return arrayWriteSet(q.job, a, targets, cols)
}

// arrayWriteSet validates an array INSERT's source columns and turns
// them into its write set without touching the array: coordinates
// (NULL or non-integer fails), growth of unbounded dimensions (off-grid
// fails), cell positions in the grown shape (outside fails), attribute
// casts (a failed cast fails), in that order.
func arrayWriteSet(job *par.Job, a *catalog.Array, targets []arrayTarget, cols []*bat.BAT) (*arrayWrite, error) {
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
			if col, err = gdk.CastBAT(job, gdk.B(col), kind, nil); err != nil {
				return nil, fmt.Errorf("attribute %q: %v", a.Attrs[tg.idx].Name, err)
			}
		}
		w.attrs = append(w.attrs, tg.idx)
		w.vals = append(w.vals, col)
	}
	if len(w.pos) > sh.Cells() {
		// More rows than cells: only each cell's last row survives the
		// in-order overwrite, so the write set keeps just those and never
		// outgrows the array (the bound WAL replay checks).
		keep := lastWrites(w.pos, sh.Cells())
		pos := make([]int, len(keep))
		for i, r := range keep {
			pos[i] = w.pos[r]
		}
		if w.vals, err = gdk.ProjectAll(job, bat.FromOIDs(keep), w.vals); err != nil {
			return nil, err
		}
		w.pos = pos
	}
	return w, nil
}

// lastWrites lists, in order, the rows of pos that are the last write to
// their cell.
func lastWrites(pos []int, cells int) []int64 {
	seen := make([]bool, cells)
	keep := make([]int64, 0, cells)
	for r := len(pos) - 1; r >= 0; r-- {
		if !seen[pos[r]] {
			seen[pos[r]] = true
			keep = append(keep, int64(r))
		}
	}
	slices.Reverse(keep)
	return keep
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
		return col.Materialize().DecodedInts(nil), nil
	case types.KindFloat:
		fs := col.DecodedFloats(nil)
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

// applyArrayWrite overwrites the cells an array INSERT's rows address
// (§2) with its write set, validated whole before the array changes,
// under the writer lock, and logs the effect.
func (db *DB) applyArrayWrite(q *stmt, a *catalog.Array, w *arrayWrite) (*Result, error) {
	reshaped, err := db.writeCells(q, a, w)
	if err != nil {
		return nil, err
	}
	if db.durable() && (reshaped || len(w.pos) > 0) {
		db.logRecord(encArrayCells(recArrayCells, a.Name, a.Shape, w.attrs, w.pos, w.vals))
	}
	return &Result{Affected: len(w.pos), Text: fmt.Sprintf("%d cells updated", len(w.pos))}, nil
}

// writeCells is the mutation of an array INSERT or ALTER DIMENSION,
// shared with WAL replay: it re-grids the array onto the write set's
// shape when that differs, then scatters each attribute column into its
// cells, and reports whether the shape changed. Cell overwrites are
// in-place, so any attribute column shared with a published snapshot is
// cloned first (copy-on-write); concurrent readers keep their frozen
// version.
func (db *DB) writeCells(q *stmt, a *catalog.Array, w *arrayWrite) (bool, error) {
	db.modify(a.Name, &a.Mod)
	reshaped := !a.Shape.Equal(w.shape)
	if reshaped {
		if err := reshapeArray(q.job, a, w.shape); err != nil {
			return false, err
		}
	}
	// A source column may be one of the target columns itself (INSERT INTO
	// a SELECT ... FROM a staged against the live catalog: inside a
	// transaction, or staged again after a conflict): scatter from a copy,
	// so every row is read as it was before the statement wrote anything.
	// A column staged on a snapshot is a frozen copy, never a's own BAT.
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
			return reshaped, err
		}
	}
	return reshaped, nil
}

// reshapeArray re-grids every attribute onto sh (overlapping cells keep
// their values, fresh cells get the attribute default) and rebuilds the
// dimension columns; on failure the array is unchanged.
func reshapeArray(job *par.Job, a *catalog.Array, sh shape.Shape) error {
	dims, err := gdk.DimBATs(sh)
	if err != nil {
		return err
	}
	attrs := make([]*bat.BAT, len(a.Attrs))
	for i, col := range a.Attrs {
		def := col.Default
		if !col.HasDef {
			def = types.NullUnknown()
		}
		if attrs[i], err = gdk.Reshape(job, a.AttrBats[i], a.Shape, sh, def); err != nil {
			return err
		}
	}
	a.Shape, a.AttrBats, a.DimBats = sh, attrs, dims
	return nil
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

// writePlan is the staged effect of an UPDATE or DELETE: the bound write,
// the base positions of the rows or cells it writes (the write program's
// candidate list, ascending), and per SET target its values aligned with
// pos and cast to the target's kind. Planning reads the catalog without
// mutating it, so a statement that fails applies nothing, in memory and
// on disk alike, and a plan made against a published snapshot applies to
// the live object once validated (stage.go).
type writePlan struct {
	w    *rel.Write
	pos  *bat.BAT
	vals []*bat.BAT
}

// planWrite binds an UPDATE or DELETE through b and runs its MAL program
// (run): the ordinary scan and selection yield the positions, the SET
// values evaluate over the selected rows only. A value of another kind
// than its target is cast here, so a failed cast fails the statement
// before anything is written.
func (db *DB) planWrite(q *stmt, b *rel.Binder, s ast.Statement) (*writePlan, error) {
	prog, res, err := db.runRaw(q, b, s)
	if err != nil {
		return nil, err
	}
	w := prog.Write
	p := &writePlan{w: w, pos: res.Cols[0]}
	what := "attribute"
	if w.T != nil {
		what = "column"
	}
	src := rel.BaseCols(w.Child)
	for k, col := range res.Cols[1:] {
		switch kind := w.TargetKind(k); {
		case col.ValueKind() != kind:
			if col, err = gdk.CastBAT(q.job, gdk.B(col), kind, nil); err != nil {
				return nil, fmt.Errorf("%s %q: %v", what, w.TargetName(k), err)
			}
		case slices.Contains(src, col) || slices.Contains(p.vals, col):
			// A value column that is a stored column (SET a = b) or
			// another target's value may replace its target outright:
			// copy it, so no two slots ever share one BAT.
			col = col.Clone()
		}
		p.vals = append(p.vals, col)
	}
	return p, nil
}

// positions returns a candidate list's positions.
func positions(cand *bat.BAT) []int {
	out := make([]int, cand.Len())
	if cand.Kind() == types.KindVoid {
		for i := range out {
			out[i] = int(cand.Seqbase()) + i
		}
		return out
	}
	for i, p := range cand.DecodedInts(nil) {
		out[i] = int(p)
	}
	return out
}

// overwrite writes vals[k] into cols[sets[k]] at positions pos. When the
// positions are every row in order, the value column becomes the target
// outright: no copy-on-write clone, no scatter. Otherwise the target is
// made writable (cloned when a published snapshot shares it) and the
// values are scattered into it.
func overwrite(cols []*bat.BAT, sets []int, vals []*bat.BAT, pos []int) error {
	if len(pos) == 0 {
		return nil
	}
	every := len(pos) == cols[0].Len()
	for i := 0; every && i < len(pos); i++ {
		every = pos[i] == i
	}
	for k, c := range sets {
		if every {
			cols[c] = vals[k]
			continue
		}
		cols[c] = cols[c].Writable()
		if err := cols[c].ReplaceAt(pos, vals[k]); err != nil {
			return err
		}
	}
	return nil
}

// setCols lists the SET target ordinals of a write.
func setCols(w *rel.Write) []int {
	out := make([]int, len(w.Sets))
	for k, s := range w.Sets {
		out[k] = s.Col
	}
	return out
}

// writeTable is the mutation of a table UPDATE or DELETE, shared with WAL
// replay. A DELETE only sets the rows' bits in the deletion mask; an
// UPDATE overwrites column sets[k] with vals[k] at pos.
func (db *DB) writeTable(t *catalog.Table, del bool, pos, sets []int, vals []*bat.BAT) error {
	if !del {
		db.modify(t.Name, &t.Mod)
		return overwrite(t.Bats, sets, vals, pos)
	}
	// The segment files still match: only the manifest changes.
	db.stampMod(&t.Mod)
	db.touchMeta(t.Name)
	if t.Deleted == nil {
		t.Deleted = bat.NewBitmap(t.PhysRows())
	}
	for _, i := range pos {
		t.Deleted.Set(i, true)
	}
	return nil
}

// writeArray is the mutation of an array UPDATE or DELETE, shared with WAL
// replay. A DELETE punches NULL holes in every attribute (§2: "the DELETE
// statement creates holes") in place: Freeze deep-clones null masks, so
// the flips never reach a published snapshot.
func (db *DB) writeArray(a *catalog.Array, del bool, pos, sets []int, vals []*bat.BAT) error {
	db.modify(a.Name, &a.Mod)
	if !del {
		return overwrite(a.AttrBats, sets, vals, pos)
	}
	for _, ab := range a.AttrBats {
		if err := ab.SetNullAt(pos); err != nil {
			return err
		}
	}
	return nil
}

// applyTableWritePlan applies a staged UPDATE or DELETE to the live table
// under the writer lock and logs the effect.
func (db *DB) applyTableWritePlan(t *catalog.Table, p *writePlan) (*Result, error) {
	pos, sets := positions(p.pos), setCols(p.w)
	if err := db.writeTable(t, p.w.Delete, pos, sets, p.vals); err != nil {
		return nil, err
	}
	if p.w.Delete {
		if db.durable() && len(pos) > 0 {
			db.logRecord(encDelete(recTableDelete, t.Name, pos))
		}
		return &Result{Affected: len(pos), Text: fmt.Sprintf("%d rows deleted", len(pos))}, nil
	}
	if db.durable() && len(pos) > 0 {
		db.logRecord(encTableUpdate(t.Name, sets, pos, p.vals))
	}
	return &Result{Affected: len(pos), Text: fmt.Sprintf("%d rows updated", len(pos))}, nil
}

// applyArrayWritePlan applies a staged UPDATE or DELETE to the live array
// under the writer lock and logs the effect.
func (db *DB) applyArrayWritePlan(a *catalog.Array, p *writePlan) (*Result, error) {
	pos, sets := positions(p.pos), setCols(p.w)
	if err := db.writeArray(a, p.w.Delete, pos, sets, p.vals); err != nil {
		return nil, err
	}
	if p.w.Delete {
		if db.durable() && len(pos) > 0 {
			db.logRecord(encDelete(recArrayDelete, a.Name, pos))
		}
		return &Result{Affected: len(pos), Text: fmt.Sprintf("%d cells deleted", len(pos))}, nil
	}
	if db.durable() && len(pos) > 0 {
		db.logRecord(encArrayCells(recArrayUpdate, a.Name, nil, sets, pos, p.vals))
	}
	return &Result{Affected: len(pos), Text: fmt.Sprintf("%d cells updated", len(pos))}, nil
}
