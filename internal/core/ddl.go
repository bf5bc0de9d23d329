package core

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/types"
)

// createTable implements CREATE TABLE.
func (db *DB) createTable(s *ast.CreateTable) (*Result, error) {
	if db.cat.Exists(s.Name) {
		return nil, fmt.Errorf("at %s: object %q already exists", s.Pos, s.Name)
	}
	b := rel.NewBinder(db.cat)
	cols := make([]catalog.Column, 0, len(s.Cols))
	seen := map[string]bool{}
	for _, cd := range s.Cols {
		if seen[cd.Name] {
			return nil, fmt.Errorf("at %s: duplicate column %q", cd.Pos, cd.Name)
		}
		seen[cd.Name] = true
		st, ok := types.SQLTypeByName(cd.TypeName)
		if !ok {
			return nil, fmt.Errorf("at %s: unknown type %q", cd.Pos, cd.TypeName)
		}
		col := catalog.Column{Name: cd.Name, Type: st}
		if cd.Default != nil {
			v, err := b.ConstValue(cd.Default)
			if err != nil {
				return nil, fmt.Errorf("at %s: DEFAULT: %v", cd.Pos, err)
			}
			cv, err := v.Cast(st.Kind)
			if err != nil {
				return nil, fmt.Errorf("at %s: DEFAULT: %v", cd.Pos, err)
			}
			col.Default = cv
			col.HasDef = true
		}
		cols = append(cols, col)
	}
	t := catalog.NewTable(s.Name, cols)
	if err := db.addTable(t); err != nil {
		return nil, err
	}
	if db.durable() {
		db.logRecord(encCreateTable(t))
	}
	return statusResult("table %s created", t.Name), nil
}

// createArray implements CREATE ARRAY (§2): fixed dimensions materialise
// immediately via array.series/array.filler (Fig. 3); dimensions without a
// range are unbounded and grow on INSERT.
func (db *DB) createArray(s *ast.CreateArray) (*Result, error) {
	if db.cat.Exists(s.Name) {
		return nil, fmt.Errorf("at %s: object %q already exists", s.Pos, s.Name)
	}
	b := rel.NewBinder(db.cat)
	var (
		sh        shape.Shape
		unbounded []bool
		attrs     []catalog.Column
	)
	seen := map[string]bool{}
	for _, cd := range s.Cols {
		if seen[cd.Name] {
			return nil, fmt.Errorf("at %s: duplicate column %q", cd.Pos, cd.Name)
		}
		seen[cd.Name] = true
		st, ok := types.SQLTypeByName(cd.TypeName)
		if !ok {
			return nil, fmt.Errorf("at %s: unknown type %q", cd.Pos, cd.TypeName)
		}
		if cd.Dimension {
			if st.Kind != types.KindInt {
				return nil, fmt.Errorf("at %s: dimension %q must have an integer type", cd.Pos, cd.Name)
			}
			d := shape.Dim{Name: cd.Name, Start: 0, Step: 1, Stop: 0}
			ub := cd.Range == nil
			if cd.Range != nil {
				r, err := db.evalDimRange(b, *cd.Range)
				if err != nil {
					return nil, fmt.Errorf("at %s: dimension %q: %v", cd.Pos, cd.Name, err)
				}
				d.Start, d.Step, d.Stop = r.Start, r.Step, r.Stop
			}
			sh = append(sh, d)
			unbounded = append(unbounded, ub)
			continue
		}
		col := catalog.Column{Name: cd.Name, Type: st}
		if cd.Default != nil {
			v, err := b.ConstValue(cd.Default)
			if err != nil {
				return nil, fmt.Errorf("at %s: DEFAULT: %v", cd.Pos, err)
			}
			cv, err := v.Cast(st.Kind)
			if err != nil {
				return nil, fmt.Errorf("at %s: DEFAULT: %v", cd.Pos, err)
			}
			col.Default = cv
			col.HasDef = true
		}
		attrs = append(attrs, col)
	}
	if len(sh) == 0 {
		return nil, fmt.Errorf("at %s: array %q needs at least one dimension", s.Pos, s.Name)
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("at %s: array %q needs at least one attribute", s.Pos, s.Name)
	}
	a, err := catalog.NewArray(s.Name, sh, attrs, unbounded)
	if err != nil {
		return nil, err
	}
	if err := db.addArray(a); err != nil {
		return nil, err
	}
	if db.durable() {
		db.logRecord(encCreateArray(a))
	}
	return statusResult("array %s created (%d cells)", a.Name, a.Cells()), nil
}

// evalDimRange evaluates a [start:step:stop] range to concrete bounds.
func (db *DB) evalDimRange(b *rel.Binder, r ast.DimRange) (shape.Dim, error) {
	var d shape.Dim
	if r.Start == nil || r.Stop == nil {
		return d, fmt.Errorf("dimension ranges need start and stop")
	}
	start, err := b.ConstInt(r.Start)
	if err != nil {
		return d, err
	}
	step := int64(1)
	if r.Step != nil {
		step, err = b.ConstInt(r.Step)
		if err != nil {
			return d, err
		}
	}
	stop, err := b.ConstInt(r.Stop)
	if err != nil {
		return d, err
	}
	if step == 0 {
		return d, fmt.Errorf("step must be non-zero")
	}
	d.Start, d.Step, d.Stop = start, step, stop
	return d, nil
}

// addTable is the mutation of CREATE TABLE, shared with WAL replay. It
// stamps the fresh incarnation: a write staged on a stale snapshot of a
// same-named dropped table must fail its Mod check (see stampMod).
func (db *DB) addTable(t *catalog.Table) error {
	db.stampMod(&t.Mod)
	if err := db.cat.AddTable(t); err != nil {
		return err
	}
	db.noteCreate(t.Name)
	return nil
}

// addArray is addTable for CREATE ARRAY.
func (db *DB) addArray(a *catalog.Array) error {
	db.stampMod(&a.Mod)
	if err := db.cat.AddArray(a); err != nil {
		return err
	}
	db.noteCreate(a.Name)
	return nil
}

// drop implements DROP TABLE / DROP ARRAY.
func (db *DB) drop(s *ast.Drop) (*Result, error) {
	kind, name := "table", ""
	if s.Array {
		kind = "array"
		if a, ok := db.cat.Array(s.Name); ok {
			name = a.Name
		}
	} else if t, ok := db.cat.Table(s.Name); ok {
		name = t.Name
	}
	if name == "" {
		if s.IfExists {
			return statusResult("%s %s does not exist, skipped", kind, s.Name), nil
		}
		return nil, fmt.Errorf("at %s: no such %s: %q", s.Pos, kind, s.Name)
	}
	if err := db.dropObject(name, s.Array); err != nil {
		return nil, err
	}
	if db.durable() {
		db.logRecord(encDrop(name, s.Array))
	}
	return statusResult("%s %s dropped", kind, s.Name), nil
}

// dropObject is the mutation of DROP TABLE / DROP ARRAY, shared with WAL
// replay.
func (db *DB) dropObject(name string, isArray bool) error {
	if isArray {
		a, ok := db.cat.Array(name)
		if !ok {
			return fmt.Errorf("no such array: %q", name)
		}
		db.noteDropArray(a)
		return db.cat.DropArray(name)
	}
	t, ok := db.cat.Table(name)
	if !ok {
		return fmt.Errorf("no such table: %q", name)
	}
	db.noteDropTable(t)
	return db.cat.DropTable(name)
}

// alterDimension implements ALTER ARRAY a ALTER DIMENSION d SET RANGE:
// overlapping cells keep their values, new cells receive the attribute
// default (Fig. 1(f)). It is an array write with a new shape and no
// cells.
func (db *DB) alterDimension(job *par.Job, s *ast.AlterDimension) (*Result, error) {
	a, ok := db.cat.Array(s.Array)
	if !ok {
		return nil, fmt.Errorf("at %s: no such array: %q", s.Pos, s.Array)
	}
	k, ok := a.DimIndex(s.Dim)
	if !ok {
		return nil, fmt.Errorf("at %s: array %q has no dimension %q", s.Pos, s.Array, s.Dim)
	}
	b := rel.NewBinder(db.cat)
	nd, err := db.evalDimRange(b, s.Range)
	if err != nil {
		return nil, fmt.Errorf("at %s: %v", s.Pos, err)
	}
	nd.Name = s.Dim
	newShape := append(shape.Shape{}, a.Shape...)
	newShape[k] = nd
	if _, err := db.writeCells(job, a, &arrayWrite{shape: newShape}); err != nil {
		return nil, err
	}
	if db.durable() {
		db.logRecord(encAlterDim(a.Name, k, nd))
	}
	return statusResult("array %s altered (%d cells)", a.Name, a.Cells()), nil
}
