// Package catalog holds the schema objects of a database: tables and SciQL
// arrays with their columns, dimensions and defaults, together with the
// storage handles (BATs) backing them. It corresponds to the "SQL/SciQL
// catalog" component of the paper's Fig. 2.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/bat"
	"repro/internal/gdk"
	"repro/internal/shape"
	"repro/internal/types"
)

// Column describes one attribute of a table or array.
type Column struct {
	Name    string
	Type    types.SQLType
	Default types.Value // value new cells/rows receive; NULL when unset
	HasDef  bool
}

// Table is a relational table stored column-wise: one BAT per column plus a
// deletion mask (deleted rows linger until vacuum).
type Table struct {
	Name    string
	Columns []Column
	Bats    []*bat.BAT
	Deleted *bat.Bitmap // rows marked deleted; nil when none

	// Version is the checkpoint generation whose segment files hold this
	// table's columns on disk (bats/<name>.<col>.<version>.bat); 0 means
	// the legacy unversioned layout. Maintained by the persistence layer.
	Version uint64

	// Mod counts committed modifications to this table. The engine bumps
	// it under its write lock before every mutation; a write staged
	// against a snapshot compares the live Mod of every object it read
	// against the snapshot's to detect a conflicting first committer.
	Mod uint64
}

// NumRows returns the number of live rows.
func (t *Table) NumRows() int {
	n := 0
	if len(t.Bats) > 0 {
		n = t.Bats[0].Len()
	}
	return n - t.Deleted.Count()
}

// PhysRows returns the physical row count including deleted rows.
func (t *Table) PhysRows() int {
	if len(t.Bats) == 0 {
		return 0
	}
	return t.Bats[0].Len()
}

// ColumnIndex finds a column by name.
func (t *Table) ColumnIndex(name string) (int, bool) {
	for i, c := range t.Columns {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Freeze returns an immutable snapshot copy of the table for concurrent
// readers: a fresh Table struct whose BATs are frozen (shared data, fixed
// counts, private NULL masks) and whose deletion mask is deep-cloned. The
// Columns slice is shared; schema metadata is never mutated in place.
func (t *Table) Freeze() *Table {
	f := &Table{Name: t.Name, Columns: t.Columns, Deleted: t.Deleted.Clone(), Version: t.Version, Mod: t.Mod}
	f.Bats = make([]*bat.BAT, len(t.Bats))
	for i, b := range t.Bats {
		f.Bats[i] = b.Freeze()
	}
	return f
}

// Array is a SciQL array: named dimensions with ranges plus one attribute
// column per non-dimensional column. Cells are stored row-major; dimension
// BATs are materialised on creation exactly as the paper's Fig. 3 and kept
// in sync with the shape on ALTER DIMENSION.
type Array struct {
	Name  string
	Shape shape.Shape
	Attrs []Column
	// DimBats[k] is the materialised series of dimension k (Fig. 3).
	DimBats []*bat.BAT
	// AttrBats[k] is the cell-value column of attribute k.
	AttrBats []*bat.BAT
	// Unbounded marks dimensions declared without a fixed range; they grow
	// on INSERT.
	Unbounded []bool

	// Version is the checkpoint generation whose segment files hold this
	// array's attributes on disk (see Table.Version).
	Version uint64

	// Mod counts committed modifications; see Table.Mod.
	Mod uint64
}

// Cells returns the number of cells.
func (a *Array) Cells() int { return a.Shape.Cells() }

// DimIndex finds a dimension by name.
func (a *Array) DimIndex(name string) (int, bool) {
	for i, d := range a.Shape {
		if d.Name == name {
			return i, true
		}
	}
	return 0, false
}

// AttrIndex finds an attribute by name.
func (a *Array) AttrIndex(name string) (int, bool) {
	for i, c := range a.Attrs {
		if c.Name == name {
			return i, true
		}
	}
	return 0, false
}

// RebuildDims re-materialises the dimension BATs from the current shape.
func (a *Array) RebuildDims() error {
	dims, err := gdk.DimBATs(a.Shape)
	if err != nil {
		return err
	}
	a.DimBats = dims
	return nil
}

// Freeze returns an immutable snapshot copy of the array for concurrent
// readers (see Table.Freeze). Shape and Unbounded are copied because the
// writer replaces them wholesale on ALTER DIMENSION / unbounded growth.
func (a *Array) Freeze() *Array {
	f := &Array{
		Name:      a.Name,
		Shape:     append(shape.Shape{}, a.Shape...),
		Attrs:     a.Attrs,
		Unbounded: append([]bool{}, a.Unbounded...),
		Version:   a.Version,
		Mod:       a.Mod,
	}
	f.DimBats = make([]*bat.BAT, len(a.DimBats))
	for i, b := range a.DimBats {
		f.DimBats[i] = b.Freeze()
	}
	f.AttrBats = make([]*bat.BAT, len(a.AttrBats))
	for i, b := range a.AttrBats {
		f.AttrBats[i] = b.Freeze()
	}
	return f
}

// Catalog is the set of named objects. It is guarded by a mutex so that
// sessions can read it concurrently; writers (DDL) take the engine's
// exclusive lock above this layer.
type Catalog struct {
	mu     sync.RWMutex
	tables map[string]*Table
	arrays map[string]*Array
}

// New returns an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables: make(map[string]*Table),
		arrays: make(map[string]*Array),
	}
}

func normalize(name string) string { return strings.ToLower(name) }

// Normalize canonicalises an object name the way catalog lookups do
// (case-insensitive); exported for layers that key maps by object name.
func Normalize(name string) string { return normalize(name) }

// Table looks up a table by name.
func (c *Catalog) Table(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[normalize(name)]
	return t, ok
}

// Array looks up an array by name.
func (c *Catalog) Array(name string) (*Array, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	a, ok := c.arrays[normalize(name)]
	return a, ok
}

// Exists reports whether any object of that name exists.
func (c *Catalog) Exists(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := normalize(name)
	_, t := c.tables[n]
	_, a := c.arrays[n]
	return t || a
}

// AddTable registers a table.
func (c *Catalog) AddTable(t *Table) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(t.Name)
	if _, ok := c.tables[n]; ok {
		return fmt.Errorf("table %q already exists", t.Name)
	}
	if _, ok := c.arrays[n]; ok {
		return fmt.Errorf("an array named %q already exists", t.Name)
	}
	t.Name = n
	c.tables[n] = t
	return nil
}

// AddArray registers an array.
func (c *Catalog) AddArray(a *Array) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(a.Name)
	if _, ok := c.arrays[n]; ok {
		return fmt.Errorf("array %q already exists", a.Name)
	}
	if _, ok := c.tables[n]; ok {
		return fmt.Errorf("a table named %q already exists", a.Name)
	}
	a.Name = n
	c.arrays[n] = a
	return nil
}

// DropTable removes a table.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(name)
	if _, ok := c.tables[n]; !ok {
		return fmt.Errorf("no such table: %q", name)
	}
	delete(c.tables, n)
	return nil
}

// DropArray removes an array.
func (c *Catalog) DropArray(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(name)
	if _, ok := c.arrays[n]; !ok {
		return fmt.Errorf("no such array: %q", name)
	}
	delete(c.arrays, n)
	return nil
}

// CloneRefs returns a new catalog holding the same object pointers: the
// maps are copied, the tables and arrays are shared. It is the cheap first
// step of snapshot publication — the engine then swaps frozen copies of
// the objects it actually changed into the clone.
func (c *Catalog) CloneRefs() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := New()
	for n, t := range c.tables {
		out.tables[n] = t
	}
	for n, a := range c.arrays {
		out.arrays[n] = a
	}
	return out
}

// ReplaceTable installs (or overwrites) a table, removing any same-named
// array. Snapshot publication uses it to swap frozen object versions in.
func (c *Catalog) ReplaceTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(t.Name)
	delete(c.arrays, n)
	c.tables[n] = t
}

// ReplaceArray installs (or overwrites) an array, removing any same-named
// table.
func (c *Catalog) ReplaceArray(a *Array) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(a.Name)
	delete(c.tables, n)
	c.arrays[n] = a
}

// Remove deletes any object of that name (no error when absent).
func (c *Catalog) Remove(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := normalize(name)
	delete(c.tables, n)
	delete(c.arrays, n)
}

// TableNames returns the sorted table names.
func (c *Catalog) TableNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for n := range c.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// ArrayNames returns the sorted array names.
func (c *Catalog) ArrayNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.arrays))
	for n := range c.arrays {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// NewArray materialises a fresh array: dimension BATs via array.series and
// attribute BATs via array.filler with each attribute's default (Fig. 3).
func NewArray(name string, sh shape.Shape, attrs []Column, unbounded []bool) (*Array, error) {
	for k, d := range sh {
		if d.Step == 0 {
			return nil, fmt.Errorf("dimension %q: step must be non-zero", d.Name)
		}
		if d.N() < 0 {
			return nil, fmt.Errorf("dimension %q: empty range", d.Name)
		}
		_ = k
	}
	a := &Array{Name: normalize(name), Shape: sh, Attrs: attrs, Unbounded: unbounded}
	if err := a.RebuildDims(); err != nil {
		return nil, err
	}
	cells := sh.Cells()
	a.AttrBats = make([]*bat.BAT, len(attrs))
	for i, col := range attrs {
		def := col.Default
		if !col.HasDef {
			def = types.NullUnknown()
		}
		b, err := bat.Filler(nil, cells, def, col.Type.Kind)
		if err != nil {
			return nil, fmt.Errorf("attribute %q: %v", col.Name, err)
		}
		a.AttrBats[i] = b
	}
	return a, nil
}

// NewTable creates an empty table.
func NewTable(name string, cols []Column) *Table {
	t := &Table{Name: normalize(name), Columns: cols}
	t.Bats = make([]*bat.BAT, len(cols))
	for i, c := range cols {
		t.Bats[i] = bat.New(c.Type.Kind, 0)
	}
	return t
}
