package rel

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/sql/ast"
	"repro/internal/types"
)

// Write is an UPDATE or DELETE of one table (T) or array (A). Child is the
// object's ordinary scan, under the WHERE filter when there is one: the
// rows it produces are the rows written. Each SetCol assigns a value bound
// in the scan's scope, so it reads the state before the statement; a
// DELETE has none. The schema is the written rows' base positions followed
// by one value column per SET target.
type Write struct {
	Child  Node
	T      *catalog.Table
	A      *catalog.Array
	Sets   []SetCol
	Delete bool
}

// SetCol is one SET clause: the target column (table column or array
// attribute ordinal) and its value.
type SetCol struct {
	Col int
	Val Expr
}

// Name returns the written object's name.
func (w *Write) Name() string {
	if w.T != nil {
		return w.T.Name
	}
	return w.A.Name
}

// TargetName returns the name of SET target k.
func (w *Write) TargetName(k int) string {
	if w.T != nil {
		return w.T.Columns[w.Sets[k].Col].Name
	}
	return w.A.Attrs[w.Sets[k].Col].Name
}

// TargetKind returns the kind of SET target k.
func (w *Write) TargetKind(k int) types.Kind {
	if w.T != nil {
		return w.T.Columns[w.Sets[k].Col].Type.Kind
	}
	return w.A.Attrs[w.Sets[k].Col].Type.Kind
}

// Schema is the position column followed by the SET value columns.
func (w *Write) Schema() []ColInfo {
	out := make([]ColInfo, 0, 1+len(w.Sets))
	out = append(out, ColInfo{Name: "%pos", Kind: types.KindOID})
	for k, s := range w.Sets {
		out = append(out, ColInfo{Name: w.TargetName(k), Kind: s.Val.Kind()})
	}
	return out
}

// BindUpdate binds UPDATE to a write over the target's scan. Dimensions
// act as bound variables in the expressions (§2) but cannot be assigned.
func (b *Binder) BindUpdate(s *ast.Update) (*Write, error) {
	w, sc, err := b.bindWrite(s.Table, s.Pos, s.Where)
	if err != nil {
		return nil, err
	}
	for _, as := range s.Sets {
		var col int
		if w.T != nil {
			ci, ok := w.T.ColumnIndex(as.Col)
			if !ok {
				return nil, fmt.Errorf("at %s: table %q has no column %q", s.Pos, w.T.Name, as.Col)
			}
			col = ci
		} else {
			if _, isDim := w.A.DimIndex(as.Col); isDim {
				return nil, fmt.Errorf("at %s: cannot assign to dimension %q", s.Pos, as.Col)
			}
			ai, ok := w.A.AttrIndex(as.Col)
			if !ok {
				return nil, fmt.Errorf("at %s: array %q has no attribute %q", s.Pos, w.A.Name, as.Col)
			}
			col = ai
		}
		e, err := b.BindScalar(sc, as.Expr)
		if err != nil {
			return nil, err
		}
		w.Sets = append(w.Sets, SetCol{Col: col, Val: e})
	}
	return w, nil
}

// BindDelete binds DELETE to a write over the target's scan: tables mark
// the rows deleted, arrays punch NULL holes in every attribute.
func (b *Binder) BindDelete(s *ast.Delete) (*Write, error) {
	w, _, err := b.bindWrite(s.Table, s.Pos, s.Where)
	if err != nil {
		return nil, err
	}
	w.Delete = true
	return w, nil
}

// bindWrite binds the target of an UPDATE or DELETE exactly like a FROM
// item, with its WHERE clause as a filter above the scan.
func (b *Binder) bindWrite(name string, pos ast.Pos, where ast.Expr) (*Write, *Scope, error) {
	scan, sc, err := b.bindTableRef(&ast.BaseTable{Name: name, Pos: pos})
	if err != nil {
		return nil, nil, err
	}
	w := &Write{Child: scan}
	switch x := scan.(type) {
	case *ScanTable:
		w.T = x.T
	case *ScanArray:
		w.A = x.A
	}
	if where != nil {
		pred, err := b.BindScalar(sc, where)
		if err != nil {
			return nil, nil, err
		}
		if pred.Kind() != types.KindBool && pred.Kind() != types.KindVoid {
			return nil, nil, fmt.Errorf("WHERE must be boolean, got %s", pred.Kind())
		}
		w.Child = &Filter{Child: scan, Pred: pred}
	}
	return w, sc, nil
}
