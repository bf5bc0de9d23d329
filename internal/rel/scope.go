package rel

import (
	"fmt"

	"repro/internal/catalog"
)

// Scope is a name-resolution environment: the columns visible to an
// expression plus the arrays reachable for cell references and tiling.
type Scope struct {
	Cols   []ColInfo
	Arrays map[string]*catalog.Array // alias (or name) → array
	// agg makes this the scope above a GroupAgg or TileAgg: aggregate
	// calls and aggregate-free subtrees bind through it (bindPostAgg).
	agg *aggScope
}

// NewScope builds a scope over the given columns.
func NewScope(cols []ColInfo) *Scope {
	return &Scope{Cols: cols, Arrays: map[string]*catalog.Array{}}
}

// Resolve finds the ordinal of a (possibly qualified) column name,
// reporting ambiguity and missing columns.
func (s *Scope) Resolve(qual, name string) (int, error) {
	found := -1
	for i, c := range s.Cols {
		if c.Name != name {
			continue
		}
		if qual != "" && c.Qual != qual {
			continue
		}
		if found >= 0 {
			if qual == "" {
				return 0, fmt.Errorf("column reference %q is ambiguous", name)
			}
			return 0, fmt.Errorf("column reference %q.%q is ambiguous", qual, name)
		}
		found = i
	}
	if found < 0 {
		if qual != "" {
			return 0, fmt.Errorf("no such column: %s.%s", qual, name)
		}
		return 0, fmt.Errorf("no such column: %s", name)
	}
	return found, nil
}

// merge combines two scopes side by side (for joins): right ordinals shift
// by len(left cols).
func (s *Scope) merge(o *Scope) *Scope {
	out := NewScope(append(append([]ColInfo{}, s.Cols...), o.Cols...))
	for k, v := range s.Arrays {
		out.Arrays[k] = v
	}
	for k, v := range o.Arrays {
		if _, dup := out.Arrays[k]; dup {
			// Shadowing duplicate aliases is rejected earlier; keep first.
			continue
		}
		out.Arrays[k] = v
	}
	return out
}
