package gdk

import (
	"fmt"
	"sort"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Candidate lists
//
// A candidate list is an oid BAT naming the base-column positions an
// operator may touch: sorted ascending, unique, and nil meaning "all rows"
// (dense). A contiguous run [lo, hi) is represented virtually as a void
// BAT with seqbase lo — kernels then skip per-element gathers entirely.
//
// Every kernel in this package follows one of two conventions:
//
//   - Value-column kernels (ThetaSelect, RangeSelect, the calculator
//     kernels, Group, SubAggr, the joins) take base-aligned
//     columns plus a candidate list restricting which base rows
//     participate. Selection kernels return base positions; vector kernels
//     return candidate-aligned vectors (row i of the output corresponds to
//     base row cand[i]).
//
//   - SelectBool is the residual-predicate sink: its boolean input is
//     computed in candidate space (aligned with cand), and the kernel maps
//     the qualifying positions back to base oids. With a nil candidate
//     list the two spaces coincide.
//
// Candidate lists compose: chaining selections threads the shrinking list
// through each kernel, so a conjunctive WHERE does work proportional to
// the surviving rows, not the table size (MonetDB's candidate discipline).

// restrictTo narrows base-aligned operands to the candidate positions:
// after the call each operand is dense with length cand.Len(), its row i
// holding the value at base position cand[i]. Column operands gather
// through the candidate list morsel-parallel (or slice, when the list is a
// dense void run); constant operands only shrink their broadcast length.
// A nil candidate list leaves the operands untouched.
func restrictTo(job *par.Job, cand *bat.BAT, os ...*Opnd) error {
	if cand == nil {
		return nil
	}
	n := cand.Len()
	for _, o := range os {
		if o.b == nil {
			o.n = n
			continue
		}
		p, err := Project(job, cand, o.b)
		if err != nil {
			return err
		}
		*o = B(p)
	}
	return nil
}

// restrictCols projects every base-aligned column through the candidate
// list (nil passes the columns through unchanged).
func restrictCols(job *par.Job, cols []*bat.BAT, cand *bat.BAT) ([]*bat.BAT, error) {
	if cand == nil {
		return cols, nil
	}
	out := make([]*bat.BAT, len(cols))
	for i, c := range cols {
		p, err := Project(job, cand, c)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// mapCand composes a position list computed in candidate space back into
// base positions: out[i] = cand[idx[i]]. NULL index entries (outer joins)
// stay NULL. A nil candidate list, and a dense one from position 0 (an
// unfiltered table), is the identity.
func mapCand(job *par.Job, idx, cand *bat.BAT) (*bat.BAT, error) {
	if cand == nil || cand.Kind() == types.KindVoid && cand.Seqbase() == 0 {
		return idx, nil
	}
	out, err := Project(job, idx, cand)
	if err != nil {
		return nil, err
	}
	// Ascending positions through an ascending candidate list stay sorted.
	out.Sorted = idx.Sorted
	return out, nil
}

// candSlice resolves a candidate list for position mapping: a void list
// reads virtually as base+i (ints stays nil), an oid list through its
// slice. Callers treat (nil, 0) as the identity mapping.
func candSlice(job *par.Job, cand *bat.BAT) (ints []int64, base int64) {
	if cand == nil {
		return nil, 0
	}
	if cand.Kind() == types.KindVoid {
		return nil, int64(cand.Seqbase())
	}
	return cand.DecodedInts(job), 0
}

// checkCand validates the candidate-list argument kind.
func checkCand(cand *bat.BAT) error {
	if cand == nil {
		return nil
	}
	switch cand.Kind() {
	case types.KindVoid, types.KindOID:
		return nil
	}
	return fmt.Errorf("gdk: candidate list must be oid, got %s", cand.Kind())
}

// candInRange verifies a (sorted) candidate list stays inside [0, n) by
// checking its extremes in O(1), so misaligned wiring fails loudly instead
// of silently dropping rows.
func candInRange(cand *bat.BAT, n int) error {
	if err := checkCand(cand); err != nil {
		return err
	}
	if cand == nil || cand.Len() == 0 {
		return nil
	}
	lo, hi := int64(cand.OidAt(0)), int64(cand.OidAt(cand.Len()-1))
	if lo < 0 || hi >= int64(n) {
		return fmt.Errorf("gdk: candidate list [%d, %d] out of range [0, %d)", lo, hi, n)
	}
	return nil
}

// AndCand intersects two candidate lists in one linear merge pass. The
// inputs are sorted unique oid (or void) BATs; nil means "all rows", so
// intersecting with nil returns the other list. Two void runs intersect in
// O(1) as a clipped virtual range. It is the merge primitive for candidate
// lists produced by independently evaluated predicate branches.
func AndCand(job *par.Job, a, b *bat.BAT) *bat.BAT {
	if a == nil {
		return b
	}
	if b == nil {
		return a
	}
	if a.Kind() == types.KindVoid && b.Kind() == types.KindVoid {
		lo := max(int64(a.Seqbase()), int64(b.Seqbase()))
		hi := min(int64(a.Seqbase())+int64(a.Len()), int64(b.Seqbase())+int64(b.Len()))
		if hi <= lo {
			return emptyCand()
		}
		return bat.NewVoid(types.OID(lo), int(hi-lo))
	}
	// A void run against a materialised list clips in O(log n): binary
	// search the run's bounds in the sorted list and copy the window —
	// the allocation is exactly the output, never min(na, nb)/2 for a
	// tiny intersection.
	if a.Kind() == types.KindVoid || b.Kind() == types.KindVoid {
		run, list := a, b
		if b.Kind() == types.KindVoid {
			run, list = b, a
		}
		lo, hi := int64(run.Seqbase()), int64(run.Seqbase())+int64(run.Len())
		ints := list.DecodedInts(job)
		s := sort.Search(len(ints), func(i int) bool { return ints[i] >= lo })
		e := sort.Search(len(ints), func(i int) bool { return ints[i] >= hi })
		if s >= e {
			return emptyCand()
		}
		out := bat.FromOIDs(append([]int64(nil), ints[s:e]...))
		out.Sorted, out.Key = true, true
		return out
	}
	ai, abase := candSlice(job, a)
	bi, bbase := candSlice(job, b)
	na, nb := a.Len(), b.Len()
	// Grow geometrically from a small seed (seedCap): a tiny intersection
	// of two large lists must not pre-allocate half the input.
	out := make([]int64, 0, seedCap(min(na, nb)))
	i, j := 0, 0
	for i < na && j < nb {
		x := candAt(ai, abase, i)
		y := candAt(bi, bbase, j)
		switch {
		case x < y:
			i++
		case x > y:
			j++
		default:
			out = append(out, x)
			i++
			j++
		}
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob
}

// OrCand unions two candidate lists in one linear merge pass (sorted
// unique output). nil means "all rows" and absorbs the other list. Two
// void runs that overlap or touch union in O(1) as a virtual range.
func OrCand(job *par.Job, a, b *bat.BAT) *bat.BAT {
	if a == nil || b == nil {
		return nil
	}
	if a.Len() == 0 {
		return b
	}
	if b.Len() == 0 {
		return a
	}
	if a.Kind() == types.KindVoid && b.Kind() == types.KindVoid {
		alo, ahi := int64(a.Seqbase()), int64(a.Seqbase())+int64(a.Len())
		blo, bhi := int64(b.Seqbase()), int64(b.Seqbase())+int64(b.Len())
		if alo <= bhi && blo <= ahi { // overlapping or adjacent runs
			lo := min(alo, blo)
			hi := max(ahi, bhi)
			return bat.NewVoid(types.OID(lo), int(hi-lo))
		}
	}
	ai, abase := candSlice(job, a)
	bi, bbase := candSlice(job, b)
	na, nb := a.Len(), b.Len()
	out := make([]int64, 0, na+nb)
	i, j := 0, 0
	for i < na || j < nb {
		switch {
		case i >= na:
			out = append(out, candAt(bi, bbase, j))
			j++
		case j >= nb:
			out = append(out, candAt(ai, abase, i))
			i++
		default:
			x := candAt(ai, abase, i)
			y := candAt(bi, bbase, j)
			switch {
			case x < y:
				out = append(out, x)
				i++
			case x > y:
				out = append(out, y)
				j++
			default:
				out = append(out, x)
				i++
				j++
			}
		}
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob
}

func candAt(ints []int64, base int64, i int) int64 {
	if ints == nil {
		return base + int64(i)
	}
	return ints[i]
}

func emptyCand() *bat.BAT {
	b := bat.FromOIDs(nil)
	b.Sorted, b.Key = true, true
	return b
}
