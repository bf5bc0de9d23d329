package gdk

import (
	"strings"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Encoded-direct string selection.
//
// String columns have no zonemap fast path (statsWant stands down on
// non-numeric kinds), so an encoded string theta-select would otherwise
// decode every slab just to re-compare each row against the constant.
// Dictionary slabs let us do better: evaluate the predicate once per
// distinct value (at most maxDictCard string comparisons per slab), then
// scan the 2-byte code stream. Plain slabs inside an encoded column fall
// back to direct string compares over the borrowed values.
//
// The result is bit-identical to the thetaTest scan in select.go: the
// dictionary holds the raw slot values, the comparison is the same
// strings.Compare three-way that types.Value.Compare uses, and NULL rows
// are masked per row exactly as the fallback does.

// encodedStrTheta answers ThetaSelect on an encoded string column.
// handled is false when the column is not an encoded string column, the
// constant is not a string, the op is unknown (the fallback owns the
// error message), or the candidate list is materialised (output-
// proportional already — the fallback's per-candidate probe wins).
func encodedStrTheta(job *par.Job, b, cand *bat.BAT, val types.Value, op string) (*bat.BAT, bool, error) {
	if b.Kind() != types.KindStr || !b.Encoded() || val.Kind() != types.KindStr {
		return nil, false, nil
	}
	o, err := cmpOpOf(op)
	if err != nil {
		return nil, false, nil
	}
	n := b.Len()
	wlo, whi, dense := candWindow(cand, n)
	if !dense {
		return nil, false, nil
	}
	if whi <= wlo {
		return emptyCand(), true, nil
	}
	want := val.StrVal()
	var nulls *bat.Bitmap
	if b.HasNulls() {
		nulls = b.NullMask()
	}
	var segs []seg
	var md []bool
	for s := wlo / bat.SlabRows; s < b.NumSlabs() && s*bat.SlabRows < whi; s++ {
		v := b.Slab(job, s)
		start := v.Start()
		from, to := start, start+v.Len()
		if from < wlo {
			from = wlo
		}
		if to > whi {
			to = whi
		}
		var sg seg
		var any bool
		if dict, codes, ok := v.DictStrs(); ok {
			// Predicate per distinct value, then a code scan.
			if cap(md) < len(dict) {
				md = make([]bool, len(dict))
			}
			md = md[:len(dict)]
			hit := false
			for c, dv := range dict {
				md[c] = o.ok(strings.Compare(dv, want))
				hit = hit || md[c]
			}
			if !hit {
				continue // no distinct value matches: skip the codes
			}
			sg, any = scanSlab(from, to, func(i int) bool {
				if nulls != nil && nulls.Get(i) {
					return false
				}
				return md[codes[i-start]]
			})
		} else {
			vals := v.Strs(nil) // plain slab: borrowed, no scratch
			sg, any = scanSlab(from, to, func(i int) bool {
				if nulls != nil && nulls.Get(i) {
					return false
				}
				return o.ok(strings.Compare(vals[i-start], want))
			})
		}
		if any {
			segs = appendSeg(segs, sg)
		}
	}
	return assembleSegs(segs), true, nil
}
