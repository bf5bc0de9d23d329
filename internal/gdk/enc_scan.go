package gdk

import (
	"repro/internal/bat"
	"repro/internal/par"
)

// Encoding-aware slab scanners for the zonemap skip-scan (stats.go).
//
// zonemapScan hands each undecided slab to a typed scanner as a clipped
// [from, to) row range that never crosses a slab boundary. The scanners
// here resolve the slab's physical form through the SlabView API and pick
// the cheapest execution:
//
//   - RLE (no NULLs): the predicate is evaluated once per run; matching
//     runs become candidate segments without touching per-row data at all.
//   - Dictionary ints: the interval test runs once per distinct value,
//     then the 2-byte code stream is scanned.
//   - FOR/delta (and any other encoded form): decoded into a scratch
//     buffer reused across slabs — zonemapScan drives its scanner
//     serially, so one buffer per select suffices.
//   - Plain slabs (or a plain column) are borrowed zero-copy.
//
// Every branch produces positions bit-identical to the plain loop.

// intSlabScanner returns the slab scan for integer interval membership
// `(v >= lo && v <= hi) != negate` (thetaBounds' test, written for ints).
func intSlabScanner(job *par.Job, b *bat.BAT, lo, hi int64, negate bool) func(from, to int) (seg, bool) {
	var nulls *bat.Bitmap
	if b.HasNulls() {
		nulls = b.NullMask()
	}
	var scratch []int64
	var md []bool
	return func(from, to int) (seg, bool) {
		v := b.Slab(job, from/bat.SlabRows)
		start := v.Start()
		if nulls == nil {
			if rv, lens, ok := v.IntRuns(); ok {
				return rleSeg(from, to, start, lens, func(ri int) bool {
					x := rv[ri]
					return (x >= lo && x <= hi) != negate
				})
			}
		}
		if dict, codes, ok := v.DictInts(); ok {
			if cap(md) < len(dict) {
				md = make([]bool, len(dict))
			}
			md = md[:len(dict)]
			for c, dv := range dict {
				md[c] = (dv >= lo && dv <= hi) != negate
			}
			return scanSlab(from, to, func(i int) bool {
				if nulls != nil && nulls.Get(i) {
					return false
				}
				return md[codes[i-start]]
			})
		}
		vals := v.Ints(scratch)
		if v.Enc() != bat.EncPlain {
			scratch = vals // keep the decode buffer; borrowed slabs stay out
		}
		cnt, first, last := 0, 0, 0
		if nulls == nil {
			for i := from; i < to; i++ {
				x := vals[i-start]
				if (x >= lo && x <= hi) != negate {
					if cnt == 0 {
						first = i
					}
					last = i
					cnt++
				}
			}
			return slabSeg(cnt, first, last, func(i int) bool {
				x := vals[i-start]
				return (x >= lo && x <= hi) != negate
			})
		}
		for i := from; i < to; i++ {
			if nulls.Get(i) {
				continue
			}
			x := vals[i-start]
			if (x >= lo && x <= hi) != negate {
				if cnt == 0 {
					first = i
				}
				last = i
				cnt++
			}
		}
		return slabSeg(cnt, first, last, func(i int) bool {
			if nulls.Get(i) {
				return false
			}
			x := vals[i-start]
			return (x >= lo && x <= hi) != negate
		})
	}
}

// floatSlabScanner is intSlabScanner for float columns, with thetaBounds'
// test `(!(v < lo) && !(v > hi)) != negate`, under which NaN rows lie
// inside every interval.
func floatSlabScanner(job *par.Job, b *bat.BAT, lo, hi float64, negate bool) func(from, to int) (seg, bool) {
	ok := func(v float64) bool { return (!(v < lo) && !(v > hi)) != negate }
	var nulls *bat.Bitmap
	if b.HasNulls() {
		nulls = b.NullMask()
	}
	var scratch []float64
	return func(from, to int) (seg, bool) {
		v := b.Slab(job, from/bat.SlabRows)
		start := v.Start()
		if nulls == nil {
			if rv, lens, rok := v.FloatRuns(); rok {
				return rleSeg(from, to, start, lens, func(ri int) bool { return ok(rv[ri]) })
			}
		}
		vals := v.Floats(scratch)
		if v.Enc() != bat.EncPlain {
			scratch = vals
		}
		if nulls == nil {
			return scanSlab(from, to, func(i int) bool {
				return ok(vals[i-start])
			})
		}
		return scanSlab(from, to, func(i int) bool {
			if nulls.Get(i) {
				return false
			}
			return ok(vals[i-start])
		})
	}
}

// rleSeg builds the scan segment for an RLE slab from its run lengths:
// run ri covers global rows [p, p+lens[ri]) with p starting at the slab
// base, and matches (all rows or none) according to ok. Mirrors
// scanSlab/slabSeg: a single contiguous stretch stays a virtual run, the
// rest materialises exactly-sized.
func rleSeg(from, to, start int, lens []uint32, ok func(ri int) bool) (seg, bool) {
	cnt, first, last := 0, 0, 0
	p := start
	for ri, l := range lens {
		rs, re := p, p+int(l)
		p = re
		if re <= from {
			continue
		}
		if rs >= to {
			break
		}
		if !ok(ri) {
			continue
		}
		if rs < from {
			rs = from
		}
		if re > to {
			re = to
		}
		if cnt == 0 {
			first = rs
		}
		last = re - 1
		cnt += re - rs
	}
	if cnt == 0 {
		return seg{}, false
	}
	if cnt == last-first+1 {
		return seg{lo: int64(first), hi: int64(last) + 1}, true
	}
	pos := make([]int64, 0, cnt)
	p = start
	for ri, l := range lens {
		rs, re := p, p+int(l)
		p = re
		if re <= from {
			continue
		}
		if rs >= to {
			break
		}
		if !ok(ri) {
			continue
		}
		if rs < from {
			rs = from
		}
		if re > to {
			re = to
		}
		for i := rs; i < re; i++ {
			pos = append(pos, int64(i))
		}
	}
	return seg{pos: pos}, true
}
