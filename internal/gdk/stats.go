package gdk

import (
	"math"
	"sort"

	"repro/internal/bat"
	"repro/internal/types"
)

// Statistics-driven fast paths
//
// ThetaSelect and RangeSelect consult the column's properties before
// scanning anything:
//
//  1. O(1) bound pruning — the column's min/max prove the predicate empty
//     (nothing can match) or full (every non-NULL row matches, and there
//     are no NULLs): the result is a virtual void run intersected with the
//     candidate list, no data touched.
//  2. Sorted binary search — on a sorted column (ascending or descending,
//     no NULLs) the matching rows form one contiguous run found in
//     O(log n), returned as a void BAT.
//  3. Zonemap skip-scan — per-64K-slab min/max classify each slab as
//     none (skipped without touching data), all (emitted as a virtual
//     run), or some (scanned with a typed inner loop). The zonemap is
//     built lazily on the first selective scan and cached on the BAT; its
//     build also detects sortedness, so a column nobody ever analysed
//     still upgrades to the binary-search path.
//
// Every path returns positions bit-identical to the plain scan: "none"
// and "full" classifications account for NULLs (NULL rows never match)
// and NaN (which the engine's three-way comparison treats as equal to
// everything, so NaN-tainted slabs and columns never prune). The paths
// are always on; select_ref_test.go checks each against a literal loop.

// zonemapSelectMinRows is the column size below which selects do not
// bother building a zonemap (a single slab adds nothing over the column
// bounds). Tests lower it to exercise the skip-scan on small inputs.
var zonemapSelectMinRows = bat.ZonemapSlab

// slabClass is the zonemap verdict for one slab against a predicate.
type slabClass uint8

const (
	slabNone slabClass = iota // no row can match: skip without touching data
	slabSome                  // must scan
	slabAll                   // every row matches: emit as a virtual run
)

// classifyTheta classifies a slab with non-NULL bounds [mn, mx] against
// `value op w`. The caller handles NULL/NaN occupancy separately.
func classifyTheta[T int64 | float64](o cmpOp, w, mn, mx T) slabClass {
	switch o {
	case cmpEq:
		if w < mn || w > mx {
			return slabNone
		}
		if mn == mx {
			return slabAll
		}
	case cmpNe:
		if mn == mx && mn == w {
			return slabNone
		}
		if w < mn || w > mx {
			return slabAll
		}
	case cmpLt:
		if mn >= w {
			return slabNone
		}
		if mx < w {
			return slabAll
		}
	case cmpLe:
		if mn > w {
			return slabNone
		}
		if mx <= w {
			return slabAll
		}
	case cmpGt:
		if mx <= w {
			return slabNone
		}
		if mn > w {
			return slabAll
		}
	default: // cmpGe
		if mx < w {
			return slabNone
		}
		if mn >= w {
			return slabAll
		}
	}
	return slabSome
}

// classifyRange classifies bounds [mn, mx] against the inclusive range
// [lo, hi].
func classifyRange[T int64 | float64](lo, hi, mn, mx T) slabClass {
	if mx < lo || mn > hi {
		return slabNone
	}
	if mn >= lo && mx <= hi {
		return slabAll
	}
	return slabSome
}

// statsWant normalises the predicate constant exactly like the typed scan
// does (AsInt truncation for integer columns, AsFloat widening for float
// columns), so the fast paths compare the same value the scan would. ok is
// false when the fast paths must stand down (unsupported kind, NaN).
func statsWant(b *bat.BAT, val types.Value) (wi int64, wf float64, isInt, ok bool) {
	switch b.ValueKind() {
	case types.KindInt, types.KindOID:
		w, err := val.AsInt()
		if err != nil {
			return 0, 0, false, false
		}
		return w, 0, true, true
	case types.KindFloat:
		w, err := val.AsFloat()
		if err != nil || math.IsNaN(w) {
			// NaN compares equal to everything under the engine's three-way
			// comparison; no bound can reason about it.
			return 0, 0, false, false
		}
		return 0, w, false, true
	}
	return 0, 0, false, false
}

// intAt returns an accessor for the integer interpretation of a void/int/
// oid column (nil for other kinds).
func intAt(b *bat.BAT) func(int) int64 {
	switch b.Kind() {
	case types.KindInt, types.KindOID:
		vals := b.DecodedInts()
		return func(i int) int64 { return vals[i] }
	case types.KindVoid:
		base := int64(b.Seqbase())
		return func(i int) int64 { return base + int64(i) }
	}
	return nil
}

// sortedRun finds the contiguous index run matching `value op w` in a
// sorted, NULL-free column via binary search. asc selects the direction;
// cmpNe is not contiguous and reports ok = false.
func sortedRun[T int64 | float64](n int, at func(int) T, asc bool, o cmpOp, w T) (lo, hi int, ok bool) {
	if asc {
		ge := sort.Search(n, func(i int) bool { return at(i) >= w })
		gt := sort.Search(n, func(i int) bool { return at(i) > w })
		switch o {
		case cmpEq:
			return ge, gt, true
		case cmpLt:
			return 0, ge, true
		case cmpLe:
			return 0, gt, true
		case cmpGt:
			return gt, n, true
		case cmpGe:
			return ge, n, true
		}
		return 0, 0, false
	}
	le := sort.Search(n, func(i int) bool { return at(i) <= w })
	lt := sort.Search(n, func(i int) bool { return at(i) < w })
	switch o {
	case cmpEq:
		return le, lt, true
	case cmpLt:
		return lt, n, true
	case cmpLe:
		return le, n, true
	case cmpGt:
		return 0, le, true
	case cmpGe:
		return 0, lt, true
	}
	return 0, 0, false
}

// sortedRangeRun is sortedRun for the inclusive range [lo, hi].
func sortedRangeRun[T int64 | float64](n int, at func(int) T, asc bool, lo, hi T) (s, e int) {
	if asc {
		return sort.Search(n, func(i int) bool { return at(i) >= lo }),
			sort.Search(n, func(i int) bool { return at(i) > hi })
	}
	return sort.Search(n, func(i int) bool { return at(i) <= hi }),
		sort.Search(n, func(i int) bool { return at(i) < lo })
}

// runCand turns the index run [lo, hi) into a candidate result clipped to
// the candidate list.
func runCand(lo, hi int, cand *bat.BAT) *bat.BAT {
	if hi <= lo {
		return emptyCand()
	}
	run := bat.NewVoid(types.OID(lo), hi-lo)
	if cand == nil {
		return run
	}
	return AndCand(run, cand)
}

// sortedDirection resolves the usable order claim of a column. When
// mayBuildZM is set (a zonemap skip-scan would build the map anyway) it
// additionally consults the lazily built zonemap, whose construction
// detects sortedness as a side effect; otherwise only the O(1) flags are
// read, keeping small-column selects free of any locking.
func sortedDirection(b *bat.BAT, mayBuildZM bool) (asc, ok bool) {
	if b.Sorted {
		return true, true
	}
	if b.SortedDesc {
		return false, true
	}
	if !mayBuildZM {
		return false, false
	}
	if zm := b.Zonemap(); zm != nil {
		if zm.Sorted {
			return true, true
		}
		if zm.SortedDesc {
			return false, true
		}
	}
	return false, false
}

// candWindow resolves the dense window a candidate list restricts a
// zonemap scan to. ok is false for materialised (non-void) lists, which
// already make the scan output-proportional.
func candWindow(cand *bat.BAT, n int) (lo, hi int, ok bool) {
	if cand == nil {
		return 0, n, true
	}
	if cand.Kind() != types.KindVoid {
		return 0, 0, false
	}
	lo = int(cand.Seqbase())
	hi = lo + cand.Len()
	if lo < 0 {
		lo = 0
	}
	if hi > n {
		hi = n
	}
	if lo >= hi {
		return 0, 0, true // empty window: empty result
	}
	return lo, hi, true
}

// seg is one ordered piece of a skip-scan result: a virtual run when pos
// is nil, explicit positions otherwise.
type seg struct {
	lo, hi int64
	pos    []int64
}

// assembleSegs turns ordered segments into a candidate BAT: a single run
// stays virtual (void), anything else materialises into one exactly-sized
// allocation.
func assembleSegs(segs []seg) *bat.BAT {
	if len(segs) == 0 {
		return emptyCand()
	}
	if len(segs) == 1 && segs[0].pos == nil {
		return bat.NewVoid(types.OID(segs[0].lo), int(segs[0].hi-segs[0].lo))
	}
	total := 0
	for _, s := range segs {
		if s.pos != nil {
			total += len(s.pos)
		} else {
			total += int(s.hi - s.lo)
		}
	}
	out := make([]int64, 0, total)
	for _, s := range segs {
		if s.pos != nil {
			out = append(out, s.pos...)
			continue
		}
		for v := s.lo; v < s.hi; v++ {
			out = append(out, v)
		}
	}
	ob := bat.FromOIDs(out)
	ob.Sorted, ob.Key = true, true
	return ob
}

// appendSeg adds a piece, coalescing adjacent runs.
func appendSeg(segs []seg, s seg) []seg {
	if s.pos == nil && s.lo >= s.hi {
		return segs
	}
	if s.pos == nil && len(segs) > 0 {
		last := &segs[len(segs)-1]
		if last.pos == nil && last.hi == s.lo {
			last.hi = s.hi
			return segs
		}
	}
	return append(segs, s)
}

// scanSlab scans rows [lo, hi) with the match function, returning a run
// segment when the matches are contiguous (detected from count and
// extremes — no allocation) and an exactly-sized position list otherwise.
func scanSlab(lo, hi int, match func(int) bool) (seg, bool) {
	cnt, first, last := 0, 0, 0
	for i := lo; i < hi; i++ {
		if match(i) {
			if cnt == 0 {
				first = i
			}
			last = i
			cnt++
		}
	}
	return slabSeg(cnt, first, last, match)
}

func slabSeg(cnt, first, last int, match func(int) bool) (seg, bool) {
	if cnt == 0 {
		return seg{}, false
	}
	if cnt == last-first+1 {
		return seg{lo: int64(first), hi: int64(last) + 1}, true
	}
	pos := make([]int64, 0, cnt)
	for i := first; i <= last; i++ {
		if match(i) {
			pos = append(pos, int64(i))
		}
	}
	return seg{pos: pos}, true
}

// zonemapScan runs the skip-scan over window [wlo, whi): classify every
// slab, skip the impossible ones, emit certain ones as runs, scan the
// rest with the typed slab scanner. handled is false when the zonemap
// prunes too little to beat the parallel plain scan (fewer than half the
// slabs decided).
func zonemapScan(zm *bat.Zonemap, wlo, whi int, classify func(s int) slabClass, scan func(from, to int) (seg, bool)) (*bat.BAT, bool) {
	sFirst := wlo / bat.ZonemapSlab
	sLast := (whi - 1) / bat.ZonemapSlab
	decided := 0
	classes := make([]slabClass, sLast-sFirst+1)
	for s := sFirst; s <= sLast; s++ {
		c := slabSome
		if zm.AllNull[s] {
			c = slabNone
		} else if !zm.Mixed[s] {
			c = classify(s)
			if c == slabAll && zm.HasNull[s] {
				c = slabSome // NULL rows never match: cannot emit wholesale
			}
		}
		classes[s-sFirst] = c
		if c != slabSome {
			decided++
		}
	}
	if decided*2 < len(classes) {
		return nil, false
	}
	var segs []seg
	for s := sFirst; s <= sLast; s++ {
		lo, hi := zm.SlabRange(s)
		if lo < wlo {
			lo = wlo
		}
		if hi > whi {
			hi = whi
		}
		switch classes[s-sFirst] {
		case slabNone:
		case slabAll:
			segs = appendSeg(segs, seg{lo: int64(lo), hi: int64(hi)})
		default:
			if sg, any := scan(lo, hi); any {
				segs = appendSeg(segs, sg)
			}
		}
	}
	return assembleSegs(segs), true
}

// statsThetaSelect is the fast-path front of ThetaSelect. handled reports
// whether a result was produced; the caller falls back to the plain scan
// otherwise.
func statsThetaSelect(b, cand *bat.BAT, val types.Value, op string) (out *bat.BAT, handled bool) {
	o, err := cmpOpOf(op)
	if err != nil {
		return nil, false
	}
	wi, wf, isInt, ok := statsWant(b, val)
	if !ok {
		return nil, false
	}
	n := b.Len()
	if n == 0 {
		return emptyCand(), true
	}

	// O(1) column-bound pruning. "none" is sound with NULLs present
	// (NULL rows never match anyway); "all" additionally needs the column
	// NULL-free.
	var class slabClass = slabSome
	haveBounds := false
	if isInt {
		if mn, mx, okb := b.MinMaxInts(); okb {
			class, haveBounds = classifyTheta(o, wi, mn, mx), true
		}
	} else {
		if mn, mx, okb := b.MinMaxFloats(); okb {
			class, haveBounds = classifyTheta(o, wf, mn, mx), true
		}
	}
	if haveBounds {
		switch {
		case class == slabNone:
			return emptyCand(), true
		case class == slabAll && !b.HasNulls():
			return runCand(0, n, cand), true
		}
	}

	eligibleZM := n >= zonemapSelectMinRows
	wlo, whi, denseWindow := candWindow(cand, n)
	if denseWindow && whi <= wlo {
		return emptyCand(), true
	}

	// Sorted columns answer with a binary search. Building the zonemap to
	// discover sortedness is only worth it when a skip-scan would build it
	// anyway.
	if !b.HasNulls() && o != cmpNe {
		if asc, sok := sortedDirection(b, eligibleZM && denseWindow); sok {
			var lo, hi int
			var rok bool
			if isInt {
				if at := intAt(b); at != nil {
					lo, hi, rok = sortedRun(n, at, asc, o, wi)
				}
			} else {
				vals := b.DecodedFloats()
				lo, hi, rok = sortedRun(n, func(i int) float64 { return vals[i] }, asc, o, wf)
			}
			if rok {
				return runCand(lo, hi, cand), true
			}
		}
	}

	// Zonemap skip-scan over the dense window.
	if !eligibleZM || !denseWindow || b.Kind() == types.KindVoid {
		return nil, false
	}
	zm := b.Zonemap()
	if zm == nil {
		return nil, false
	}
	var res *bat.BAT
	var zok bool
	if isInt {
		ilo, ihi, neg := thetaBounds(o, wi, math.MinInt64, math.MaxInt64)
		res, zok = zonemapScan(zm, wlo, whi,
			func(s int) slabClass { return classifyTheta(o, wi, zm.MinI[s], zm.MaxI[s]) },
			intSlabScanner(b, ilo, ihi, neg))
	} else {
		flo, fhi, neg := thetaBounds(o, wf, math.Inf(-1), math.Inf(1))
		res, zok = zonemapScan(zm, wlo, whi,
			func(s int) slabClass { return classifyTheta(o, wf, zm.MinF[s], zm.MaxF[s]) },
			floatSlabScanner(b, flo, fhi, neg))
	}
	if !zok {
		return nil, false
	}
	return res, true
}

// statsRangeSelect is the fast-path front of RangeSelect (inclusive
// BETWEEN bounds).
func statsRangeSelect(b, cand *bat.BAT, lo, hi types.Value) (out *bat.BAT, handled bool) {
	li, lf, lInt, ok1 := statsWant(b, lo)
	hiI, hiF, _, ok2 := statsWant(b, hi)
	if !ok1 || !ok2 {
		return nil, false
	}
	n := b.Len()
	if n == 0 {
		return emptyCand(), true
	}

	var class slabClass = slabSome
	haveBounds := false
	if lInt {
		if mn, mx, okb := b.MinMaxInts(); okb {
			class, haveBounds = classifyRange(li, hiI, mn, mx), true
		}
	} else {
		if mn, mx, okb := b.MinMaxFloats(); okb {
			class, haveBounds = classifyRange(lf, hiF, mn, mx), true
		}
	}
	if haveBounds {
		switch {
		case class == slabNone:
			return emptyCand(), true
		case class == slabAll && !b.HasNulls():
			return runCand(0, n, cand), true
		}
	}

	eligibleZM := n >= zonemapSelectMinRows
	wlo, whi, denseWindow := candWindow(cand, n)
	if denseWindow && whi <= wlo {
		return emptyCand(), true
	}

	if !b.HasNulls() {
		if asc, sok := sortedDirection(b, eligibleZM && denseWindow); sok {
			if lInt {
				if at := intAt(b); at != nil {
					s, e := sortedRangeRun(n, at, asc, li, hiI)
					return runCand(s, e, cand), true
				}
			} else {
				vals := b.DecodedFloats()
				s, e := sortedRangeRun(n, func(i int) float64 { return vals[i] }, asc, lf, hiF)
				return runCand(s, e, cand), true
			}
		}
	}

	if !eligibleZM || !denseWindow || b.Kind() == types.KindVoid {
		return nil, false
	}
	zm := b.Zonemap()
	if zm == nil {
		return nil, false
	}
	var res *bat.BAT
	var zok bool
	if lInt {
		res, zok = zonemapScan(zm, wlo, whi,
			func(s int) slabClass { return classifyRange(li, hiI, zm.MinI[s], zm.MaxI[s]) },
			intSlabScanner(b, li, hiI, false))
	} else {
		res, zok = zonemapScan(zm, wlo, whi,
			func(s int) slabClass { return classifyRange(lf, hiF, zm.MinF[s], zm.MaxF[s]) },
			floatSlabScanner(b, lf, hiF, false))
	}
	if !zok {
		return nil, false
	}
	return res, true
}
