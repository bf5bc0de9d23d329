package gdk

import (
	"fmt"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// DimBATs materialises the dimension-value BATs of an array, exactly as the
// paper's Fig. 3: dimension k is produced by
// array.series(start, step, stop, N, M) with (N, M) = shape.Reps(k).
func DimBATs(sh shape.Shape) ([]*bat.BAT, error) {
	out := make([]*bat.BAT, len(sh))
	for k, d := range sh {
		n, m := sh.Reps(k)
		b, err := bat.Series(d.Start, d.Step, d.Stop, n, m)
		if err != nil {
			return nil, fmt.Errorf("dimension %s: %v", d.Name, err)
		}
		out[k] = b
	}
	return out, nil
}

// CellPos is the inverse of array.series: it maps aligned coordinate
// columns, one per dimension of sh, to flat row-major cell positions,
// pos[i] = Σ_k index_k(coords[k][i]) × stride_k. A row with a coordinate
// off its dimension's range or step grid gets position -1; outside counts
// those rows.
func CellPos(sh shape.Shape, coords [][]int64) (pos []int, outside int) {
	n := 0
	if len(coords) > 0 {
		n = len(coords[0])
	}
	pos = make([]int, n)
	strides := sh.Strides()
	for k, d := range sh {
		c, cnt, stride := coords[k], int64(d.N()), strides[k]
		for i, v := range c {
			if pos[i] < 0 {
				continue
			}
			if cnt == 0 { // an empty dimension (a zero step included) holds no cell
				pos[i], outside = -1, outside+1
				continue
			}
			off := v - d.Start
			if d.Step != 1 {
				if off%d.Step != 0 {
					pos[i], outside = -1, outside+1
					continue
				}
				off /= d.Step
			}
			if off < 0 || off >= cnt {
				pos[i], outside = -1, outside+1
				continue
			}
			pos[i] += int(off) * stride
		}
	}
	return pos, outside
}

// CellsInOrder reports whether the coordinate columns are exactly the
// cells of sh in row-major order — the columns array.series would build —
// so that CellPos would return 0, 1, ..., sh.Cells()-1. It allocates
// nothing.
func CellsInOrder(sh shape.Shape, coords [][]int64) bool {
	cells := sh.Cells()
	for k, d := range sh {
		c := coords[k]
		if len(c) != cells {
			return false
		}
		n, m := sh.Reps(k)
		i := 0
		for g := 0; g < m; g++ {
			v := d.Start
			for j := d.N(); j > 0; j-- {
				for _, x := range c[i : i+n] {
					if x != v {
						return false
					}
				}
				i += n
				v += d.Step
			}
		}
	}
	return true
}

// CellFetch implements relative cell addressing (`A[x-1][y]` in SciQL, §4
// EdgeDetection): given an attribute column laid out in row-major shape
// order and one coordinate column per dimension, it returns, for each row,
// the attribute value at the addressed cell. Coordinates that fall outside
// the array ranges (or off-step, or NULL) yield NULL.
func CellFetch(job *par.Job, attr *bat.BAT, sh shape.Shape, coords []*bat.BAT) (*bat.BAT, error) {
	if len(coords) != len(sh) {
		return nil, fmt.Errorf("gdk: cellfetch needs %d coordinate columns, got %d", len(sh), len(coords))
	}
	if attr.Len() != sh.Cells() {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), sh.Cells())
	}
	n := 0
	if len(coords) > 0 {
		n = coords[0].Len()
	}
	coordInts := make([][]int64, len(coords))
	for k, c := range coords {
		if c.Len() != n {
			return nil, fmt.Errorf("gdk: cellfetch coordinates not aligned")
		}
		switch c.Kind() {
		case types.KindInt, types.KindOID:
			coordInts[k] = c.DecodedInts()
		case types.KindVoid:
			coordInts[k] = c.Materialize().DecodedInts()
		default:
			return nil, fmt.Errorf("gdk: cellfetch coordinate %d must be integer, got %s", k, c.Kind())
		}
	}
	// Gather through the cell positions; rows addressing no cell get a
	// NULL index, which the projection turns into a NULL value.
	pos, _ := CellPos(sh, coordInts)
	idx := par.Vec[int64](job, n)
	var holes *bat.Bitmap
	for i, p := range pos {
		null := p < 0
		for k := 0; !null && k < len(coords); k++ {
			null = coords[k].IsNull(i)
		}
		if null {
			if holes == nil {
				holes = bat.NewBitmap(n)
			}
			holes.Set(i, true)
			idx[i] = 0
			continue
		}
		idx[i] = int64(p)
	}
	ib := bat.FromOIDs(idx)
	ib.SetNullMask(holes)
	out, err := Project(job, ib, attr)
	par.Recycle(job, idx)
	return out, err
}

// TileRange is the relative extent of a tile along one dimension, in
// coordinate units: the tile covers anchor+Lo .. anchor+Hi (right-open),
// visiting cells on the dimension's step grid. `A[x:x+2]` is {0, 2};
// `A[x-1:x+2]` is {-1, 2}. A non-zero Step samples every Step-th
// coordinate within the range (the `[lo:step:hi]` tile form); zero means
// the dimension's own step.
type TileRange struct {
	Lo, Hi int64
	Step   int64
}

// offsets expands a TileRange into index-unit offsets for a dimension with
// the given step: the coordinates in [Lo,Hi) that land on the dimension
// grid, expressed as index deltas.
func (t TileRange) offsets(step int64) []int {
	if step < 0 {
		step = -step
	}
	if step == 0 {
		return nil
	}
	var out []int
	if t.Step > 0 {
		for o := t.Lo; o < t.Hi; o += t.Step {
			if ((o%step)+step)%step == 0 {
				out = append(out, int(o/step))
			}
		}
		return out
	}
	// Default stride: walk the dimension grid itself, starting at the
	// smallest multiple of step >= Lo.
	first := t.Lo
	if rem := ((first % step) + step) % step; rem != 0 {
		first += step - rem
	}
	for o := first; o < t.Hi; o += step {
		out = append(out, int(o/step))
	}
	return out
}

// TileSize returns the number of cells a tile covers per anchor (before
// boundary clipping).
func TileSize(sh shape.Shape, tile []TileRange) int {
	n := 1
	for k, t := range tile {
		n *= len(t.offsets(sh[k].Step))
	}
	return n
}

// TileAgg computes a structural-grouping aggregate (§2 "Array Tiling"):
// for every cell of the array (the anchor point) it aggregates the
// attribute over the tile anchored there. Cells outside the array bounds
// and holes (NULLs) are ignored; anchors whose tile holds no non-NULL cell
// yield NULL (count yields 0). The result is aligned with the array cells.
//
// The implementation enumerates the tile's relative offsets and, for each
// row of anchors, adds the row's shifted run of the attribute per offset —
// O(cells × tile size) in slice loops, morsel-parallel over the anchors.
func TileAgg(job *par.Job, agg AggKind, attr *bat.BAT, sh shape.Shape, tile []TileRange) (*bat.BAT, error) {
	if len(tile) != len(sh) {
		return nil, fmt.Errorf("gdk: tile spec has %d dimensions, array has %d", len(tile), len(sh))
	}
	if len(sh) == 0 {
		return nil, fmt.Errorf("gdk: tiling needs at least one dimension")
	}
	cells := sh.Cells()
	if attr.Len() != cells {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), cells)
	}
	offsetSets := make([][]int, len(sh))
	for k, t := range tile {
		offsetSets[k] = t.offsets(sh[k].Step)
		if len(offsetSets[k]) == 0 {
			// Empty tile: every anchor aggregates nothing.
			return emptyTileResult(job, agg, attr.ValueKind(), cells)
		}
	}
	switch agg {
	case AggSum, AggAvg, AggCount, AggCountAll:
		return tileAccumulate(job, agg, attr, sh, offsetSets)
	case AggMin, AggMax:
		return tileMinMax(job, agg, attr, sh, offsetSets)
	default:
		return nil, fmt.Errorf("gdk: tiling does not support aggregate %q", agg)
	}
}

func emptyTileResult(job *par.Job, agg AggKind, k types.Kind, cells int) (*bat.BAT, error) {
	if agg == AggCount || agg == AggCountAll {
		return bat.FromInts(par.ZeroVec[int64](job, cells)), nil
	}
	rk, err := AggResultKind(agg, k)
	if err != nil {
		return nil, err
	}
	return bat.Filler(job, cells, types.NullUnknown(), rk)
}

// rowSpans calls fn once for every run [p0, p1) of the flat cell range
// [from, to) that lies in one row of the innermost dimension. Before each
// call idx holds the coordinates, in index units, of p0. Only from is
// decoded with div/mod; later rows advance idx like an odometer.
func rowSpans(dims []int, from, to int, idx []int, fn func(p0, p1 int)) {
	if from >= to {
		return
	}
	k := len(dims)
	rest := from
	for d := k - 1; d >= 0; d-- {
		idx[d] = rest % dims[d]
		rest /= dims[d]
	}
	for p0 := from; p0 < to; {
		p1 := min(to, p0+dims[k-1]-idx[k-1])
		fn(p0, p1)
		p0 = p1
		idx[k-1] = 0
		for d := k - 2; d >= 0; d-- {
			if idx[d]++; idx[d] < dims[d] {
				break
			}
			idx[d] = 0
		}
	}
}

// shiftedRun returns the sub-run [a, b) of the row run [p0, p1) whose cells
// p, shifted by the index offsets offs, stay inside the array; idx holds
// the coordinates of p0. An empty run has a >= b.
func shiftedRun(dims, offs, idx []int, p0, p1 int) (a, b int) {
	last := len(dims) - 1
	for d := 0; d < last; d++ {
		if t := idx[d] + offs[d]; t < 0 || t >= dims[d] {
			return p0, p0
		}
	}
	i0 := idx[last]
	lo := max(i0, -offs[last])
	hi := min(i0+p1-p0, dims[last]-offs[last])
	return p0 + lo - i0, p0 + hi - i0
}

// tileRuns runs fn(a, b, shift) for every anchor run [a, b) and every tile
// offset whose shifted cells a+shift .. b-1+shift lie in the array. Anchors
// split into morsels that run in parallel; within a morsel each row visits
// the offsets in forEachOffsetTuple order, so every anchor sees them in
// that order whatever the thread count.
func tileRuns(job *par.Job, sh shape.Shape, offsetSets [][]int, fn func(a, b, shift int)) {
	k := len(sh)
	dims := make([]int, k)
	for d, dim := range sh {
		dims[d] = dim.N()
	}
	strides := sh.Strides()
	var tuples [][]int
	var shifts []int
	forEachOffsetTuple(offsetSets, func(offs []int) {
		shift := 0
		for d, o := range offs {
			shift += o * strides[d]
		}
		tuples = append(tuples, append([]int(nil), offs...))
		shifts = append(shifts, shift)
	})
	par.Do(job, strides[0]*dims[0], func(from, to int) {
		idx := make([]int, k)
		rowSpans(dims, from, to, idx, func(p0, p1 int) {
			for t, offs := range tuples {
				if a, b := shiftedRun(dims, offs, idx, p0, p1); a < b {
					fn(a, b, shifts[t])
				}
			}
		})
	})
}

// forEachOffsetTuple enumerates the cartesian product of per-dimension
// offset sets.
func forEachOffsetTuple(sets [][]int, fn func(offs []int)) {
	k := len(sets)
	idx := make([]int, k)
	offs := make([]int, k)
	for {
		for d := 0; d < k; d++ {
			offs[d] = sets[d][idx[d]]
		}
		fn(offs)
		d := k - 1
		for d >= 0 {
			idx[d]++
			if idx[d] < len(sets[d]) {
				break
			}
			idx[d] = 0
			d--
		}
		if d < 0 {
			return
		}
	}
}

func tileAccumulate(job *par.Job, agg AggKind, attr *bat.BAT, sh shape.Shape, offsetSets [][]int) (*bat.BAT, error) {
	cells := attr.Len()
	counts := par.ZeroVec[int64](job, cells)
	nulls := attr.NullMask()
	switch attr.ValueKind() {
	case types.KindInt, types.KindOID:
		sums := par.ZeroVec[int64](job, cells)
		tileRuns(job, sh, offsetSets, accumulateRun(intVals(attr), nulls, sums, counts))
		return finishAccumulate(job, agg, sums, nil, counts)
	case types.KindFloat:
		sums := par.ZeroVec[float64](job, cells)
		tileRuns(job, sh, offsetSets, accumulateRun(attr.DecodedFloats(), nulls, sums, counts))
		return finishAccumulate(job, agg, nil, sums, counts)
	default:
		if agg == AggCount || agg == AggCountAll {
			tileRuns(job, sh, offsetSets, func(a, b, shift int) {
				for p := a; p < b; p++ {
					if !nulls.Get(p + shift) {
						counts[p]++
					}
				}
			})
			return bat.FromInts(counts), nil
		}
		return nil, fmt.Errorf("gdk: tiling aggregate %s not defined on %s", agg, attr.ValueKind())
	}
}

// intVals is the attribute as int64 values (a void column materialised).
func intVals(attr *bat.BAT) []int64 {
	if attr.Kind() == types.KindVoid {
		return attr.Materialize().DecodedInts()
	}
	return attr.DecodedInts()
}

// accumulateRun adds the shifted run of src into sums and counts, skipping
// holes.
func accumulateRun[T int64 | float64](src []T, nulls *bat.Bitmap, sums []T, counts []int64) func(a, b, shift int) {
	return func(a, b, shift int) {
		dst, cnt, vals := sums[a:b], counts[a:b], src[a+shift:b+shift]
		if nulls == nil {
			for j, v := range vals {
				dst[j] += v
				cnt[j]++
			}
			return
		}
		for j, v := range vals {
			if !nulls.Get(a + shift + j) {
				dst[j] += v
				cnt[j]++
			}
		}
	}
}

// finishAccumulate converts raw sums/counts into the requested aggregate,
// handing whichever of the three slices the result does not keep back to
// the job's free list.
// Note: for COUNT the tile counts only non-NULL cells — COUNT(*) over a
// tile equals COUNT(attr) because out-of-bounds cells are not rows and
// holes are ignored per the paper's semantics.
func finishAccumulate(job *par.Job, agg AggKind, isums []int64, fsums []float64, counts []int64) (*bat.BAT, error) {
	n := len(counts)
	var out *bat.BAT
	switch agg {
	case AggCount, AggCountAll:
		par.Recycle(job, isums)
		par.Recycle(job, fsums)
		return bat.FromInts(counts), nil
	case AggSum:
		if isums != nil {
			out = bat.FromInts(isums)
		} else {
			out = bat.FromFloats(fsums)
		}
	case AggAvg:
		avgs := par.Vec[float64](job, n)
		par.Do(job, n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				switch {
				case counts[i] == 0:
					avgs[i] = 0
				case isums != nil:
					avgs[i] = float64(isums[i]) / float64(counts[i])
				default:
					avgs[i] = fsums[i] / float64(counts[i])
				}
			}
		})
		par.Recycle(job, isums)
		par.Recycle(job, fsums)
		out = bat.FromFloats(avgs)
	default:
		return nil, fmt.Errorf("gdk: unexpected accumulate aggregate %s", agg)
	}
	out = withNulls(out, emptyAnchors(job, counts))
	par.Recycle(job, counts)
	return out, nil
}

// emptyAnchors marks the anchors whose tile held no non-NULL cell.
func emptyAnchors(job *par.Job, counts []int64) *bat.Bitmap {
	mask := bat.NewBitmap(len(counts))
	par.Do(job, len(counts), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if counts[i] == 0 {
				mask.Set(i, true)
			}
		}
	})
	return mask
}

func tileMinMax(job *par.Job, agg AggKind, attr *bat.BAT, sh shape.Shape, offsetSets [][]int) (*bat.BAT, error) {
	cells := attr.Len()
	seen := par.ZeroVec[bool](job, cells)
	nulls := attr.NullMask()
	var out *bat.BAT
	switch attr.ValueKind() {
	case types.KindInt, types.KindOID:
		best := par.ZeroVec[int64](job, cells)
		tileRuns(job, sh, offsetSets, minMaxRun(intVals(attr), nulls, best, seen, agg == AggMin))
		out = bat.FromInts(best)
	case types.KindFloat:
		best := par.ZeroVec[float64](job, cells)
		tileRuns(job, sh, offsetSets, minMaxRun(attr.DecodedFloats(), nulls, best, seen, agg == AggMin))
		out = bat.FromFloats(best)
	default:
		return nil, fmt.Errorf("gdk: tiling aggregate %s not defined on %s", agg, attr.ValueKind())
	}
	mask := bat.NewBitmap(cells)
	for i, s := range seen {
		if !s {
			mask.Set(i, true)
		}
	}
	par.Recycle(job, seen)
	return withNulls(out, mask), nil
}

// minMaxRun folds the shifted run of src into best under SubAggr's rule
// (see beats), skipping holes; seen marks the anchors that have a value.
func minMaxRun[T int64 | float64](src []T, nulls *bat.Bitmap, best []T, seen []bool, isMin bool) func(a, b, shift int) {
	return func(a, b, shift int) {
		dst, got, vals := best[a:b], seen[a:b], src[a+shift:b+shift]
		for j, v := range vals {
			if nulls.Get(a + shift + j) {
				continue
			}
			if !got[j] || beats(isMin, v, dst[j]) {
				dst[j] = v
				got[j] = true
			}
		}
	}
}

// Shift implements relative cell addressing by constant offsets
// (`A[x-1][y]`, §4 EdgeDetection): row i holds the attribute of the cell
// whose coordinates are those of cell cand[i] (cell i without a candidate
// list) plus offs, in coordinate units. A cell shifted off the array or off
// a dimension's step grid yields NULL. It is CellFetch over the coordinate
// columns dim+offs without building them: the read is attr[p+shift] for
// one flattened stride shift.
func Shift(job *par.Job, attr *bat.BAT, sh shape.Shape, offs []int, cand *bat.BAT) (*bat.BAT, error) {
	if len(offs) != len(sh) {
		return nil, fmt.Errorf("gdk: shift needs %d offsets, got %d", len(sh), len(offs))
	}
	cells := sh.Cells()
	if attr.Len() != cells {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), cells)
	}
	n := cells
	if cand != nil {
		n = cand.Len()
	}
	dims := make([]int, len(sh))
	for d, dim := range sh {
		dims[d] = dim.N()
	}
	strides := sh.Strides()
	delta := make([]int, len(sh))
	shift := 0
	for d, dim := range sh {
		// An offset off the step grid or beyond the extent moves every
		// cell off the array.
		delta[d] = dims[d]
		if o := int64(offs[d]); dim.Step != 0 && o%dim.Step == 0 {
			if q := o / dim.Step; q > -int64(dims[d]) && q < int64(dims[d]) {
				delta[d] = int(q)
			}
		}
		shift += delta[d] * strides[d]
	}
	holes := attr.NullMask()
	var out *bat.BAT
	var nulls *bat.Bitmap
	var err error
	switch attr.ValueKind() {
	case types.KindInt, types.KindOID:
		var v []int64
		v, nulls, err = shiftRows(job, intVals(attr), holes, dims, strides, delta, shift, cand, n)
		out = bat.FromIntsOfKind(v, attr.ValueKind())
	case types.KindFloat:
		var v []float64
		v, nulls, err = shiftRows(job, attr.DecodedFloats(), holes, dims, strides, delta, shift, cand, n)
		out = bat.FromFloats(v)
	case types.KindBool:
		var v []bool
		v, nulls, err = shiftRows(job, attr.DecodedBools(), holes, dims, strides, delta, shift, cand, n)
		out = bat.FromBools(v)
	case types.KindStr:
		var v []string
		v, nulls, err = shiftRows(job, attr.DecodedStrs(), holes, dims, strides, delta, shift, cand, n)
		out = bat.FromStrings(v)
	default:
		return nil, fmt.Errorf("gdk: cannot shift %s column", attr.ValueKind())
	}
	if err != nil {
		return nil, err
	}
	out.CopyBoundsFrom(attr)
	return withNulls(out, nulls), nil
}

// shiftRows gathers vals[p+shift] for the n cells p of the candidate list
// (all cells when cand is nil), NULL where p shifted by the index offsets
// delta leaves the array or attr holds a hole. A dense run of cells is
// walked row by row with no per-cell coordinate decoding; an explicit oid
// list decodes the shifted dimensions of each row.
func shiftRows[T any](job *par.Job, vals []T, holes *bat.Bitmap, dims, strides, delta []int, shift int, cand *bat.BAT, n int) ([]T, *bat.Bitmap, error) {
	out := par.Vec[T](job, n)
	nulls := bat.NewBitmap(n)
	cells := len(vals)
	if cand == nil || cand.Kind() == types.KindVoid {
		base := 0
		if cand != nil {
			base = int(cand.Seqbase())
			if base < 0 || base+n > cells {
				return nil, nil, fmt.Errorf("gdk: shift candidates [%d,%d) outside [0,%d)", base, base+n, cells)
			}
		}
		par.Do(job, n, func(lo, hi int) {
			idx := make([]int, len(dims))
			rowSpans(dims, base+lo, base+hi, idx, func(p0, p1 int) {
				a, b := shiftedRun(dims, delta, idx, p0, p1)
				a = min(a, p1)
				b = max(b, a)
				for p := p0; p < a; p++ {
					nulls.Set(p-base, true)
				}
				for p := b; p < p1; p++ {
					nulls.Set(p-base, true)
				}
				clear(out[p0-base : a-base])
				clear(out[b-base : p1-base])
				if a == b {
					return
				}
				copy(out[a-base:b-base], vals[a+shift:b+shift])
				if holes != nil {
					for p := a; p < b; p++ {
						if holes.Get(p + shift) {
							nulls.Set(p-base, true)
						}
					}
				}
			})
		})
		return out, nulls, nil
	}
	pos := cand.DecodedInts()
	err := par.DoErr(job, n, func(lo, hi int) error {
		for i := lo; i < hi; i++ {
			p := int(pos[i])
			if p < 0 || p >= cells {
				return fmt.Errorf("gdk: shift candidate %d out of range [0,%d)", p, cells)
			}
			inside := true
			for d, dl := range delta {
				if dl == 0 {
					continue
				}
				if t := (p/strides[d])%dims[d] + dl; t < 0 || t >= dims[d] {
					inside = false
					break
				}
			}
			if !inside || holes.Get(p+shift) {
				nulls.Set(i, true)
				var zero T
				out[i] = zero
				continue
			}
			out[i] = vals[p+shift]
		}
		return nil
	})
	return out, nulls, err
}

// Reshape maps an attribute column from one array shape to another
// (ALTER ARRAY ... ALTER DIMENSION ... SET RANGE, Fig. 1(f)): cells present
// in both shapes keep their value, new cells receive the default. Every
// old cell's coordinates (the columns array.series builds for from) map
// through CellPos to its position in to, -1 when to lacks the cell, and
// one ReplaceAt scatters the column into the default filler, skipping
// those.
func Reshape(job *par.Job, attr *bat.BAT, from, to shape.Shape, def types.Value) (*bat.BAT, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("gdk: reshape dimensionality mismatch")
	}
	out, err := bat.Filler(job, to.Cells(), def, attr.ValueKind())
	if err != nil || from.Cells() == 0 {
		return out, err
	}
	dims, err := DimBATs(from)
	if err != nil {
		return nil, err
	}
	coords := make([][]int64, len(dims))
	for k, d := range dims {
		coords[k] = d.DecodedInts()
	}
	pos, _ := CellPos(to, coords)
	if err := out.ReplaceAt(pos, attr); err != nil {
		return nil, err
	}
	return out, nil
}
