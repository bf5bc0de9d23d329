package gdk

import (
	"fmt"

	"repro/internal/bat"
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
func CellFetch(attr *bat.BAT, sh shape.Shape, coords []*bat.BAT) (*bat.BAT, error) {
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
	idx := make([]int64, n)
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
			continue
		}
		idx[i] = int64(p)
	}
	ib := bat.FromOIDs(idx)
	ib.SetNullMask(holes)
	return Project(ib, attr)
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
// The implementation enumerates the tile's relative offsets and accumulates
// one shifted copy of the attribute per offset — O(cells × tile size) with
// fully vectorised inner loops.
func TileAgg(agg AggKind, attr *bat.BAT, sh shape.Shape, tile []TileRange) (*bat.BAT, error) {
	if len(tile) != len(sh) {
		return nil, fmt.Errorf("gdk: tile spec has %d dimensions, array has %d", len(tile), len(sh))
	}
	cells := sh.Cells()
	if attr.Len() != cells {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), cells)
	}
	dims := make([]int, len(sh))
	for k, d := range sh {
		dims[k] = d.N()
	}
	offsetSets := make([][]int, len(sh))
	for k, t := range tile {
		offsetSets[k] = t.offsets(sh[k].Step)
		if len(offsetSets[k]) == 0 {
			// Empty tile: every anchor aggregates nothing.
			return emptyTileResult(agg, attr.ValueKind(), cells)
		}
	}
	switch agg {
	case AggSum, AggAvg, AggCount, AggCountAll:
		return tileAccumulate(agg, attr, dims, offsetSets)
	case AggMin, AggMax:
		return tileMinMax(agg, attr, dims, offsetSets)
	default:
		return nil, fmt.Errorf("gdk: tiling does not support aggregate %q", agg)
	}
}

func emptyTileResult(agg AggKind, k types.Kind, cells int) (*bat.BAT, error) {
	if agg == AggCount || agg == AggCountAll {
		return bat.FromInts(make([]int64, cells)), nil
	}
	rk, err := AggResultKind(agg, k)
	if err != nil {
		return nil, err
	}
	return bat.Filler(cells, types.NullUnknown(), rk)
}

// forEachShiftedRegion visits, for one relative index-offset tuple, every
// anchor position p whose shifted position p' = p + offset stays in bounds.
// It calls fn(p, p') for each such pair, iterating in row-major order with
// precomputed strides (no per-cell coordinate decoding).
func forEachShiftedRegion(dims []int, offs []int, fn func(p, q int)) {
	k := len(dims)
	// Valid anchor index range per dimension: i in [lo_k, hi_k) such that
	// i + off_k in [0, dims_k).
	lo := make([]int, k)
	hi := make([]int, k)
	for d := 0; d < k; d++ {
		lo[d] = 0
		if offs[d] < 0 {
			lo[d] = -offs[d]
		}
		hi[d] = dims[d]
		if m := dims[d] - offs[d]; m < hi[d] {
			hi[d] = m
		}
		if lo[d] >= hi[d] {
			return
		}
	}
	strides := make([]int, k)
	acc := 1
	for d := k - 1; d >= 0; d-- {
		strides[d] = acc
		acc *= dims[d]
	}
	shift := 0
	for d := 0; d < k; d++ {
		shift += offs[d] * strides[d]
	}
	// Row-major nested iteration over the anchor hyper-rectangle.
	idx := make([]int, k)
	for d := range idx {
		idx[d] = lo[d]
	}
	for {
		p := 0
		for d := 0; d < k; d++ {
			p += idx[d] * strides[d]
		}
		// Innermost dimension runs contiguously; hoist it.
		last := k - 1
		base := p - idx[last]*strides[last]
		for i := lo[last]; i < hi[last]; i++ {
			q := base + i
			fn(q, q+shift)
		}
		// Advance the outer dimensions.
		d := k - 2
		for d >= 0 {
			idx[d]++
			if idx[d] < hi[d] {
				break
			}
			idx[d] = lo[d]
			d--
		}
		if d < 0 {
			break
		}
	}
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

func tileAccumulate(agg AggKind, attr *bat.BAT, dims []int, offsetSets [][]int) (*bat.BAT, error) {
	cells := attr.Len()
	counts := make([]int64, cells)
	switch attr.ValueKind() {
	case types.KindInt, types.KindOID:
		var src []int64
		if attr.Kind() == types.KindVoid {
			src = attr.Materialize().DecodedInts()
		} else {
			src = attr.DecodedInts()
		}
		sums := make([]int64, cells)
		hasNulls := attr.HasNulls()
		forEachOffsetTuple(offsetSets, func(offs []int) {
			if hasNulls {
				forEachShiftedRegion(dims, offs, func(p, q int) {
					if !attr.IsNull(q) {
						sums[p] += src[q]
						counts[p]++
					}
				})
			} else {
				forEachShiftedRegion(dims, offs, func(p, q int) {
					sums[p] += src[q]
					counts[p]++
				})
			}
		})
		return finishAccumulate(agg, sums, nil, counts)
	case types.KindFloat:
		src := attr.DecodedFloats()
		sums := make([]float64, cells)
		hasNulls := attr.HasNulls()
		forEachOffsetTuple(offsetSets, func(offs []int) {
			if hasNulls {
				forEachShiftedRegion(dims, offs, func(p, q int) {
					if !attr.IsNull(q) {
						sums[p] += src[q]
						counts[p]++
					}
				})
			} else {
				forEachShiftedRegion(dims, offs, func(p, q int) {
					sums[p] += src[q]
					counts[p]++
				})
			}
		})
		return finishAccumulate(agg, nil, sums, counts)
	default:
		if agg == AggCount || agg == AggCountAll {
			forEachOffsetTuple(offsetSets, func(offs []int) {
				forEachShiftedRegion(dims, offs, func(p, q int) {
					if !attr.IsNull(q) {
						counts[p]++
					}
				})
			})
			return bat.FromInts(counts), nil
		}
		return nil, fmt.Errorf("gdk: tiling aggregate %s not defined on %s", agg, attr.ValueKind())
	}
}

// finishAccumulate converts raw sums/counts into the requested aggregate.
// Note: for COUNT the tile counts only non-NULL cells — COUNT(*) over a
// tile equals COUNT(attr) because out-of-bounds cells are not rows and
// holes are ignored per the paper's semantics.
func finishAccumulate(agg AggKind, isums []int64, fsums []float64, counts []int64) (*bat.BAT, error) {
	n := len(counts)
	switch agg {
	case AggCount, AggCountAll:
		return bat.FromInts(counts), nil
	case AggSum:
		if isums != nil {
			out := bat.FromInts(isums)
			for i, c := range counts {
				if c == 0 {
					out.SetNull(i, true)
				}
			}
			return out, nil
		}
		out := bat.FromFloats(fsums)
		for i, c := range counts {
			if c == 0 {
				out.SetNull(i, true)
			}
		}
		return out, nil
	case AggAvg:
		avgs := make([]float64, n)
		for i := range avgs {
			if counts[i] == 0 {
				continue
			}
			if isums != nil {
				avgs[i] = float64(isums[i]) / float64(counts[i])
			} else {
				avgs[i] = fsums[i] / float64(counts[i])
			}
		}
		out := bat.FromFloats(avgs)
		for i, c := range counts {
			if c == 0 {
				out.SetNull(i, true)
			}
		}
		return out, nil
	}
	return nil, fmt.Errorf("gdk: unexpected accumulate aggregate %s", agg)
}

func tileMinMax(agg AggKind, attr *bat.BAT, dims []int, offsetSets [][]int) (*bat.BAT, error) {
	cells := attr.Len()
	seen := make([]bool, cells)
	switch attr.ValueKind() {
	case types.KindInt, types.KindOID:
		var src []int64
		if attr.Kind() == types.KindVoid {
			src = attr.Materialize().DecodedInts()
		} else {
			src = attr.DecodedInts()
		}
		best := make([]int64, cells)
		forEachOffsetTuple(offsetSets, func(offs []int) {
			forEachShiftedRegion(dims, offs, func(p, q int) {
				if attr.IsNull(q) {
					return
				}
				v := src[q]
				if !seen[p] || (agg == AggMin && v < best[p]) || (agg == AggMax && v > best[p]) {
					best[p] = v
					seen[p] = true
				}
			})
		})
		out := bat.FromInts(best)
		for i, s := range seen {
			if !s {
				out.SetNull(i, true)
			}
		}
		return out, nil
	case types.KindFloat:
		src := attr.DecodedFloats()
		best := make([]float64, cells)
		forEachOffsetTuple(offsetSets, func(offs []int) {
			forEachShiftedRegion(dims, offs, func(p, q int) {
				if attr.IsNull(q) {
					return
				}
				v := src[q]
				if !seen[p] || (agg == AggMin && v < best[p]) || (agg == AggMax && v > best[p]) {
					best[p] = v
					seen[p] = true
				}
			})
		})
		out := bat.FromFloats(best)
		for i, s := range seen {
			if !s {
				out.SetNull(i, true)
			}
		}
		return out, nil
	default:
		return nil, fmt.Errorf("gdk: tiling aggregate %s not defined on %s", agg, attr.ValueKind())
	}
}

// Reshape maps an attribute column from one array shape to another
// (ALTER ARRAY ... ALTER DIMENSION ... SET RANGE, Fig. 1(f)): cells present
// in both shapes keep their value, new cells receive the default.
func Reshape(attr *bat.BAT, from, to shape.Shape, def types.Value) (*bat.BAT, error) {
	if len(from) != len(to) {
		return nil, fmt.Errorf("gdk: reshape dimensionality mismatch")
	}
	out, err := bat.Filler(to.Cells(), def, attr.ValueKind())
	if err != nil {
		return nil, err
	}
	coords := make([]int64, len(to))
	for p := 0; p < to.Cells(); p++ {
		to.Coords(p, coords)
		if q, ok := from.Pos(coords); ok {
			if attr.IsNull(q) {
				out.SetNull(p, true)
			} else if err := out.Replace(p, attr.Get(q)); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}
