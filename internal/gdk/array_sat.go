package gdk

import (
	"fmt"
	"math/bits"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// TileAggSAT computes the same result as TileAgg for SUM/AVG/COUNT tiles
// that cover a contiguous index box, using a d-dimensional summed-area
// table: O(cells · 2^d) per query instead of O(cells · tile-size). The MAL
// optimizer switches to this kernel when the tile area is large enough
// (see internal/mal, optimizer pass "tileSAT").
//
// It returns an error when the tile is not SAT-able (off-grid offsets on a
// stepped dimension make the covered index set non-contiguous only if the
// range excludes the grid entirely, which offsets() already handles; here
// the only restriction is the aggregate kind and value type).
func TileAggSAT(job *par.Job, agg AggKind, attr *bat.BAT, sh shape.Shape, tile []TileRange) (*bat.BAT, error) {
	if agg != AggSum && agg != AggAvg && agg != AggCount && agg != AggCountAll {
		return nil, fmt.Errorf("gdk: SAT tiling supports sum/avg/count only, got %s", agg)
	}
	if len(tile) != len(sh) {
		return nil, fmt.Errorf("gdk: tile spec has %d dimensions, array has %d", len(tile), len(sh))
	}
	k := len(sh)
	if k == 0 {
		return nil, fmt.Errorf("gdk: SAT tiling needs at least one dimension")
	}
	cells := sh.Cells()
	if attr.Len() != cells {
		return nil, fmt.Errorf("gdk: attribute column has %d cells, shape has %d", attr.Len(), cells)
	}
	dims := make([]int, k)
	for d, dim := range sh {
		dims[d] = dim.N()
	}
	// Index-unit offset box [lo_d, hi_d] (inclusive) per dimension.
	lo := make([]int, k)
	hi := make([]int, k)
	for d, t := range tile {
		offs := t.offsets(sh[d].Step)
		if len(offs) == 0 {
			return emptyTileResult(job, agg, attr.ValueKind(), cells)
		}
		// offsets() yields an increasing, dense run of index offsets.
		lo[d] = offs[0]
		hi[d] = offs[len(offs)-1]
		if hi[d]-lo[d]+1 != len(offs) {
			return nil, fmt.Errorf("gdk: tile offsets not contiguous in index space")
		}
	}

	g := newSATGeom(job, dims, sh.Strides(), lo, hi)
	holes := attr.NullMask()
	var counts []int64
	if holes == nil {
		// No holes: a box holds as many values as it has cells. Rows
		// whose box is empty in an outer dimension are not visited.
		counts = par.ZeroVec[int64](job, cells)
		g.rows(func(p0, p1, i0, area int, _ []int) {
			for j, w := range g.width[i0 : i0+p1-p0] {
				counts[p0+j] = int64(area * w)
			}
		})
	} else {
		ones := par.Vec[int64](job, cells)
		par.Do(job, cells, func(from, to int) {
			for p := from; p < to; p++ {
				ones[p] = int64(bit(!holes.Get(p)))
			}
		})
		counts = boxSums(g, ones, nil)
		par.Recycle(job, ones)
	}
	switch {
	case agg == AggCount || agg == AggCountAll:
		return bat.FromInts(counts), nil
	case attr.ValueKind() == types.KindFloat:
		return finishAccumulate(job, agg, nil, boxSums(g, attr.DecodedFloats(job), holes), counts)
	case attr.ValueKind() == types.KindInt || attr.ValueKind() == types.KindOID:
		return finishAccumulate(job, agg, boxSums(g, intVals(job, attr), holes), nil, counts)
	}
	return nil, fmt.Errorf("gdk: SAT tiling aggregate %s not defined on %s", agg, attr.ValueKind())
}

// satGeom is the index geometry of a SAT query: the array's extents and
// row-major strides, and the tile as an inclusive index box [lo, hi]
// relative to its anchor. Clipping the box in the innermost dimension
// depends only on the anchor's innermost index i, so it is tabulated once:
// the box covers innermost indices lastLo[i]+1 .. lastHi[i] and width[i]
// of them; a corner index of -1 lies before the array (or the box is
// empty) and contributes nothing.
type satGeom struct {
	job                   *par.Job
	dims, strides, lo, hi []int
	lastLo, lastHi, width []int
}

func newSATGeom(job *par.Job, dims, strides, lo, hi []int) satGeom {
	k := len(dims)
	g := satGeom{job: job, dims: dims, strides: strides, lo: lo, hi: hi}
	n := dims[k-1]
	g.lastLo, g.lastHi, g.width = make([]int, n), make([]int, n), make([]int, n)
	for i := range n {
		l, h := max(0, i+lo[k-1]), min(n-1, i+hi[k-1])
		g.lastLo[i], g.lastHi[i] = l-1, h
		if l > h {
			g.lastLo[i], g.lastHi[i] = -1, -1
			continue
		}
		g.width[i] = h - l + 1
	}
	return g
}

// rows walks the anchors morsel-parallel, one innermost row run [p0, p1)
// at a time, skipping runs whose box is empty in an outer dimension. fn
// gets the innermost index i0 of p0, the volume of the clipped box over
// the outer dimensions, and for each of the 2^k inclusion-exclusion
// corners m the flat offset its outer coordinates contribute (bit d of m
// set: lo_d-1, else hi_d), or -1 when that corner lies before the array.
func (g satGeom) rows(fn func(p0, p1, i0, area int, base []int)) {
	k := len(g.dims)
	last := k - 1
	par.Do(g.job, g.strides[0]*g.dims[0], func(from, to int) {
		idx := make([]int, k)
		loC := make([]int, last)
		hiC := make([]int, last)
		base := make([]int, 1<<k)
		rowSpans(g.dims, from, to, idx, func(p0, p1 int) {
			area := 1
			for d := range last {
				loC[d] = max(0, idx[d]+g.lo[d])
				hiC[d] = min(g.dims[d]-1, idx[d]+g.hi[d])
				if loC[d] > hiC[d] {
					return
				}
				area *= hiC[d] - loC[d] + 1
			}
			for m := range base {
				base[m] = 0
				for d := range last {
					c := hiC[d]
					if m&(1<<d) != 0 {
						c = loC[d] - 1
					}
					if c < 0 {
						base[m] = -1
						break
					}
					base[m] += c * g.strides[d]
				}
			}
			fn(p0, p1, idx[last], area, base)
		})
	})
}

// boxSums returns, for every anchor, the sum of vals (holes count as 0)
// over its clipped box. It builds the summed-area table, scratch from the
// job's free list that goes back to it, one dimension at a time,
// dimension 0 first, adding each row of the dimension into the next as
// whole slices; then every anchor adds and subtracts the table at its
// 2^k corners in mask order. The order of every floating-point addition is
// that of the cell-at-a-time formulation, so float results do not depend
// on the walk or on the thread count.
func boxSums[T int64 | float64](g satGeom, vals []T, holes *bat.Bitmap) []T {
	cells := len(vals)
	sat := par.Vec[T](g.job, cells)
	par.Do(g.job, cells, func(from, to int) {
		copy(sat[from:to], vals[from:to])
		if holes != nil {
			for p := from; p < to; p++ {
				if holes.Get(p) {
					sat[p] = 0
				}
			}
		}
	})
	for d, n := range g.dims {
		stride := g.strides[d]
		if stride == 1 {
			// The innermost dimension: a running sum along each row.
			for block := 0; block < cells; block += n {
				row := sat[block : block+n]
				for i := 1; i < n; i++ {
					row[i] += row[i-1]
				}
			}
			continue
		}
		for block := 0; block < cells; block += n * stride {
			for i := 1; i < n; i++ {
				row := sat[block+i*stride : block+(i+1)*stride]
				prev := sat[block+(i-1)*stride : block+i*stride]
				for j := range row {
					row[j] += prev[j]
				}
			}
		}
	}
	k := len(g.dims)
	lastBit := 1 << (k - 1)
	neg := make([]bool, 1<<k)
	for m := range neg {
		neg[m] = bits.OnesCount(uint(m))%2 == 1
	}
	out := par.ZeroVec[T](g.job, cells)
	g.rows(func(p0, p1, i0, _ int, base []int) {
		dst := out[p0:p1]
		for m, b := range base {
			if b < 0 {
				continue
			}
			corner := g.lastHi[i0 : i0+len(dst)]
			if m&lastBit != 0 {
				corner = g.lastLo[i0 : i0+len(dst)]
			}
			if neg[m] {
				for j, c := range corner {
					if c >= 0 {
						dst[j] -= sat[b+c]
					}
				}
			} else {
				for j, c := range corner {
					if c >= 0 {
						dst[j] += sat[b+c]
					}
				}
			}
		}
	})
	par.Recycle(g.job, sat)
	return out
}

// SATProfitable is the heuristic the optimizer uses to pick the SAT kernel:
// it pays off once the tile covers enough cells that 2^d corner lookups
// beat tile-size accumulations.
func SATProfitable(sh shape.Shape, tile []TileRange) bool {
	d := len(sh)
	if d == 0 || d > 8 {
		return false
	}
	size := TileSize(sh, tile)
	// Prefix construction costs ~d passes; corner queries cost 2^d each.
	return size > 2*(1<<d)
}
