package gdk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/shape"
	"repro/internal/types"
)

// fig1cAttr builds the paper's Fig. 1(c) matrix as a row-major cell column
// over shape (x[0:1:4], y[0:1:4]) — x is the first (outer) dimension.
func fig1cShape() shape.Shape {
	return shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 4},
		{Name: "y", Start: 0, Step: 1, Stop: 4},
	}
}

func fig1cAttr(t *testing.T) *bat.BAT {
	t.Helper()
	sh := fig1cShape()
	v := bat.New(types.KindInt, 16)
	coords := make([]int64, 2)
	for p := 0; p < 16; p++ {
		sh.Coords(p, coords)
		x, y := coords[0], coords[1]
		switch {
		case x > y:
			v.AppendNull() // deleted (holes)
		case x < y:
			v.AppendInt(x - y)
		default:
			v.AppendInt(x * y) // diagonal after INSERT: x*y
		}
	}
	return v
}

func TestTileAggFig1e(t *testing.T) {
	// Fig. 1(d,e): GROUP BY matrix[x:x+2][y:y+2] with AVG, anchors at all
	// cells; the paper then keeps anchors with x MOD 2 = 1 AND y MOD 2 = 1.
	sh := fig1cShape()
	v := fig1cAttr(t)
	tile := []TileRange{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}}
	got, err := TileAgg(nil, AggAvg, v, sh, tile)
	if err != nil {
		t.Fatal(err)
	}
	check := func(x, y int64, want types.Value) {
		t.Helper()
		p, ok := sh.Pos([]int64{x, y})
		if !ok {
			t.Fatalf("bad pos %d,%d", x, y)
		}
		g := got.Get(p)
		if want.IsNull() {
			if !g.IsNull() {
				t.Errorf("avg at (%d,%d) = %v, want null", x, y, g)
			}
			return
		}
		if g.IsNull() || g.Float64() != want.Float64() {
			t.Errorf("avg at (%d,%d) = %v, want %v", x, y, g, want)
		}
	}
	// The four anchors of Fig. 1(e):
	check(1, 1, types.Float(4.0/3.0))        // {1, -1, 4} -> 1.33
	check(1, 3, types.Float(-1.5))           // {-2, -1} -> -1.5
	check(3, 3, types.Float(9))              // {9} -> 9
	check(3, 1, types.Null(types.KindFloat)) // all holes -> null
}

func TestTileIdentity(t *testing.T) {
	// Property: a 1x1 tile [x:x+1][y:y+1] with SUM reproduces the array.
	sh := fig1cShape()
	v := fig1cAttr(t)
	got, err := TileAgg(nil, AggSum, v, sh, []TileRange{{Lo: 0, Hi: 1}, {Lo: 0, Hi: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < v.Len(); i++ {
		if got.IsNull(i) != v.IsNull(i) {
			t.Fatalf("null mismatch at %d", i)
		}
		if !v.IsNull(i) && got.Get(i).Int64() != v.Get(i).Int64() {
			t.Errorf("cell %d: got %v want %v", i, got.Get(i), v.Get(i))
		}
	}
}

func TestTilePartitionSumInvariant(t *testing.T) {
	// Property: non-overlapping tiles that partition the array have group
	// sums that add up to the total sum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := (rng.Intn(4) + 1) * 2 // even size
		sh := shape.Shape{
			{Name: "x", Start: 0, Step: 1, Stop: int64(n)},
			{Name: "y", Start: 0, Step: 1, Stop: int64(n)},
		}
		v := bat.New(types.KindInt, sh.Cells())
		total := int64(0)
		for p := 0; p < sh.Cells(); p++ {
			x := int64(rng.Intn(9) - 4)
			v.AppendInt(x)
			total += x
		}
		sums, err := TileAgg(nil, AggSum, v, sh, []TileRange{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}})
		if err != nil {
			return false
		}
		// Anchors at even coordinates partition the array into 2x2 tiles.
		part := int64(0)
		for x := int64(0); x < int64(n); x += 2 {
			for y := int64(0); y < int64(n); y += 2 {
				p, _ := sh.Pos([]int64{x, y})
				if !sums.IsNull(p) {
					part += sums.Get(p).Int64()
				}
			}
		}
		return part == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func TestCellFetch(t *testing.T) {
	sh := fig1cShape()
	v := fig1cAttr(t)
	// Fetch each cell's left neighbour A[x-1][y].
	xs := bat.New(types.KindInt, 16)
	ys := bat.New(types.KindInt, 16)
	coords := make([]int64, 2)
	for p := 0; p < 16; p++ {
		sh.Coords(p, coords)
		xs.AppendInt(coords[0] - 1)
		ys.AppendInt(coords[1])
	}
	got, err := CellFetch(nil, v, sh, []*bat.BAT{xs, ys})
	if err != nil {
		t.Fatal(err)
	}
	// Cells with x=0 address x=-1: out of bounds -> null.
	for p := 0; p < 16; p++ {
		sh.Coords(p, coords)
		x, y := coords[0], coords[1]
		if x == 0 {
			if !got.IsNull(p) {
				t.Errorf("(%d,%d): expected OOB null", x, y)
			}
			continue
		}
		src, _ := sh.Pos([]int64{x - 1, y})
		if v.IsNull(src) {
			if !got.IsNull(p) {
				t.Errorf("(%d,%d): expected hole null", x, y)
			}
		} else if got.IsNull(p) || got.Get(p).Int64() != v.Get(src).Int64() {
			t.Errorf("(%d,%d): got %v want %v", x, y, got.Get(p), v.Get(src))
		}
	}
}

func TestCellFetchOffStep(t *testing.T) {
	sh := shape.Shape{{Name: "x", Start: 0, Step: 2, Stop: 8}}
	v := bat.FromInts([]int64{10, 20, 30, 40})
	xs := bat.FromInts([]int64{0, 1, 2, 3})
	got, err := CellFetch(nil, v, sh, []*bat.BAT{xs})
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(0).Int64() != 10 || !got.IsNull(1) || got.Get(2).Int64() != 20 || !got.IsNull(3) {
		t.Errorf("off-step fetch wrong: %v %v %v %v", got.Get(0), got.IsNull(1), got.Get(2), got.IsNull(3))
	}
}

func TestReshapeFig1f(t *testing.T) {
	// Fig. 1(f): expanding both dimensions of the Fig. 1(c) matrix by one in
	// each direction surrounds it with default zeros.
	from := fig1cShape()
	to := shape.Shape{
		{Name: "x", Start: -1, Step: 1, Stop: 5},
		{Name: "y", Start: -1, Step: 1, Stop: 5},
	}
	v := fig1cAttr(t)
	got, err := Reshape(nil, v, from, to, types.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 36 {
		t.Fatalf("len = %d, want 36", got.Len())
	}
	coords := make([]int64, 2)
	for p := 0; p < 36; p++ {
		to.Coords(p, coords)
		x, y := coords[0], coords[1]
		if q, ok := from.Pos([]int64{x, y}); ok {
			if v.IsNull(q) != got.IsNull(p) {
				t.Errorf("(%d,%d): null mismatch", x, y)
			} else if !v.IsNull(q) && got.Get(p).Int64() != v.Get(q).Int64() {
				t.Errorf("(%d,%d): got %v want %v", x, y, got.Get(p), v.Get(q))
			}
		} else if got.IsNull(p) || got.Get(p).Int64() != 0 {
			t.Errorf("border (%d,%d): got %v, want default 0", x, y, got.Get(p))
		}
	}
}

func TestReshapeShrink(t *testing.T) {
	from := shape.Shape{{Name: "x", Start: 0, Step: 1, Stop: 4}}
	to := shape.Shape{{Name: "x", Start: 1, Step: 1, Stop: 3}}
	v := bat.FromInts([]int64{10, 11, 12, 13})
	got, err := Reshape(nil, v, from, to, types.Int(0))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Get(0).Int64() != 11 || got.Get(1).Int64() != 12 {
		t.Errorf("shrink wrong: %v", got.Ints())
	}
}

func TestDimBATsMatchSeries(t *testing.T) {
	sh := fig1cShape()
	dims, err := DimBATs(sh)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := bat.Series(0, 1, 4, 4, 1)
	y, _ := bat.Series(0, 1, 4, 1, 4)
	for i := 0; i < 16; i++ {
		if dims[0].Ints()[i] != x.Ints()[i] || dims[1].Ints()[i] != y.Ints()[i] {
			t.Fatalf("row %d: (%d,%d) vs (%d,%d)", i, dims[0].Ints()[i], dims[1].Ints()[i], x.Ints()[i], y.Ints()[i])
		}
	}
}

// TestCellPosMatchesShapePos: the columnar position kernel agrees with
// Shape.Pos row by row on random shapes (negative and non-unit steps, an
// empty dimension) and coordinates inside, outside and off the grid; the
// series of a shape are exactly its cells in order.
func TestCellPosMatchesShapePos(t *testing.T) {
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sh := make(shape.Shape, 1+rng.Intn(3))
		for k := range sh {
			step := int64(1 + rng.Intn(3))
			if rng.Intn(3) == 0 {
				step = -step
			}
			start := int64(rng.Intn(9) - 4)
			sh[k] = shape.Dim{Name: "d", Start: start, Step: step, Stop: start + step*int64(rng.Intn(5))}
		}
		n := rng.Intn(50)
		coords := make([][]int64, len(sh))
		for k := range coords {
			coords[k] = make([]int64, n)
			for i := range coords[k] {
				coords[k][i] = int64(rng.Intn(25) - 12)
			}
		}
		pos, outside := CellPos(sh, coords)
		wantOutside := 0
		row := make([]int64, len(sh))
		for i := 0; i < n; i++ {
			for k := range sh {
				row[k] = coords[k][i]
			}
			want, ok := sh.Pos(row)
			if !ok {
				want = -1
				wantOutside++
			}
			if pos[i] != want {
				t.Fatalf("seed %d: %v in %v at %d, Shape.Pos says %d", seed, row, sh, pos[i], want)
			}
		}
		if outside != wantOutside {
			t.Fatalf("seed %d: %d rows outside, Shape.Pos says %d", seed, outside, wantOutside)
		}

		dims, err := DimBATs(sh)
		if err != nil {
			continue // an empty dimension beside another has no series
		}
		series := make([][]int64, len(sh))
		for k, d := range dims {
			series[k] = d.DecodedInts()
		}
		if !CellsInOrder(sh, series) {
			t.Fatalf("seed %d: the series of %v are not its cells in order", seed, sh)
		}
		if cells := sh.Cells(); cells > 1 {
			series[0] = append([]int64(nil), series[0]...)
			series[0][0], series[0][cells-1] = series[0][cells-1], series[0][0]
			if series[0][0] != series[0][cells-1] && CellsInOrder(sh, series) {
				t.Fatalf("seed %d: swapped rows still read as in order", seed)
			}
		}
	}
}

func TestTileMinMax(t *testing.T) {
	sh := shape.Shape{{Name: "x", Start: 0, Step: 1, Stop: 4}}
	v := bat.FromInts([]int64{3, 1, 4, 1})
	mn, err := TileAgg(nil, AggMin, v, sh, []TileRange{{Lo: -1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	mx, err := TileAgg(nil, AggMax, v, sh, []TileRange{{Lo: -1, Hi: 2}})
	if err != nil {
		t.Fatal(err)
	}
	wantMin := []int64{1, 1, 1, 1}
	wantMax := []int64{3, 4, 4, 4}
	for i := 0; i < 4; i++ {
		if mn.Get(i).Int64() != wantMin[i] {
			t.Errorf("min[%d] = %v, want %d", i, mn.Get(i), wantMin[i])
		}
		if mx.Get(i).Int64() != wantMax[i] {
			t.Errorf("max[%d] = %v, want %d", i, mx.Get(i), wantMax[i])
		}
	}
}

func TestTileSize(t *testing.T) {
	sh := fig1cShape()
	if got := TileSize(sh, []TileRange{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}}); got != 4 {
		t.Errorf("2x2 tile size = %d, want 4", got)
	}
	if got := TileSize(sh, []TileRange{{Lo: -1, Hi: 2}, {Lo: -1, Hi: 2}}); got != 9 {
		t.Errorf("3x3 tile size = %d, want 9", got)
	}
}

func TestTileAgg3D(t *testing.T) {
	sh := shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 3},
		{Name: "y", Start: 0, Step: 1, Stop: 3},
		{Name: "z", Start: 0, Step: 1, Stop: 3},
	}
	v := bat.New(types.KindInt, 27)
	for p := 0; p < 27; p++ {
		v.AppendInt(1)
	}
	got, err := TileAgg(nil, AggSum, v, sh, []TileRange{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	// Anchor at origin sees the full cube; the far corner sees only itself.
	p0, _ := sh.Pos([]int64{0, 0, 0})
	p1, _ := sh.Pos([]int64{2, 2, 2})
	if got.Get(p0).Int64() != 27 {
		t.Errorf("origin sum = %v, want 27", got.Get(p0))
	}
	if got.Get(p1).Int64() != 1 {
		t.Errorf("corner sum = %v, want 1", got.Get(p1))
	}
	// 3-D SAT agrees.
	sat, err := TileAggSAT(nil, AggSum, v, sh, []TileRange{{Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}, {Lo: 0, Hi: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 27; i++ {
		if sat.Get(i).Int64() != got.Get(i).Int64() {
			t.Fatalf("SAT mismatch at %d: %v vs %v", i, sat.Get(i), got.Get(i))
		}
	}
}
