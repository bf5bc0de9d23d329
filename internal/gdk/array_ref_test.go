package gdk

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// The array kernels held to a literal reference. Every cell of a seeded
// random array is listed with its coordinates; a tile is the set of cells
// whose coordinates fall in the anchor's tile ranges, and a relative fetch
// A[x+a][y+b] is a lookup of the shifted coordinates. Nothing here uses
// strides, Shape.Pos, CellPos or the tile offset expansion. A failure
// names its seed.

// refArray is an array listed cell by cell.
type refArray struct {
	sh     shape.Shape
	coords [][3]int64       // coordinates of each cell, in storage order
	at     map[[3]int64]int // coordinates -> cell
	vals   *bat.BAT
	float  bool
}

// genRefArray draws 1–3 dimensions with negative starts and steps 1–3,
// int or float values, and either no holes or about one in five. big
// arrays hold more than 4096 cells, enough for the kernels' parallel paths.
func genRefArray(rng *rand.Rand, big bool) refArray {
	k := 1 + rng.Intn(3)
	a := refArray{at: map[[3]int64]int{}, float: rng.Intn(2) == 0}
	for d := 0; d < k; d++ {
		n := 1 + rng.Intn(7)
		if big {
			n = int(math.Ceil(math.Pow(4200, 1/float64(k)))) + rng.Intn(3)
		}
		start, step := int64(rng.Intn(11)-5), int64(1+rng.Intn(3))
		a.sh = append(a.sh, shape.Dim{Name: string(rune('x' + d)), Start: start, Step: step, Stop: start + int64(n)*step})
	}
	// Storage order is row-major: the last dimension varies fastest.
	var walk func(d int, c [3]int64)
	walk = func(d int, c [3]int64) {
		if d == k {
			a.at[c] = len(a.coords)
			a.coords = append(a.coords, c)
			return
		}
		for v := a.sh[d].Start; v < a.sh[d].Stop; v += a.sh[d].Step {
			c[d] = v
			walk(d+1, c)
		}
	}
	walk(0, [3]int64{})
	holeRate := 0
	if rng.Intn(2) == 0 {
		holeRate = 5
	}
	if a.float {
		a.vals = bat.New(types.KindFloat, len(a.coords))
	} else {
		a.vals = bat.New(types.KindInt, len(a.coords))
	}
	for range a.coords {
		switch {
		case holeRate > 0 && rng.Intn(holeRate) == 0:
			a.vals.AppendNull()
		case a.float:
			a.vals.AppendFloat(rng.NormFloat64() * 10)
		default:
			a.vals.AppendInt(int64(rng.Intn(101) - 50))
		}
	}
	return a
}

// genTile draws a tile range per dimension: possibly empty, possibly off
// the dimension's grid, and sometimes with its own sampling step.
func genTile(rng *rand.Rand, k int) []TileRange {
	tile := make([]TileRange, k)
	for d := range tile {
		lo := int64(rng.Intn(7) - 3)
		tile[d] = TileRange{Lo: lo, Hi: lo + int64(rng.Intn(5))}
		if rng.Intn(3) == 0 {
			tile[d].Step = int64(1 + rng.Intn(3))
		}
	}
	return tile
}

// refCell is one expected result cell.
type refCell struct {
	null bool
	i    int64
	f    float64
}

// refTile aggregates the tile of every anchor by visiting each coordinate
// the tile ranges name and keeping the cells that exist and are not holes.
func (a refArray) refTile(agg AggKind, tile []TileRange) []refCell {
	out := make([]refCell, len(a.coords))
	k := len(a.sh)
	for p, anchor := range a.coords {
		var cnt, isum int64
		var fsum float64
		var best refCell
		var visit func(d int, c [3]int64)
		visit = func(d int, c [3]int64) {
			if d == k {
				q, ok := a.at[c]
				if !ok || a.vals.IsNull(q) {
					return
				}
				v := a.vals.Get(q)
				cnt++
				if a.float {
					fsum += v.Float64()
				} else {
					isum += v.Int64()
				}
				better := cnt == 1
				if !better && a.float {
					better = (agg == AggMin && v.Float64() < best.f) || (agg == AggMax && v.Float64() > best.f)
				} else if !better {
					better = (agg == AggMin && v.Int64() < best.i) || (agg == AggMax && v.Int64() > best.i)
				}
				if better {
					best = refCell{i: v.Int64(), f: v.Float64()}
				}
				return
			}
			step := tile[d].Step
			if step == 0 {
				step = 1
			}
			for o := tile[d].Lo; o < tile[d].Hi; o += step {
				c[d] = anchor[d] + o
				visit(d+1, c)
			}
		}
		visit(0, [3]int64{})
		switch {
		case agg == AggCount || agg == AggCountAll:
			out[p] = refCell{i: cnt}
		case cnt == 0:
			out[p] = refCell{null: true}
		case agg == AggSum:
			out[p] = refCell{i: isum, f: fsum}
		case agg == AggAvg && a.float:
			out[p] = refCell{f: fsum / float64(cnt)}
		case agg == AggAvg:
			out[p] = refCell{f: float64(isum) / float64(cnt)}
		default:
			out[p] = best
		}
	}
	return out
}

// refFetch resolves, for every row, the cell at the row's base cell's
// coordinates plus offs; missing cells and holes are NULL.
func (a refArray) refFetch(rows []int, offs []int) []refCell {
	out := make([]refCell, len(rows))
	for i, p := range rows {
		c := a.coords[p]
		for d, o := range offs {
			c[d] += int64(o)
		}
		out[i] = a.lookup(c)
	}
	return out
}

func (a refArray) lookup(c [3]int64) refCell {
	q, ok := a.at[c]
	if !ok || a.vals.IsNull(q) {
		return refCell{null: true}
	}
	v := a.vals.Get(q)
	return refCell{i: v.Int64(), f: v.Float64()}
}

// checkCells compares a kernel result with the reference: ints exactly,
// floats within 1e-9 relative.
func checkCells(t *testing.T, seed int64, what string, got *bat.BAT, want []refCell) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("seed %d: %s: %d rows, want %d", seed, what, got.Len(), len(want))
	}
	for i, w := range want {
		g := got.Get(i)
		switch {
		case g.IsNull() != w.null:
			t.Fatalf("seed %d: %s: row %d null=%v, want null=%v", seed, what, i, g.IsNull(), w.null)
		case w.null:
		case g.Kind() == types.KindFloat:
			if d := math.Abs(g.Float64() - w.f); d > 1e-9*math.Max(1, math.Abs(w.f)) {
				t.Fatalf("seed %d: %s: row %d = %v, want %v", seed, what, i, g.Float64(), w.f)
			}
		case g.Int64() != w.i:
			t.Fatalf("seed %d: %s: row %d = %d, want %d", seed, what, i, g.Int64(), w.i)
		}
	}
}

// sameBits requires two kernel results to be identical bit for bit.
func sameBits(t *testing.T, seed int64, what string, a, b *bat.BAT) {
	t.Helper()
	for i := 0; i < a.Len(); i++ {
		x, y := a.Get(i), b.Get(i)
		if x.IsNull() != y.IsNull() || (x.Kind() == types.KindFloat && math.Float64bits(x.Float64()) != math.Float64bits(y.Float64())) || x.Int64() != y.Int64() {
			t.Fatalf("seed %d: %s: row %d is %v serially, %v in parallel", seed, what, i, x, y)
		}
	}
}

// atThreads runs f on a serial job and then on an 8-wide one whose cutoff
// is low enough that every array above 4096 cells takes the parallel path.
func atThreads(f func(parallel bool, job *par.Job)) {
	f(false, par.NewJob(1, 0))
	f(true, par.NewJob(8, 64))
}

func TestArrayRefTiles(t *testing.T) {
	satChecked := 0
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := genRefArray(rng, seed%40 == 0)
		tile := genTile(rng, len(a.sh))
		for _, agg := range []AggKind{AggSum, AggAvg, AggCount, AggCountAll, AggMin, AggMax} {
			want := a.refTile(agg, tile)
			var serial [2]*bat.BAT
			atThreads(func(parallel bool, job *par.Job) {
				got, err := TileAgg(job, agg, a.vals, a.sh, tile)
				if err != nil {
					t.Fatalf("seed %d: TileAgg %s: %v", seed, agg, err)
				}
				checkCells(t, seed, "TileAgg "+string(agg), got, want)
				sat, err := TileAggSAT(job, agg, a.vals, a.sh, tile)
				switch {
				case err != nil && (agg == AggMin || agg == AggMax || strings.Contains(err.Error(), "not contiguous")):
				case err != nil:
					t.Fatalf("seed %d: TileAggSAT %s: %v", seed, agg, err)
				default:
					checkCells(t, seed, "TileAggSAT "+string(agg), sat, want)
					satChecked++
				}
				if !parallel {
					serial = [2]*bat.BAT{got, sat}
					return
				}
				sameBits(t, seed, "TileAgg "+string(agg), serial[0], got)
				if sat != nil {
					sameBits(t, seed, "TileAggSAT "+string(agg), serial[1], sat)
				}
			})
		}
	}
	if satChecked < 1000 {
		t.Fatalf("only %d SAT results checked; the generator no longer draws contiguous tiles", satChecked)
	}
}

// refCands draws a candidate list over n cells: none, a dense run, or a
// sparse sorted list; rows are the cells it names.
func refCands(rng *rand.Rand, n int) (cand *bat.BAT, rows []int) {
	switch rng.Intn(3) {
	case 0:
		for p := 0; p < n; p++ {
			rows = append(rows, p)
		}
		return nil, rows
	case 1:
		lo := rng.Intn(n)
		hi := lo + rng.Intn(n-lo+1)
		for p := lo; p < hi; p++ {
			rows = append(rows, p)
		}
		return bat.NewVoid(types.OID(lo), hi-lo), rows
	}
	var oids []int64
	for p := 0; p < n; p++ {
		if rng.Intn(3) == 0 {
			oids = append(oids, int64(p))
			rows = append(rows, p)
		}
	}
	return bat.FromOIDs(oids), rows
}

func TestArrayRefShift(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := genRefArray(rng, seed%40 == 0)
		offs := make([]int, len(a.sh))
		for d := range offs {
			offs[d] = rng.Intn(9) - 4
		}
		cand, rows := refCands(rng, len(a.coords))
		want := a.refFetch(rows, offs)
		var serial *bat.BAT
		atThreads(func(parallel bool, job *par.Job) {
			got, err := Shift(job, a.vals, a.sh, offs, cand)
			if err != nil {
				t.Fatalf("seed %d: Shift: %v", seed, err)
			}
			checkCells(t, seed, "Shift", got, want)
			if parallel {
				sameBits(t, seed, "Shift", serial, got)
			}
			serial = got
		})
	}
}

func TestArrayRefCellFetch(t *testing.T) {
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := genRefArray(rng, seed%40 == 0)
		offs := make([]int, len(a.sh))
		for d := range offs {
			offs[d] = rng.Intn(9) - 4
		}
		_, rows := refCands(rng, len(a.coords))
		// Coordinate columns: the shifted coordinates of each row, then
		// rows of arbitrary coordinates around the array, some NULL.
		want := a.refFetch(rows, offs)
		cols := make([]*bat.BAT, len(a.sh))
		for d := range cols {
			cols[d] = bat.New(types.KindInt, len(rows))
			for _, p := range rows {
				cols[d].AppendInt(a.coords[p][d] + int64(offs[d]))
			}
		}
		for extra := rng.Intn(20); extra > 0; extra-- {
			var c [3]int64
			null := rng.Intn(5) == 0
			for d, dim := range a.sh {
				c[d] = dim.Start + int64(rng.Intn(int(dim.Stop-dim.Start)+8)) - 4
				if null && d == 0 {
					cols[d].AppendNull()
				} else {
					cols[d].AppendInt(c[d])
				}
			}
			if null {
				want = append(want, refCell{null: true})
			} else {
				want = append(want, a.lookup(c))
			}
		}
		atThreads(func(_ bool, job *par.Job) {
			got, err := CellFetch(job, a.vals, a.sh, cols)
			if err != nil {
				t.Fatalf("seed %d: CellFetch: %v", seed, err)
			}
			checkCells(t, seed, "CellFetch", got, want)
		})
	}
}

// refCellsOf lists the coordinates of every cell of sh in storage order
// (row-major, the last dimension fastest), walking each range from its
// start by its step, in either direction.
func refCellsOf(sh shape.Shape) [][3]int64 {
	var out [][3]int64
	var walk func(d int, c [3]int64)
	walk = func(d int, c [3]int64) {
		if d == len(sh) {
			out = append(out, c)
			return
		}
		r := sh[d]
		for v := r.Start; (r.Step > 0 && v < r.Stop) || (r.Step < 0 && v > r.Stop); v += r.Step {
			c[d] = v
			walk(d+1, c)
		}
	}
	walk(0, [3]int64{})
	return out
}

// refValue draws a value of kind k.
func refValue(rng *rand.Rand, k types.Kind) types.Value {
	switch k {
	case types.KindInt:
		return types.Int(int64(rng.Intn(101) - 50))
	case types.KindOID:
		return types.Oid(types.OID(rng.Intn(100)))
	case types.KindFloat:
		return types.Float(rng.NormFloat64() * 10)
	case types.KindBool:
		return types.Bool(rng.Intn(2) == 0)
	}
	return types.Str(string(rune('a' + rng.Intn(26))))
}

// TestArrayRefReshape holds Reshape to the literal per-cell walk: a cell
// of the new shape keeps the old value at the same coordinates, holes
// included, and any other cell gets the default. The old shape draws 1–3
// dimensions with steps of either sign, some empty; the new one grows,
// shrinks or shifts each range, mostly on the same step grid, sometimes
// reversed or on another step. Every attribute kind is drawn, with and
// without holes, and a value or NULL as the default.
func TestArrayRefReshape(t *testing.T) {
	kinds := []types.Kind{types.KindInt, types.KindOID, types.KindFloat, types.KindBool, types.KindStr}
	for seed := int64(0); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var from, to shape.Shape
		for d := 1 + rng.Intn(3); d > 0; d-- {
			step := int64(1 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				step = -step
			}
			start := int64(rng.Intn(11) - 5)
			from = append(from, shape.Dim{Name: "d", Start: start, Step: step, Stop: start + int64(rng.Intn(7))*step})
			switch rng.Intn(6) {
			case 0:
				step = -step
			case 1:
				step = int64(1 + rng.Intn(3))
			}
			start += int64(rng.Intn(7)-3) * step
			to = append(to, shape.Dim{Name: "d", Start: start, Step: step, Stop: start + int64(rng.Intn(9))*step})
		}
		kind := kinds[rng.Intn(len(kinds))]
		old := refCellsOf(from)
		at := map[[3]int64]int{}
		attr := bat.New(kind, len(old))
		holes := rng.Intn(2) == 0
		for q, c := range old {
			at[c] = q
			if holes && rng.Intn(4) == 0 {
				attr.AppendNull()
			} else if err := attr.Append(refValue(rng, kind)); err != nil {
				t.Fatal(err)
			}
		}
		def := types.Null(kind)
		if rng.Intn(3) > 0 {
			def = refValue(rng, kind)
		}
		got, err := Reshape(nil, attr, from, to, def)
		if err != nil {
			t.Fatalf("seed %d: Reshape %v -> %v: %v", seed, from, to, err)
		}
		cells := refCellsOf(to)
		if got.Len() != len(cells) {
			t.Fatalf("seed %d: %d cells, want %d", seed, got.Len(), len(cells))
		}
		for p, c := range cells {
			want := def
			if q, ok := at[c]; ok {
				want = attr.Get(q)
			}
			if g := got.Get(p); g != want {
				t.Fatalf("seed %d: %v -> %v: cell %v = %v, want %v", seed, from, to, c, g, want)
			}
		}
	}
}
