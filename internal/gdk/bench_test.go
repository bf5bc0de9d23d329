package gdk

import (
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/shape"
	"repro/internal/types"
)

// Kernel micro-benchmarks for the two statistics paths no workload of
// `go run ./benchmark` isolates — the zonemap skip-scan and the sorted
// merge join, each beside the baseline it replaces (statistics off) — for
// the typed group and sort kernels at table-analytics' size, and for the
// array kernels of image-read's smooth, reduce and edge queries. They
// report numbers only; nothing here gates.

// benchRows is the input size of the kernel benchmarks: 16 zonemap slabs.
const benchRows = 1 << 20

// zonemapCols builds the skip-scan input: values clustered so each 64K-row
// slab owns a disjoint band (the zonemap prunes every slab but one),
// unsorted within the slab (binary search cannot shortcut), with the
// matching rows of the probed band contiguous — the shape a time- or
// append-ordered fact column has in practice. probe selects one plateau
// of the middle slab: ~1024 of 1M rows (0.1%).
func zonemapCols(n int) (col *bat.BAT, probe int64) {
	vals := make([]int64, n)
	for i := range vals {
		slab := int64(i / bat.ZonemapSlab)
		within := int64(i % bat.ZonemapSlab)
		// 64 contiguous plateaus per slab, their values shuffled within the
		// band (odd-multiplier permutation): equal rows stay adjacent but
		// the column is not sorted, so only the zonemap can prune.
		plateau := within / 1024
		vals[i] = slab*100_000 + (plateau*37)%64
	}
	slab := int64(n / bat.ZonemapSlab / 2)
	return bat.FromInts(vals), slab*100_000 + (31*37)%64
}

// withStats runs fn with the statistics fast paths switched to on.
func withStats(on bool, fn func() error) error {
	prev := SetStatsEnabled(on)
	defer SetStatsEnabled(prev)
	return fn()
}

// benchOnOff runs fn as two sub-benchmarks, statistics on and off.
func benchOnOff(b *testing.B, fast, base string, fn func() error) {
	for _, c := range []struct {
		name string
		on   bool
	}{{fast, true}, {base, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := withStats(c.on, fn); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkZonemapSelect: ThetaSelect at 0.1% selectivity over 1M
// clustered rows, zonemap skip-scan vs the candidate scan.
func BenchmarkZonemapSelect(b *testing.B) {
	col, probe := zonemapCols(benchRows)
	sel := func() error {
		_, err := ThetaSelect(col, nil, types.Int(probe), "=")
		return err
	}
	// Build the lazy zonemap outside the measurement.
	if err := sel(); err != nil {
		b.Fatal(err)
	}
	benchOnOff(b, "zonemap/sel=0.1%", "scan/sel=0.1%", sel)
}

// BenchmarkMergeJoin: sorted 1Mx1M unique keys with overlapping ranges
// (~50% match rate), merge join vs hash join.
func BenchmarkMergeJoin(b *testing.B) {
	lv := make([]int64, benchRows)
	rv := make([]int64, benchRows)
	for i := range lv {
		lv[i] = int64(2 * i)               // evens
		rv[i] = int64(benchRows + 2*i + 2) // evens shifted: half overlap
	}
	l, r := bat.FromInts(lv), bat.FromInts(rv)
	l.DeriveProps()
	r.DeriveProps()
	benchOnOff(b, "merge/1Mx1M", "hash/1Mx1M", func() error {
		_, _, err := HashJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
		return err
	})
}

// tableRows is the obs table of the table-analytics workload: 2^19 rows.
const tableRows = 1 << 19

// BenchmarkGroupIntKey: GROUP BY over 2^19 rows of a random int key with
// 1000 distinct values (table-analytics' GROUP BY station).
func BenchmarkGroupIntKey(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, tableRows)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	key := bat.FromInts(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Group([]*bat.BAT{key}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// normalFloats is a 2^19-row column of normally distributed temperatures.
func normalFloats() *bat.BAT {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, tableRows)
	for i := range vals {
		vals[i] = 15 + 10*rng.NormFloat64()
	}
	return bat.FromFloats(vals)
}

// BenchmarkOrderIdxFloat: full stable ORDER BY temp over 2^19 floats.
func BenchmarkOrderIdxFloat(b *testing.B) {
	key := normalFloats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OrderIdx([]*bat.BAT{key}, []SortSpec{{}}, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOrderTopN: ORDER BY temp DESC LIMIT 10 over 2^19 floats.
func BenchmarkOrderTopN(b *testing.B) {
	key := normalFloats()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OrderIdx([]*bat.BAT{key}, []SortSpec{{Desc: true}}, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// image256 is the image-read workload's array: 256x256 intensities.
func image256() (*bat.BAT, shape.Shape) {
	sh := shape.Shape{{Name: "x", Start: 0, Step: 1, Stop: 256}, {Name: "y", Start: 0, Step: 1, Stop: 256}}
	rng := rand.New(rand.NewSource(1))
	vals := make([]int64, sh.Cells())
	for i := range vals {
		vals[i] = rng.Int63n(256)
	}
	return bat.FromInts(vals), sh
}

// BenchmarkTileAggSAT256: the smooth query's 3x3 AVG over 256x256.
func BenchmarkTileAggSAT256(b *testing.B) {
	v, sh := image256()
	tile := []TileRange{{Lo: -1, Hi: 2}, {Lo: -1, Hi: 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TileAggSAT(AggAvg, v, sh, tile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTileAgg2x2: the reduce query's 2x2 AVG over 256x256.
func BenchmarkTileAgg2x2(b *testing.B) {
	v, sh := image256()
	tile := []TileRange{{Lo: 0, Hi: 2}, {Lo: 0, Hi: 2}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TileAgg(AggAvg, v, sh, tile); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShift256: the edge query's img[x-1][y].v over 256x256.
func BenchmarkShift256(b *testing.B) {
	v, sh := image256()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Shift(v, sh, []int{-1, 0}, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCastFloatInt64K: CAST(AVG(v) AS INT) over 64K tile averages.
func BenchmarkCastFloatInt64K(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 1<<16)
	for i := range vals {
		vals[i] = rng.Float64() * 255
	}
	x := bat.FromFloats(vals)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := CastBAT(B(x), types.KindInt, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestZonemapSelectAllocs pins the skip-scan's allocation bound: the
// answer is a virtual run, so one select makes a handful of small
// allocations regardless of input size, never an n-proportional buffer.
func TestZonemapSelectAllocs(t *testing.T) {
	col, probe := zonemapCols(benchRows)
	sel := func() {
		if _, err := ThetaSelect(col, nil, types.Int(probe), "="); err != nil {
			t.Fatal(err)
		}
	}
	prev := SetStatsEnabled(true)
	defer SetStatsEnabled(prev)
	sel() // build the lazy zonemap
	if allocs := testing.AllocsPerRun(10, sel); allocs > 16 {
		t.Fatalf("zonemap select allocates %.0f objects/op, want <= 16", allocs)
	}
}
