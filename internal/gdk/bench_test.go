package gdk

import (
	"testing"

	"repro/internal/bat"
	"repro/internal/types"
)

// Kernel micro-benchmarks for the two statistics paths no workload of
// `go run ./benchmark` isolates: the zonemap skip-scan and the sorted
// merge join, each beside the baseline it replaces (statistics off). They
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
