package gdk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// refFloatSums is the canonical float summation order spelled out: fold
// each sumBlockRows-row block left to right per group, then add the block
// partials in ascending block order, every accumulator starting at +0.
func refFloatSums(fs []float64, vals *bat.BAT, gs []int64, ngroups int) ([]float64, []int64) {
	sums, counts := make([]float64, ngroups), make([]int64, ngroups)
	for lo := 0; lo < len(gs); lo += sumBlockRows {
		part := make([]float64, ngroups)
		for i := lo; i < min(lo+sumBlockRows, len(gs)); i++ {
			if !vals.IsNull(i) {
				part[gs[i]] += fs[i]
				counts[gs[i]]++
			}
		}
		for g := range sums {
			sums[g] += part[g]
		}
	}
	return sums, counts
}

// TestFloatSumIndependentOfWidth: a float SUM or AVG is a function of the
// data alone. Grouped (few groups, sorted run groups, many groups) and
// global aggregates, with and without a candidate list, must come out
// bit-identical — and equal to the canonical block order — at every
// thread count and morsel threshold.
func TestFloatSumIndependentOfWidth(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	// Past four summation blocks, and enough distinct groups that the
	// many-groups case leaves the per-block partial path.
	n := 4*sumBlockRows + 1 + rng.Intn(sumBlockRows)
	vals := mkFloats(rng, n)
	fs := vals.DecodedFloats(nil)
	for i := range fs {
		fs[i] *= math.Pow(10, float64(rng.Intn(12)-6)) // wide magnitudes: order shows
	}

	keys := map[string]*bat.BAT{}
	few := make([]int64, n)
	for i := range few {
		few[i] = rng.Int63n(7)
	}
	keys["few"] = bat.FromInts(few)
	keys["runs"] = sortedKeyCol(rng, n, 3)
	many := make([]int64, n)
	for i := range many {
		many[i] = int64(i)
		if rng.Intn(10) == 0 {
			many[i] = rng.Int63n(int64(n))
		}
	}
	keys["many"] = bat.FromInts(many)

	half := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 0 {
			half = append(half, int64(i))
		}
	}
	oids := bat.FromOIDs(half)
	oids.Sorted, oids.Key = true, true

	type config struct{ threads, cutoff int }
	var configs []config
	for _, th := range []int{1, 2, 3, 8} {
		for _, cut := range []int{par.DefaultMorselThreshold, 4097} {
			configs = append(configs, config{th, cut})
		}
	}
	for cname, cand := range map[string]*bat.BAT{"none": nil, "half": oids} {
		m := n
		if cand != nil {
			m = cand.Len()
		}
		inputs := map[string]*GroupResult{}
		gids, err := bat.Filler(nil, m, types.Oid(0), types.KindOID)
		if err != nil {
			t.Fatal(err)
		}
		inputs["global"] = &GroupResult{GIDs: gids, N: 1}
		for kname, key := range keys {
			res, err := Group(nil, []*bat.BAT{key}, cand)
			if err != nil {
				t.Fatal(err)
			}
			inputs[kname] = res
		}
		cvals := vals
		if cand != nil {
			if cvals, err = Project(nil, cand, vals); err != nil {
				t.Fatal(err)
			}
		}
		for gname, g := range inputs {
			refSum, refCount := refFloatSums(cvals.DecodedFloats(nil), cvals, gidSlice(nil, g.GIDs), g.N)
			for _, agg := range []AggKind{AggSum, AggAvg} {
				for _, c := range configs {
					out, err := SubAggr(par.NewJob(c.threads, c.cutoff), agg, vals, g.GIDs, g.N, cand)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d: %s(%s) cand=%s threads=%d cutoff=%d",
						seed, agg, gname, cname, c.threads, c.cutoff)
					checkCanonical(t, label, out, agg, refSum, refCount)
				}
			}
		}
	}
}

func checkCanonical(t *testing.T, label string, out *bat.BAT, agg AggKind, sums []float64, counts []int64) {
	t.Helper()
	if out.Len() != len(sums) {
		t.Fatalf("%s: %d groups, want %d", label, out.Len(), len(sums))
	}
	got := out.DecodedFloats(nil)
	for g, s := range sums {
		if out.IsNull(g) != (counts[g] == 0) {
			t.Fatalf("%s: group %d NULL is %v with %d rows", label, g, out.IsNull(g), counts[g])
		}
		if counts[g] == 0 {
			continue
		}
		if agg == AggAvg {
			s /= float64(counts[g])
		}
		if math.Float64bits(got[g]) != math.Float64bits(s) {
			t.Fatalf("%s: group %d is %v, want %v", label, g, got[g], s)
		}
	}
}

// TestFloatMinMaxNaNIndependentOfWidth: float MIN and MAX follow ORDER
// BY's total order, in which NaN sorts above every number. MIN skips NaN
// unless a group holds nothing else, MAX is NaN when a group holds one,
// whatever the thread count or where the chunk boundaries fall (a chunk
// whose first value is NaN must not keep NaN as its MIN).
func TestFloatMinMaxNaNIndependentOfWidth(t *testing.T) {
	const n = 1 << 14
	nan := math.NaN()
	fs := make([]float64, n)
	gs := make([]int64, n)
	for i := range fs {
		fs[i], gs[i] = float64(i%97)+10, 1
	}
	// Group 0: 5, NaN, 1 at rows 0, 8192 and 8194 (8192 starts a chunk).
	fs[0], fs[8192], fs[8194] = 5, nan, 1
	gs[0], gs[8192], gs[8194] = 0, 0, 0
	// Group 1 also holds a NaN; group 2 holds nothing but NaN.
	fs[100] = nan
	for _, i := range []int{3, 4096, 12288} {
		fs[i], gs[i] = nan, 2
	}
	vals := bat.FromFloats(fs)
	unsorted := bat.FromOIDs(gs)
	sortedIDs := append([]int64(nil), gs...)
	slices.Sort(sortedIDs)
	sorted := bat.FromOIDs(sortedIDs)
	sorted.Sorted = true
	sortedVals := make([]float64, 0, n) // vals reordered to match sorted
	for g := int64(0); g < 3; g++ {
		for i, gi := range gs {
			if gi == g {
				sortedVals = append(sortedVals, fs[i])
			}
		}
	}
	want := map[AggKind][]float64{AggMin: {1, 10, nan}, AggMax: {nan, nan, nan}}

	for _, threads := range []int{1, 2, 8} {
		job := par.NewJob(threads, 64)
		for name, in := range map[string][2]*bat.BAT{"unsorted": {vals, unsorted}, "sorted": {bat.FromFloats(sortedVals), sorted}} {
			for agg, w := range want {
				out, err := SubAggr(job, agg, in[0], in[1], 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				for g, x := range out.DecodedFloats(nil) {
					if x != w[g] && !(math.IsNaN(x) && math.IsNaN(w[g])) {
						t.Errorf("threads %d, %s gids: %s of group %d = %v, want %v", threads, name, agg, g, x, w[g])
					}
				}
			}
		}
	}
}

// TestTileMinMaxNaN: tiles follow the same rule as grouped MIN and MAX.
func TestTileMinMaxNaN(t *testing.T) {
	nan := math.NaN()
	sh := shape.Shape{{Name: "x", Start: 0, Step: 1, Stop: 4}}
	v := bat.FromFloats([]float64{nan, 5, nan, nan})
	want := map[AggKind][]float64{AggMin: {5, 5, 5, nan}, AggMax: {nan, nan, nan, nan}}
	for agg, w := range want {
		out, err := TileAgg(nil, agg, v, sh, []TileRange{{Lo: -1, Hi: 2}})
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range out.DecodedFloats(nil) {
			if x != w[i] && !(math.IsNaN(x) && math.IsNaN(w[i])) {
				t.Errorf("%s of tile %d = %v, want %v", agg, i, x, w[i])
			}
		}
	}
}
