package gdk

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bat"
	"repro/internal/par"
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
// thread count, morsel threshold and statistics setting.
func TestFloatSumIndependentOfWidth(t *testing.T) {
	seed := time.Now().UnixNano()
	rng := rand.New(rand.NewSource(seed))
	// Past four summation blocks, and enough distinct groups that the
	// many-groups case leaves the per-block partial path.
	n := 4*sumBlockRows + 1 + rng.Intn(sumBlockRows)
	vals := mkFloats(rng, n)
	fs := vals.DecodedFloats()
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

	type config struct {
		threads, cutoff int
		stats           bool
	}
	var configs []config
	for _, th := range []int{1, 2, 3, 8} {
		for _, cut := range []int{par.DefaultMorselThreshold, 4097} {
			for _, st := range []bool{true, false} {
				configs = append(configs, config{th, cut, st})
			}
		}
	}
	defer par.SetThreads(par.SetThreads(0))
	defer par.SetMorselThreshold(par.SetMorselThreshold(0))
	defer SetStatsEnabled(SetStatsEnabled(true))

	for cname, cand := range map[string]*bat.BAT{"none": nil, "half": oids} {
		m := n
		if cand != nil {
			m = cand.Len()
		}
		inputs := map[string]*GroupResult{}
		gids, err := bat.Filler(m, types.Oid(0), types.KindOID)
		if err != nil {
			t.Fatal(err)
		}
		inputs["global"] = &GroupResult{GIDs: gids, N: 1}
		for kname, key := range keys {
			res, err := Group([]*bat.BAT{key}, cand)
			if err != nil {
				t.Fatal(err)
			}
			inputs[kname] = res
		}
		cvals := vals
		if cand != nil {
			if cvals, err = Project(cand, vals); err != nil {
				t.Fatal(err)
			}
		}
		for gname, g := range inputs {
			refSum, refCount := refFloatSums(cvals.DecodedFloats(), cvals, gidSlice(g.GIDs), g.N)
			for _, agg := range []AggKind{AggSum, AggAvg} {
				for _, c := range configs {
					par.SetThreads(c.threads)
					par.SetMorselThreshold(c.cutoff)
					SetStatsEnabled(c.stats)
					out, err := SubAggr(agg, vals, g.GIDs, g.N, cand)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("seed %d: %s(%s) cand=%s threads=%d cutoff=%d stats=%v",
						seed, agg, gname, cname, c.threads, c.cutoff, c.stats)
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
	got := out.DecodedFloats()
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
