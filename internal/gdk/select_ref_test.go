package gdk

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// The selection kernels and the run-based aggregation checked against
// literal loops over boxed values (BAT.Get, Value.Compare), which share no
// code with stats.go. Over the refCol shapes this reaches every
// statistics path: column-bound pruning, the sorted binary search (asc,
// desc, and asc-lazy, whose order only the zonemap build discovers), the
// zonemap skip-scan (clustered, past one 64K-row slab), the merge join over sorted keys, and SubAggr over the
// sorted group ids run grouping produces. TestTypedJoinMatchesReference
// and TestTypedGroupMatchesReference cover merge join and run grouping
// again over their random key shapes, which include the ordered ones.

// lowZonemapGate shrinks the zonemap size gate for the duration of a test
// so small columns exercise the skip-scan.
func lowZonemapGate(t *testing.T) {
	t.Helper()
	prev := zonemapSelectMinRows
	zonemapSelectMinRows = 2048
	t.Cleanup(func() { zonemapSelectMinRows = prev })
}

// addNulls punches ~1/16 NULLs (after any DeriveProps, so claims drop
// exactly as the engine would experience it).
func addNulls(rng *rand.Rand, b *bat.BAT) *bat.BAT {
	n := b.Len()
	for i := 0; i < n; i += 16 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// probeValues picks predicate constants spanning the column's value
// distribution: outside both ends, the extremes, and quantiles from 0.001
// to 0.99 selectivity.
func probeValues(b *bat.BAT) []int64 {
	vals := append([]int64(nil), b.Ints()...)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	n := len(vals)
	qs := []float64{0.001, 0.01, 0.1, 0.5, 0.9, 0.99}
	out := []int64{vals[0] - 1, vals[0], vals[n-1], vals[n-1] + 1}
	for _, q := range qs {
		out = append(out, vals[int(q*float64(n-1))])
	}
	return out
}

// candVariants returns the candidate-list shapes selects must honour.
func candVariants(n int) map[string]*bat.BAT {
	everyThird := make([]int64, 0, n/3)
	for i := 0; i < n; i += 3 {
		everyThird = append(everyThird, int64(i))
	}
	oidCand := bat.FromOIDs(everyThird)
	oidCand.Sorted, oidCand.Key = true, true
	return map[string]*bat.BAT{
		"dense":  nil,
		"window": bat.NewVoid(types.OID(n/10), n-n/5),
		"oids":   oidCand,
	}
}

// sortedKeyCol builds a sorted int key column with duplicate runs and
// derived properties.
func sortedKeyCol(rng *rand.Rand, n int, gap int64) *bat.BAT {
	vals := make([]int64, n)
	v := int64(0)
	for i := range vals {
		if rng.Intn(3) == 0 {
			v += 1 + rng.Int63n(gap)
		}
		vals[i] = v
	}
	b := bat.FromInts(vals)
	b.DeriveProps()
	return b
}

// candRows lists the base rows a candidate list names (every row of an
// n-row column when cand is nil).
func candRows(cand *bat.BAT, n int) []int {
	if cand == nil {
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		return rows
	}
	rows := make([]int, cand.Len())
	for i := range rows {
		rows[i] = int(cand.OidAt(i))
	}
	return rows
}

// boxed reads every row of b through Get.
func boxed(b *bat.BAT) []types.Value {
	vals := make([]types.Value, b.Len())
	for i := range vals {
		vals[i] = b.Get(i)
	}
	return vals
}

// refSelect lists the rows whose value is not NULL and satisfies keep.
func refSelect(vals []types.Value, rows []int, keep func(types.Value) bool) []int64 {
	var out []int64
	for _, r := range rows {
		if !vals[r].IsNull() && keep(vals[r]) {
			out = append(out, int64(r))
		}
	}
	return out
}

// refTheta reports whether a three-way comparison result satisfies op.
func refTheta(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	}
	return c >= 0
}

// selectCol is one select input with the constants to probe it with.
type selectCol struct {
	name   string
	col    *bat.BAT
	probes []types.Value
}

// selectCols draws the select inputs: every ordered shape, the plain,
// NULL-bearing, constant and encoded int shapes and floats with NaN,
// infinities and signed zeros at 5000 rows, then the
// shapes the zonemap acts on past one slab (lazily discovered order,
// slab-disjoint int and float bands, the float bands with NaN rows).
// Float columns are probed with NaN too. -short skips the large tier.
func selectCols(t *testing.T) []selectCol {
	const seed = 321
	rng := rand.New(rand.NewSource(seed))
	var cols []selectCol
	add := func(name string, col *bat.BAT) {
		var probes []types.Value
		if col.ValueKind() == types.KindFloat {
			for _, w := range []float64{-1.5, -1, 0, 2.25, 5, 105, 250, 400, math.NaN()} {
				probes = append(probes, types.Float(w))
			}
		} else {
			for _, w := range probeValues(col) {
				probes = append(probes, types.Int(w))
			}
		}
		cols = append(cols, selectCol{fmt.Sprintf("seed %d %s n=%d", seed, name, col.Len()), col, probes})
	}
	for _, kind := range []string{"asc", "asc-lazy", "desc", "clustered", "int", "const", "rle", "for", "float"} {
		add(kind, refCol(t, rng, kind, 5000))
	}
	add("nulls", addNulls(rng, refCol(t, rng, "clustered", 5000)))
	if testing.Short() {
		return cols
	}
	const n = 200_000
	add("asc-lazy", refCol(t, rng, "asc-lazy", n))
	add("clustered", refCol(t, rng, "clustered", n))
	fl := make([]float64, n)
	for i := range fl {
		fl[i] = float64(i/bat.ZonemapSlab)*100 + rng.Float64()*10
	}
	add("float-clustered", bat.FromFloats(fl))
	// NaN rows in the first slab only, so the zonemap still decides the
	// others and the skip-scan runs.
	nan := slices.Clone(fl)
	for i := 0; i < 40; i++ {
		nan[rng.Intn(bat.ZonemapSlab)] = math.NaN()
	}
	add("float-clustered-nan", bat.FromFloats(nan))
	return cols
}

// selectAtWidths runs sel serially and with the pool engaged and checks
// both answers against want.
func selectAtWidths(t *testing.T, label string, want []int64, sel func(job *par.Job) (*bat.BAT, error)) {
	t.Helper()
	runBoth(t, func(job *par.Job) *bat.BAT {
		out, err := sel(job)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		return out
	}, func(serial, parallel *bat.BAT) {
		wantOIDs(t, label+" serial", serial, want)
		wantOIDs(t, label+" parallel", parallel, want)
	})
}

// thetaSelectMatchesReference checks ThetaSelect over the float or the
// non-float selectCols.
func thetaSelectMatchesReference(t *testing.T, floats bool) {
	lowZonemapGate(t)
	for _, c := range selectCols(t) {
		if (c.col.ValueKind() == types.KindFloat) != floats {
			continue
		}
		vals := boxed(c.col)
		for cname, cand := range candVariants(c.col.Len()) {
			rows := candRows(cand, c.col.Len())
			for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
				for _, w := range c.probes {
					want := refSelect(vals, rows, func(v types.Value) bool { return refTheta(op, v.Compare(w)) })
					selectAtWidths(t, fmt.Sprintf("%s cand=%s %s %v", c.name, cname, op, w), want, func(job *par.Job) (*bat.BAT, error) {
						return ThetaSelect(job, c.col, cand, w, op)
					})
				}
			}
		}
	}
}

func TestStatsEquivThetaSelect(t *testing.T) { thetaSelectMatchesReference(t, false) }

func TestStatsEquivFloatSelect(t *testing.T) { thetaSelectMatchesReference(t, true) }

func TestStatsEquivRangeSelect(t *testing.T) {
	lowZonemapGate(t)
	for _, c := range selectCols(t) {
		vals := boxed(c.col)
		for cname, cand := range candVariants(c.col.Len()) {
			rows := candRows(cand, c.col.Len())
			// Ordered pairs of probes, and some inverted ones.
			for i, lo := range c.probes {
				for j := max(i-1, 0); j < len(c.probes); j += 2 {
					hi := c.probes[j]
					want := refSelect(vals, rows, func(v types.Value) bool { return v.Compare(lo) >= 0 && v.Compare(hi) <= 0 })
					selectAtWidths(t, fmt.Sprintf("%s cand=%s [%v,%v]", c.name, cname, lo, hi), want, func(job *par.Job) (*bat.BAT, error) {
						return RangeSelect(job, c.col, cand, lo, hi)
					})
				}
			}
		}
	}
}

// refAggr folds the boxed values of the listed rows per group: COUNT(*)
// counts rows, everything else skips NULLs; an empty group's SUM, AVG,
// MIN and MAX are NULL.
func refAggr(agg AggKind, vals []types.Value, rows []int, gids []int64, ngroups int) []types.Value {
	out := make([]types.Value, ngroups)
	counts := make([]int64, ngroups)
	for i, r := range rows {
		g, v := gids[i], vals[r]
		if agg == AggCountAll {
			counts[g]++
			continue
		}
		if v.IsNull() {
			continue
		}
		counts[g]++
		switch {
		case counts[g] == 1:
			out[g] = v
		case agg == AggMin && v.Compare(out[g]) < 0, agg == AggMax && v.Compare(out[g]) > 0:
			out[g] = v
		case agg == AggSum || agg == AggAvg:
			if v.Kind() == types.KindFloat {
				out[g] = types.Float(out[g].Float64() + v.Float64())
			} else {
				out[g] = types.Int(out[g].Int64() + v.Int64())
			}
		}
	}
	for g := range out {
		switch {
		case agg == AggCount || agg == AggCountAll:
			out[g] = types.Int(counts[g])
		case counts[g] == 0:
			out[g] = types.Value{}
		case agg == AggAvg:
			s, _ := out[g].AsFloat()
			out[g] = types.Float(s / float64(counts[g]))
		}
	}
	return out
}

// TestStatsEquivMergeJoin: inner joins of sorted int keys with duplicate
// runs, under every candidate shape, and of sorted string keys — the
// inputs the merge path takes — against refJoin at both widths.
func TestStatsEquivMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	type join struct {
		label        string
		l, r         *bat.BAT
		lcand, rcand *bat.BAT
		wl, wr       []int64
	}
	var joins []join
	add := func(label string, l, r, lcand, rcand *bat.BAT) {
		wl, wr, _ := refJoin([]*bat.BAT{l}, []*bat.BAT{r}, candRows(lcand, l.Len()), candRows(rcand, r.Len()), false)
		joins = append(joins, join{label, l, r, lcand, rcand, wl, wr})
	}
	l, r := sortedKeyCol(rng, 2000, 2), sortedKeyCol(rng, 1100, 3)
	for lname, lcand := range candVariants(l.Len()) {
		for rname, rcand := range candVariants(r.Len()) {
			add(fmt.Sprintf("int lcand=%s rcand=%s", lname, rname), l, r, lcand, rcand)
		}
	}
	ls := bat.FromStrings([]string{"a", "a", "b", "c", "c", "c", "f"})
	rs := bat.FromStrings([]string{"a", "b", "b", "d", "f"})
	ls.DeriveProps()
	rs.DeriveProps()
	add("str", ls, rs, nil, nil)
	refWidths(t, func(width string, job *par.Job) {
		for _, j := range joins {
			li, ri, err := HashJoin(job, []*bat.BAT{j.l}, []*bat.BAT{j.r}, j.lcand, j.rcand)
			if err != nil {
				t.Fatalf("%s %s: %v", width, j.label, err)
			}
			wantOIDs(t, width+" "+j.label+" left", li, j.wl)
			wantOIDs(t, width+" "+j.label+" right", ri, j.wr)
		}
	})
}

// TestStatsEquivGroupAggr: aggregates over the sorted group ids
// of run grouping — counted and, for NULL-free encoded ints, accumulated
// per run — against refAggr. Integer results match exactly; float SUM and
// AVG, whose summation order is the kernel's own (see
// TestFloatSumIndependentOfWidth), within a relative 1e-12.
func TestStatsEquivGroupAggr(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	const n = 3000
	letters := []string{"aa", "bb", "bb", "cc"}
	strs := make([]string, n)
	for i := range strs {
		strs[i] = letters[min(i*4/n, 3)]
	}
	skey := bat.FromStrings(strs)
	skey.DeriveProps()
	keys := map[string]*bat.BAT{
		"asc":  refCol(t, rng, "asc", n),
		"desc": refCol(t, rng, "desc", n),
		"runs": sortedKeyCol(rng, n, 4),
		"str":  skey,
		"void": bat.NewVoid(5, n),
	}
	values := map[string]*bat.BAT{
		"int":   mkInts(rng, n),
		"rle":   refCol(t, rng, "rle", n),
		"float": mkFloats(rng, n),
	}
	aggs := []AggKind{AggSum, AggAvg, AggMin, AggMax, AggCount, AggCountAll}
	refWidths(t, func(width string, job *par.Job) {
		for kname, key := range keys {
			for _, useCand := range []bool{false, true} {
				cand, rows := refCand(rng, n, useCand)
				res, err := Group(job, []*bat.BAT{key}, cand)
				if err != nil {
					t.Fatal(err)
				}
				if !res.GIDs.Sorted {
					t.Fatalf("%s key=%s: run grouping did not produce sorted group ids", width, kname)
				}
				gids := make([]int64, res.GIDs.Len())
				for i := range gids {
					gids[i] = int64(res.GIDs.OidAt(i))
				}
				for vname, vcol := range values {
					vals := boxed(vcol)
					for _, agg := range aggs {
						label := fmt.Sprintf("%s key=%s cand=%v %s(%s)", width, kname, useCand, agg, vname)
						got, err := SubAggr(job, agg, vcol, res.GIDs, res.N, cand)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						want := refAggr(agg, vals, rows, gids, res.N)
						if got.Len() != len(want) {
							t.Fatalf("%s: %d groups, want %d", label, got.Len(), len(want))
						}
						for g, w := range want {
							v := got.Get(g)
							if v.IsNull() != w.IsNull() {
								t.Fatalf("%s: group %d is %v, want %v", label, g, v, w)
							}
							if v.IsNull() {
								continue
							}
							if v.Kind() == types.KindFloat && (agg == AggSum || agg == AggAvg) {
								if d := math.Abs(v.Float64() - w.Float64()); d > 1e-12*math.Max(1, math.Abs(w.Float64())) {
									t.Fatalf("%s: group %d is %v, want %v", label, g, v, w)
								}
								continue
							}
							if !v.Equal(w) {
								t.Fatalf("%s: group %d is %v, want %v", label, g, v, w)
							}
						}
					}
				}
			}
		}
	})
}

// TestZonemapRunCollapse pins the allocation contract of the skip-scan: a
// predicate whose matches form one contiguous run comes back as a virtual
// void BAT, not a materialised position list.
func TestZonemapRunCollapse(t *testing.T) {
	lowZonemapGate(t)
	n := 3 * bat.ZonemapSlab
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i / 128) // ascending plateaus, contiguous matches
	}
	col := bat.FromInts(vals)
	// No derived props: the first selective scan must build the zonemap
	// lazily, discover sortedness, and answer with a void run.
	out, err := ThetaSelect(nil, col, nil, types.Int(700), "=")
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind() != types.KindVoid {
		t.Fatalf("contiguous match returned %s, want void run", out.Kind())
	}
	if out.Len() != 128 || out.Seqbase() != types.OID(700*128) {
		t.Fatalf("run [%d,+%d), want [89600,+128)", out.Seqbase(), out.Len())
	}
	if col.CachedZonemap() == nil {
		t.Fatal("selective scan did not cache the zonemap")
	}
}
