package gdk

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/bat"
	"repro/internal/types"
)

// Statistics-path equivalence: every property fast path (bound pruning,
// sorted binary search, zonemap skip-scan, merge join, run-detected
// grouping and aggregation) must produce bit-identical results to the
// unindexed kernels. Each case runs the kernel with statistics enabled and
// disabled (SetStatsEnabled) and compares, both serially and under forced
// 8-way parallelism (runBoth), so `go test -race` also exercises the
// concurrent lazy zonemap build.

// statsBaseline runs fn twice — fast paths on, then off — and hands both
// results to check.
func statsBaseline[T any](t *testing.T, fn func() T, check func(fast, base T)) {
	t.Helper()
	prev := SetStatsEnabled(true)
	fast := fn()
	SetStatsEnabled(false)
	base := fn()
	SetStatsEnabled(prev)
	check(fast, base)
}

// lowZonemapGate shrinks the zonemap size gate for the duration of a test
// so small columns exercise the skip-scan.
func lowZonemapGate(t *testing.T) {
	t.Helper()
	prev := zonemapSelectMinRows
	zonemapSelectMinRows = 2048
	t.Cleanup(func() { zonemapSelectMinRows = prev })
}

// statsDataset builds one named column shape. Shapes marked "derived" get
// exact properties via DeriveProps; "lazy" shapes leave the flags unset so
// only the zonemap build can discover order.
func statsDataset(shape string, rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	switch shape {
	case "asc", "asc-lazy":
		v := int64(-40)
		for i := range vals {
			v += rng.Int63n(3) // duplicates included
			vals[i] = v
		}
	case "desc":
		v := int64(1 << 20)
		for i := range vals {
			v -= rng.Int63n(3)
			vals[i] = v
		}
	case "clustered":
		// Slab-disjoint value bands, unsorted within each band: the
		// zonemap prunes aggressively, binary search cannot apply.
		for i := range vals {
			vals[i] = int64(i/bat.ZonemapSlab)*1000 + rng.Int63n(50)
		}
	case "random":
		for i := range vals {
			vals[i] = rng.Int63n(1000) - 500
		}
	case "const":
		for i := range vals {
			vals[i] = 42
		}
	default:
		panic("unknown shape " + shape)
	}
	b := bat.FromInts(vals)
	switch shape {
	case "asc", "desc", "const":
		b.DeriveProps()
	}
	return b
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

func TestStatsEquivThetaSelect(t *testing.T) {
	lowZonemapGate(t)
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	shapes := []string{"asc", "asc-lazy", "desc", "clustered", "random", "const"}
	for _, shape := range shapes {
		for _, n := range []int{5000, 200_000} {
			if n == 200_000 {
				// The multi-slab tier only behaves differently for shapes
				// the zonemap can act on: lazily discovered sortedness and
				// slab-disjoint clustering. -short strides it entirely.
				if testing.Short() || (shape != "asc-lazy" && shape != "clustered") {
					continue
				}
			}
			if shape == "clustered" && n < bat.ZonemapSlab {
				continue
			}
			rng := rand.New(rand.NewSource(int64(n)))
			col := statsDataset(shape, rng, n)
			nulled := shape == "random" && n == 5000
			if nulled {
				col = addNulls(rng, col)
			}
			probes := probeValues(col)
			for cname, cand := range candVariants(n) {
				for _, op := range ops {
					for _, w := range probes {
						label := fmt.Sprintf("%s n=%d cand=%s %s %d", shape, n, cname, op, w)
						runBoth(t, func() *bat.BAT {
							var fastOut *bat.BAT
							statsBaseline(t, func() *bat.BAT {
								out, err := ThetaSelect(nil, col, cand, types.Int(w), op)
								if err != nil {
									t.Fatalf("%s: %v", label, err)
								}
								return out
							}, func(fast, base *bat.BAT) {
								batsEqual(t, label, fast, base)
								fastOut = fast
							})
							return fastOut
						}, func(serial, parallel *bat.BAT) {
							batsEqual(t, label+" serial-vs-parallel", serial, parallel)
						})
					}
				}
			}
		}
	}
}

func TestStatsEquivRangeSelect(t *testing.T) {
	lowZonemapGate(t)
	shapes := []string{"asc", "desc", "clustered", "random"}
	for _, shape := range shapes {
		n := 5000
		if shape == "clustered" {
			if testing.Short() {
				continue
			}
			n = 200_000
		}
		rng := rand.New(rand.NewSource(7))
		col := statsDataset(shape, rng, n)
		if shape == "random" {
			col = addNulls(rng, col)
		}
		probes := probeValues(col)
		for cname, cand := range candVariants(n) {
			for i := 0; i < len(probes); i++ {
				for j := i; j < len(probes); j += 2 {
					lo, hi := probes[i], probes[j]
					label := fmt.Sprintf("%s n=%d cand=%s [%d,%d]", shape, n, cname, lo, hi)
					statsBaseline(t, func() *bat.BAT {
						out, err := RangeSelect(nil, col, cand, types.Int(lo), types.Int(hi))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return out
					}, func(fast, base *bat.BAT) {
						batsEqual(t, label, fast, base)
					})
				}
			}
		}
	}
}

func TestStatsEquivFloatSelect(t *testing.T) {
	lowZonemapGate(t)
	n := 200_000
	rng := rand.New(rand.NewSource(11))
	// Clustered floats: zonemap-prunable, not sorted.
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i/bat.ZonemapSlab)*100 + rng.Float64()*10
	}
	col := bat.FromFloats(vals)
	probes := []float64{-1, 0, 5, 105, 250, 400}
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, w := range probes {
			label := fmt.Sprintf("float %s %g", op, w)
			statsBaseline(t, func() *bat.BAT {
				out, err := ThetaSelect(nil, col, nil, types.Float(w), op)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return out
			}, func(fast, base *bat.BAT) {
				batsEqual(t, label, fast, base)
			})
		}
	}
	statsBaseline(t, func() *bat.BAT {
		out, err := RangeSelect(nil, col, nil, types.Float(3), types.Float(207))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}, func(fast, base *bat.BAT) {
		batsEqual(t, "float range", fast, base)
	})
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

func TestStatsEquivMergeJoin(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	l := sortedKeyCol(rng, 30_000, 2)
	r := sortedKeyCol(rng, 17_000, 3)
	lcands := candVariants(l.Len())
	rcands := candVariants(r.Len())
	for lname, lcand := range lcands {
		for rname, rcand := range rcands {
			label := fmt.Sprintf("mergejoin lcand=%s rcand=%s", lname, rname)
			runBoth(t, func() [2]*bat.BAT {
				var out [2]*bat.BAT
				statsBaseline(t, func() [2]*bat.BAT {
					li, ri, err := HashJoin(nil, []*bat.BAT{l}, []*bat.BAT{r}, lcand, rcand)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return [2]*bat.BAT{li, ri}
				}, func(fast, base [2]*bat.BAT) {
					batsEqual(t, label+" left", fast[0], base[0])
					batsEqual(t, label+" right", fast[1], base[1])
					out = fast
				})
				return out
			}, func(serial, parallel [2]*bat.BAT) {
				batsEqual(t, label+" left serial-vs-parallel", serial[0], parallel[0])
				batsEqual(t, label+" right serial-vs-parallel", serial[1], parallel[1])
			})
		}
	}

	// String keys take the merge path too.
	ls := bat.FromStrings([]string{"a", "a", "b", "c", "c", "c", "f"})
	rs := bat.FromStrings([]string{"a", "b", "b", "d", "f"})
	ls.DeriveProps()
	rs.DeriveProps()
	statsBaseline(t, func() [2]*bat.BAT {
		li, ri, err := HashJoin(nil, []*bat.BAT{ls}, []*bat.BAT{rs}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return [2]*bat.BAT{li, ri}
	}, func(fast, base [2]*bat.BAT) {
		batsEqual(t, "str mergejoin left", fast[0], base[0])
		batsEqual(t, "str mergejoin right", fast[1], base[1])
	})
}

func TestStatsEquivGroupAggr(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 25_000
	key := sortedKeyCol(rng, n, 4)
	valsI := mkInts(rng, n)
	valsF := mkFloats(rng, n)
	aggs := []AggKind{AggSum, AggAvg, AggMin, AggMax, AggCount, AggCountAll}
	for cname, cand := range candVariants(n) {
		label := "group cand=" + cname
		runBoth(t, func() *GroupResult {
			var out *GroupResult
			statsBaseline(t, func() *GroupResult {
				res, err := Group(nil, []*bat.BAT{key}, cand)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return res
			}, func(fast, base *GroupResult) {
				if fast.N != base.N {
					t.Fatalf("%s: %d vs %d groups", label, fast.N, base.N)
				}
				batsEqual(t, label+" gids", fast.GIDs, base.GIDs)
				batsEqual(t, label+" extents", fast.Extents, base.Extents)
				out = fast
			})
			return out
		}, func(serial, parallel *GroupResult) {
			batsEqual(t, label+" gids serial-vs-parallel", serial.GIDs, parallel.GIDs)
		})

		// Aggregate over the (sorted) group ids the run path produced.
		res, err := Group(nil, []*bat.BAT{key}, cand)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range aggs {
			for vname, vals := range map[string]*bat.BAT{"int": valsI, "float": valsF} {
				alabel := fmt.Sprintf("%s %s(%s)", label, agg, vname)
				statsBaseline(t, func() *bat.BAT {
					out, err := SubAggr(nil, agg, vals, res.GIDs, res.N, cand)
					if err != nil {
						t.Fatalf("%s: %v", alabel, err)
					}
					return out
				}, func(fast, base *bat.BAT) {
					batsEqual(t, alabel, fast, base)
				})
			}
		}
	}

	// Sorted string and void keys take the run path as well.
	strs := make([]string, 999)
	letters := []string{"aa", "bb", "bb", "cc"}
	for i := range strs {
		strs[i] = letters[min(i/300, 3)]
	}
	skey := bat.FromStrings(strs)
	skey.DeriveProps()
	statsBaseline(t, func() *GroupResult {
		res, err := Group(nil, []*bat.BAT{skey}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}, func(fast, base *GroupResult) {
		batsEqual(t, "str group gids", fast.GIDs, base.GIDs)
		batsEqual(t, "str group extents", fast.Extents, base.Extents)
	})
	vkey := bat.NewVoid(5, 777)
	statsBaseline(t, func() *GroupResult {
		res, err := Group(nil, []*bat.BAT{vkey}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}, func(fast, base *GroupResult) {
		batsEqual(t, "void group gids", fast.GIDs, base.GIDs)
		batsEqual(t, "void group extents", fast.Extents, base.Extents)
	})
}

func TestStatsEquivSelectNonNull(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	clean := statsDataset("random", rng, 4000)
	dirty := addNulls(rng, statsDataset("random", rng, 4000))
	for name, col := range map[string]*bat.BAT{"clean": clean, "nulls": dirty} {
		for cname, cand := range candVariants(col.Len()) {
			label := fmt.Sprintf("nonnull %s cand=%s", name, cname)
			statsBaseline(t, func() *bat.BAT {
				out, err := SelectNonNull(nil, col, cand)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return out
			}, func(fast, base *bat.BAT) {
				batsEqual(t, label, fast, base)
			})
		}
	}
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
