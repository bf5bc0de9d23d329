package gdk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// The property under test: for every kernel, the morsel-parallel execution
// produces a BAT identical to the serial one — same values, same null
// bitmap — at sizes straddling the parallel cutoff. Float sums included:
// their summation order does not depend on the thread count.

// equivSizes straddle the forced cutoff (equivCutoff): below it kernels
// stay serial, at and above it they engage the pool.
const equivCutoff = 4097

var equivSizes = []int{64, 4096, 4097, 5000, 20000}

// runBoth evaluates f on a serial job and on an 8-wide one with the
// equivCutoff cutoff, and hands both results to check.
func runBoth[T any](t *testing.T, f func(job *par.Job) T, check func(serial, parallel T)) {
	t.Helper()
	serial := f(par.NewJob(1, equivCutoff))
	parallel := f(par.NewJob(8, equivCutoff))
	check(serial, parallel)
}

// mkInts builds a deterministic int column with ~1/8 NULLs and values in
// [-50, 50) (small domain so grouping and joins produce real collisions).
func mkInts(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	b := bat.FromInts(vals)
	for i := range vals {
		vals[i] = rng.Int63n(100) - 50
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

func mkFloats(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]float64, n)
	b := bat.FromFloats(vals)
	for i := range vals {
		vals[i] = rng.NormFloat64() * 10
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

func mkBools(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]bool, n)
	b := bat.FromBools(vals)
	for i := range vals {
		vals[i] = rng.Intn(2) == 0
	}
	for i := 0; i < n; i += 8 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// batsEqual compares two BATs row-wise through the NULL-aware accessors.
func batsEqual(t *testing.T, label string, a, b *bat.BAT) {
	t.Helper()
	if a.Len() != b.Len() {
		t.Fatalf("%s: len %d vs %d", label, a.Len(), b.Len())
	}
	if a.ValueKind() != b.ValueKind() {
		t.Fatalf("%s: kind %s vs %s", label, a.ValueKind(), b.ValueKind())
	}
	for i := 0; i < a.Len(); i++ {
		an, bn := a.IsNull(i), b.IsNull(i)
		if an != bn {
			t.Fatalf("%s: row %d null mismatch %v vs %v", label, i, an, bn)
		}
		if an {
			continue
		}
		if !a.Get(i).Equal(b.Get(i)) {
			t.Fatalf("%s: row %d value %v vs %v", label, i, a.Get(i), b.Get(i))
		}
	}
}

func TestParEquivArith(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		li, ri := mkInts(rng, n), mkInts(rng, n)
		lf, rf := mkFloats(rng, n), mkFloats(rng, n)
		for _, op := range []string{"+", "-", "*"} {
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := Arith(job, op, B(li), B(ri), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("int %s n=%d", op, n), s, p) })
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := Arith(job, op, B(lf), B(rf), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("float %s n=%d", op, n), s, p) })
		}
		// Division with a guaranteed non-zero divisor.
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := Arith(job, "/", B(li), C(types.Int(7), n), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("int / n=%d", n), s, p) })
	}
}

func TestParEquivArithErrors(t *testing.T) {
	// Division by zero must error identically in serial and parallel runs.
	n := 20000
	rng := rand.New(rand.NewSource(1))
	li := mkInts(rng, n)
	runBoth(t, func(job *par.Job) string {
		_, err := Arith(job, "/", B(li), C(types.Int(0), n), nil)
		if err == nil {
			return ""
		}
		return err.Error()
	}, func(s, p string) {
		if s == "" || s != p {
			t.Fatalf("error mismatch: serial %q parallel %q", s, p)
		}
	})
}

func TestParEquivCompareLogic(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		li, ri := mkInts(rng, n), mkInts(rng, n)
		lb, rb := mkBools(rng, n), mkBools(rng, n)
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := Compare(job, op, B(li), B(ri), nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("cmp %s n=%d", op, n), s, p) })
		}
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := And(job, B(lb), B(rb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("and n=%d", n), s, p) })
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := Or(job, B(lb), B(rb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("or n=%d", n), s, p) })
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := Not(job, B(lb), nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("not n=%d", n), s, p) })
	}
}

func TestParEquivSelections(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		col := mkInts(rng, n)
		cond := mkBools(rng, n)
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := SelectBool(job, cond, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("selectbool n=%d", n), s, p) })
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := ThetaSelect(job, col, nil, types.Int(0), "<")
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("theta n=%d", n), s, p) })
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := RangeSelect(job, col, nil, types.Int(-10), types.Int(10))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("range n=%d", n), s, p) })
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := SelectNonNull(job, col, nil)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("nonnull n=%d", n), s, p) })
		// Candidate-restricted scan through a prior selection.
		cand, err := ThetaSelect(nil, col, nil, types.Int(20), "<")
		if err != nil {
			t.Fatal(err)
		}
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := ThetaSelect(job, col, cand, types.Int(-20), ">")
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, fmt.Sprintf("theta cand n=%d", n), s, p) })
	}
}

func TestParEquivProject(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		for _, src := range []*bat.BAT{mkInts(rng, n), mkFloats(rng, n), mkBools(rng, n)} {
			idxVals := make([]int64, n)
			for i := range idxVals {
				idxVals[i] = int64(rng.Intn(n))
			}
			idx := bat.FromOIDs(idxVals)
			// Punch a few NULL index entries (outer-join shape).
			for i := 0; i < n; i += 16 {
				idx.SetNull(rng.Intn(n), true)
			}
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := Project(job, idx, src)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("project %s n=%d", src.Kind(), n), s, p)
			})
		}
	}
}

func TestParEquivProjectErrors(t *testing.T) {
	n := 20000
	src := bat.FromInts(make([]int64, n))
	idx := bat.FromOIDs([]int64{0, int64(n), 1}) // out of range in the middle
	runBoth(t, func(job *par.Job) string {
		_, err := Project(job, idx, src)
		if err == nil {
			return ""
		}
		return err.Error()
	}, func(s, p string) {
		if s == "" || s != p {
			t.Fatalf("error mismatch: serial %q parallel %q", s, p)
		}
	})
}

func TestParEquivGroupAggr(t *testing.T) {
	aggs := []AggKind{AggSum, AggCount, AggCountAll, AggAvg, AggMin, AggMax}
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		key1, key2 := mkInts(rng, n), mkInts(rng, n)
		valsI, valsF := mkInts(rng, n), mkFloats(rng, n)

		type groupOut struct {
			gids, extents *bat.BAT
			n             int
		}
		runBoth(t, func(job *par.Job) groupOut {
			g, err := Group(job, []*bat.BAT{key1, key2}, nil)
			if err != nil {
				t.Fatal(err)
			}
			return groupOut{g.GIDs, g.Extents, g.N}
		}, func(s, p groupOut) {
			if s.n != p.n {
				t.Fatalf("group n=%d: %d vs %d groups", n, s.n, p.n)
			}
			batsEqual(t, fmt.Sprintf("group gids n=%d", n), s.gids, p.gids)
			batsEqual(t, fmt.Sprintf("group extents n=%d", n), s.extents, p.extents)
		})

		g, err := Group(nil, []*bat.BAT{key1}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range aggs {
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := SubAggr(job, agg, valsI, g.GIDs, g.N, nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("subaggr int %s n=%d", agg, n), s, p)
			})
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := SubAggr(job, agg, valsF, g.GIDs, g.N, nil)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("subaggr float %s n=%d", agg, n), s, p)
			})
		}
	}
}

func TestParEquivJoins(t *testing.T) {
	for _, n := range equivSizes {
		rng := rand.New(rand.NewSource(int64(n)))
		lk, rk := mkInts(rng, n), mkInts(rng, n/2+1)
		runBoth(t, func(job *par.Job) [2]*bat.BAT {
			l, r, err := HashJoin(job, []*bat.BAT{lk}, []*bat.BAT{rk}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{l, r}
		}, func(s, p [2]*bat.BAT) {
			batsEqual(t, fmt.Sprintf("hashjoin l n=%d", n), s[0], p[0])
			batsEqual(t, fmt.Sprintf("hashjoin r n=%d", n), s[1], p[1])
		})
		runBoth(t, func(job *par.Job) [2]*bat.BAT {
			l, r, err := LeftJoin(job, []*bat.BAT{lk}, []*bat.BAT{rk}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{l, r}
		}, func(s, p [2]*bat.BAT) {
			batsEqual(t, fmt.Sprintf("leftjoin l n=%d", n), s[0], p[0])
			batsEqual(t, fmt.Sprintf("leftjoin r n=%d", n), s[1], p[1])
		})
	}
}

func TestParEquivTileSAT(t *testing.T) {
	// A 160x160 grid (25600 cells) with a 5x5 tile, straddling nothing in
	// particular but large enough to engage the pool at the forced cutoff.
	const side = 160
	sh := shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: side},
		{Name: "y", Start: 0, Step: 1, Stop: side},
	}
	rng := rand.New(rand.NewSource(7))
	attr := mkInts(rng, side*side)
	tile := []TileRange{{Lo: -2, Hi: 3}, {Lo: -2, Hi: 3}}
	for _, agg := range []AggKind{AggSum, AggCount, AggAvg} {
		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := TileAggSAT(job, agg, attr, sh, tile)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) {
			batsEqual(t, fmt.Sprintf("tilesat %s", agg), s, p)
		})
	}
}

// TestParEquivHashZeroAlloc pins the zero-allocation property of the row
// keys' hot path: once the rowKeys are built (one construction per kernel
// call), hashing and comparing rows must not allocate.
func TestParEquivHashZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	k := newRowKeys([]*bat.BAT{mkInts(rng, 1024), mkFloats(rng, 1024), mkStrs(rng, 1024)})
	allocs := testing.AllocsPerRun(1000, func() {
		k.hash(512)
		k.hasNull(512)
		k.eq(512, k, 100)
	})
	if allocs != 0 {
		t.Fatalf("row hashing allocates %.1f per run, want 0", allocs)
	}
}
