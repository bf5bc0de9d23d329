package gdk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// Candidate-vs-materialized equivalence: every candidate-threading kernel
// must produce bit-identical results (values and null masks) to the
// materialize-everything pipeline it replaces — gather the operands
// through the candidate list with Project, run the dense kernel, compare.
// Each property is checked serially and under forced 8-way parallelism
// (runBoth), so `go test -race` exercises the concurrent paths.

// candSelectivities are the fractions of base rows that survive the
// candidate-producing selection.
var candSelectivities = []float64{0.001, 0.1, 0.5, 0.99}

// mkUniform builds an int column with values uniform in [0, 1000) and
// ~1/16 NULLs, so `col < 1000*sel` selects ≈ sel of the rows.
func mkUniform(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	b := bat.FromInts(vals)
	for i := range vals {
		vals[i] = rng.Int63n(1000)
	}
	for i := 0; i < n; i += 16 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

func mkStrs(rng *rand.Rand, n int) *bat.BAT {
	vals := make([]string, n)
	b := bat.FromStrings(vals)
	letters := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i := range vals {
		vals[i] = letters[rng.Intn(len(letters))]
	}
	for i := 0; i < n; i += 16 {
		b.SetNull(rng.Intn(n), true)
	}
	return b
}

// selCand builds a candidate list of roughly the wanted selectivity.
func selCand(t *testing.T, col *bat.BAT, sel float64) *bat.BAT {
	t.Helper()
	k := int64(float64(1000) * sel)
	if k < 1 {
		k = 1
	}
	cand, err := ThetaSelect(nil, col, nil, types.Int(k), "<")
	if err != nil {
		t.Fatal(err)
	}
	return cand
}

// gather projects a column through the candidate list (the materializing
// reference implementation of candidate restriction).
func gather(t *testing.T, cand, b *bat.BAT) *bat.BAT {
	t.Helper()
	out, err := Project(nil, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestParEquivCandChain: a conjunctive predicate evaluated as a candidate
// chain (theta + fused calc + boolselect) equals the materialize-everything
// pipeline (full boolean columns + And + select), across selectivities and
// sizes straddling the parallel cutoff, serially and 8-way parallel.
func TestParEquivCandChain(t *testing.T) {
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	for _, n := range []int{4096, 20000} {
		for _, sel := range candSelectivities {
			rng := rand.New(rand.NewSource(int64(n) + int64(sel*1000)))
			a := mkUniform(rng, n)
			b := mkUniform(rng, n)
			v := mkFloats(rng, n)
			for trial := 0; trial < 4; trial++ {
				op2 := ops[rng.Intn(len(ops))]
				c2 := types.Int(rng.Int63n(1000))
				k := int64(float64(1000) * sel)
				if k < 1 {
					k = 1
				}
				label := fmt.Sprintf("n=%d sel=%g trial=%d op2=%s", n, sel, trial, op2)

				runBoth(t, func(job *par.Job) [2]*bat.BAT {
					// Candidate path: theta chain, no boolean columns.
					cand, err := ThetaSelect(job, a, nil, types.Int(k), "<")
					if err != nil {
						t.Fatal(err)
					}
					cand, err = ThetaSelect(job, b, cand, c2, op2)
					if err != nil {
						t.Fatal(err)
					}
					out, err := Project(job, cand, v)
					if err != nil {
						t.Fatal(err)
					}
					return [2]*bat.BAT{cand, out}
				}, func(s, p [2]*bat.BAT) {
					batsEqual(t, label+" cand list", s[0], p[0])
					batsEqual(t, label+" cand proj", s[1], p[1])
				})

				// Materializing path (serial reference).
				m1, err := Compare(nil, "<", B(a), C(types.Int(k), n), nil)
				if err != nil {
					t.Fatal(err)
				}
				m2, err := Compare(nil, op2, B(b), C(c2, n), nil)
				if err != nil {
					t.Fatal(err)
				}
				m, err := And(nil, B(m1), B(m2), nil)
				if err != nil {
					t.Fatal(err)
				}
				selList, err := SelectBool(nil, m, nil)
				if err != nil {
					t.Fatal(err)
				}
				wantProj, err := Project(nil, selList, v)
				if err != nil {
					t.Fatal(err)
				}

				// Candidate path (serial) against the reference.
				cand, err := ThetaSelect(nil, a, nil, types.Int(k), "<")
				if err != nil {
					t.Fatal(err)
				}
				cand, err = ThetaSelect(nil, b, cand, c2, op2)
				if err != nil {
					t.Fatal(err)
				}
				gotProj, err := Project(nil, cand, v)
				if err != nil {
					t.Fatal(err)
				}
				batsEqual(t, label+" list vs materialized", selList, cand)
				batsEqual(t, label+" proj vs materialized", wantProj, gotProj)
			}
		}
	}
}

// TestParEquivCalcCand: every calculator kernel with a candidate list
// equals gather-then-dense, for both an irregular oid candidate list and a
// dense void run.
func TestParEquivCalcCand(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(99))
	ai := mkUniform(rng, n)
	bi := mkUniform(rng, n)
	af := mkFloats(rng, n)
	bf := mkFloats(rng, n)
	ab := mkBools(rng, n)
	bb := mkBools(rng, n)
	as := mkStrs(rng, n)

	oidCand := selCand(t, ai, 0.3)
	voidCand := bat.NewVoid(1234, 5000)
	for ci, cand := range []*bat.BAT{oidCand, voidCand} {
		check := func(label string, withCand func(job *par.Job, c *bat.BAT) (*bat.BAT, error), reference func(c *bat.BAT) (*bat.BAT, error)) {
			t.Helper()
			want, err := reference(cand)
			if err != nil {
				t.Fatalf("%s reference: %v", label, err)
			}
			runBoth(t, func(job *par.Job) *bat.BAT {
				got, err := withCand(job, cand)
				if err != nil {
					t.Fatal(err)
				}
				return got
			}, func(s, p *bat.BAT) {
				batsEqual(t, fmt.Sprintf("%s cand=%d serial-vs-parallel", label, ci), s, p)
				batsEqual(t, fmt.Sprintf("%s cand=%d vs gather", label, ci), want, s)
			})
		}

		check("arith+", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Arith(job, "+", B(ai), B(bi), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Arith(nil, "+", B(gather(t, c, ai)), B(gather(t, c, bi)), nil)
		})
		check("arith* float", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Arith(job, "*", B(af), B(bf), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Arith(nil, "*", B(gather(t, c, af)), B(gather(t, c, bf)), nil)
		})
		check("arith const", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Arith(job, "-", B(ai), C(types.Int(7), n), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Arith(nil, "-", B(gather(t, c, ai)), C(types.Int(7), c.Len()), nil)
		})
		check("compare<", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Compare(job, "<", B(ai), B(bi), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Compare(nil, "<", B(gather(t, c, ai)), B(gather(t, c, bi)), nil)
		})
		check("and", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return And(job, B(ab), B(bb), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return And(nil, B(gather(t, c, ab)), B(gather(t, c, bb)), nil)
		})
		check("or", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Or(job, B(ab), B(bb), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Or(nil, B(gather(t, c, ab)), B(gather(t, c, bb)), nil)
		})
		check("not", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Not(job, B(ab), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Not(nil, B(gather(t, c, ab)), nil)
		})
		check("unary abs", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return UnaryNum(job, "abs", B(ai), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return UnaryNum(nil, "abs", B(gather(t, c, ai)), nil)
		})
		check("power", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Power(job, B(af), C(types.Int(2), n), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Power(nil, B(gather(t, c, af)), C(types.Int(2), c.Len()), nil)
		})
		check("concat", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Concat(job, B(as), C(types.Str("!"), n), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Concat(nil, B(gather(t, c, as)), C(types.Str("!"), c.Len()), nil)
		})
		check("substring", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Substring(job, B(as), C(types.Int(2), n), C(types.Int(3), n), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Substring(nil, B(gather(t, c, as)), C(types.Int(2), c.Len()), C(types.Int(3), c.Len()), nil)
		})
		check("like", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return Like(job, B(as), C(types.Str("%a%"), n), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return Like(nil, B(gather(t, c, as)), C(types.Str("%a%"), c.Len()), nil)
		})
		check("strunary upper", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return StrUnary(job, "upper", B(as), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return StrUnary(nil, "upper", B(gather(t, c, as)), nil)
		})
		check("isnull", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return IsNull(job, B(ai), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return IsNull(nil, B(gather(t, c, ai)), nil)
		})
		check("cast", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return CastBAT(job, B(ai), types.KindFloat, c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return CastBAT(nil, B(gather(t, c, ai)), types.KindFloat, nil)
		})
		check("ifthenelse", func(job *par.Job, c *bat.BAT) (*bat.BAT, error) {
			return IfThenElse(job, B(ab), B(ai), B(bi), c)
		}, func(c *bat.BAT) (*bat.BAT, error) {
			return IfThenElse(nil, B(gather(t, c, ab)), B(gather(t, c, ai)), B(gather(t, c, bi)), nil)
		})
	}
}

// TestParEquivSelectCand covers the selection kernels' candidate
// conventions: SelectBool maps candidate-aligned conditions back to base
// positions; SelectNonNull and RangeSelect restrict base columns.
func TestParEquivSelectCand(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(17))
	col := mkUniform(rng, n)
	for _, sel := range candSelectivities {
		cand := selCand(t, col, sel)
		cond := gather(t, cand, mkBools(rng, n))
		label := fmt.Sprintf("sel=%g", sel)

		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := SelectBool(job, cond, cand)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, label+" selectbool", s, p) })
		// Reference: positions into candidate space, mapped by hand.
		csel, err := SelectBool(nil, cond, nil)
		if err != nil {
			t.Fatal(err)
		}
		mapped := gather(t, csel, cand)
		got, err := SelectBool(nil, cond, cand)
		if err != nil {
			t.Fatal(err)
		}
		batsEqual(t, label+" selectbool mapping", mapped, got)

		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := SelectNonNull(job, col, cand)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, label+" nonnull", s, p) })
		nn, err := SelectNonNull(nil, col, cand)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < nn.Len(); i++ {
			if col.IsNull(int(nn.OidAt(i))) {
				t.Fatalf("%s: nonnull selected a NULL row", label)
			}
		}

		runBoth(t, func(job *par.Job) *bat.BAT {
			out, err := RangeSelect(job, col, cand, types.Int(100), types.Int(700))
			if err != nil {
				t.Fatal(err)
			}
			return out
		}, func(s, p *bat.BAT) { batsEqual(t, label+" range", s, p) })
	}
}

// TestParEquivGroupAggrCand: grouping and aggregation over a candidate
// list equal gather-then-dense, with extents mapped to base positions.
func TestParEquivGroupAggrCand(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(23))
	key := mkInts(rng, n)
	vals := mkFloats(rng, n)
	sel := mkUniform(rng, n)
	for _, s := range candSelectivities {
		cand := selCand(t, sel, s)
		label := fmt.Sprintf("sel=%g", s)

		// Reference: dense grouping over gathered keys, extents mapped.
		rg, err := Group(nil, []*bat.BAT{gather(t, cand, key)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantExt := gather(t, rg.Extents, cand)

		runBoth(t, func(job *par.Job) *GroupResult {
			g, err := Group(job, []*bat.BAT{key}, cand)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}, func(sr, pr *GroupResult) {
			if sr.N != pr.N {
				t.Fatalf("%s: %d vs %d groups", label, sr.N, pr.N)
			}
			batsEqual(t, label+" gids", sr.GIDs, pr.GIDs)
			batsEqual(t, label+" extents", sr.Extents, pr.Extents)
			if sr.N != rg.N {
				t.Fatalf("%s: cand path %d groups, dense %d", label, sr.N, rg.N)
			}
			batsEqual(t, label+" gids vs dense", rg.GIDs, sr.GIDs)
			batsEqual(t, label+" extents vs dense", wantExt, sr.Extents)
		})

		g, err := Group(nil, []*bat.BAT{key}, cand)
		if err != nil {
			t.Fatal(err)
		}
		for _, agg := range []AggKind{AggSum, AggCount, AggCountAll, AggAvg, AggMin, AggMax} {
			want, err := SubAggr(nil, agg, gather(t, cand, vals), g.GIDs, g.N, nil)
			if err != nil {
				t.Fatal(err)
			}
			runBoth(t, func(job *par.Job) *bat.BAT {
				out, err := SubAggr(job, agg, vals, g.GIDs, g.N, cand)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}, func(sr, pr *bat.BAT) {
				al := fmt.Sprintf("%s aggr %s", label, agg)
				batsEqual(t, al, sr, pr)
				batsEqual(t, al+" vs dense", want, sr)
			})
		}
	}
}

// TestParEquivJoinCand: joins with candidate-restricted sides equal the
// gather-then-dense join with position lists composed back to base.
func TestParEquivJoinCand(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(31))
	lk := mkInts(rng, n)
	rk := mkInts(rng, n/2+1)
	lsel := mkUniform(rng, n)
	rsel := mkUniform(rng, n/2+1)
	for _, s := range []float64{0.001, 0.1, 0.5} {
		lcand := selCand(t, lsel, s)
		rcand := selCand(t, rsel, 0.5)
		label := fmt.Sprintf("sel=%g", s)

		refJoin := func(join func(job *par.Job, l, r []*bat.BAT, lc, rc *bat.BAT) (*bat.BAT, *bat.BAT, error)) (*bat.BAT, *bat.BAT) {
			li, ri, err := join(nil, []*bat.BAT{gather(t, lcand, lk)}, []*bat.BAT{gather(t, rcand, rk)}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			return gather(t, li, lcand), gather(t, ri, rcand)
		}

		wantL, wantR := refJoin(HashJoin)
		runBoth(t, func(job *par.Job) [2]*bat.BAT {
			li, ri, err := HashJoin(job, []*bat.BAT{lk}, []*bat.BAT{rk}, lcand, rcand)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{li, ri}
		}, func(sr, pr [2]*bat.BAT) {
			batsEqual(t, label+" hashjoin l", sr[0], pr[0])
			batsEqual(t, label+" hashjoin r", sr[1], pr[1])
			batsEqual(t, label+" hashjoin l vs dense", wantL, sr[0])
			batsEqual(t, label+" hashjoin r vs dense", wantR, sr[1])
		})

		wantL, wantR = refJoin(LeftJoin)
		runBoth(t, func(job *par.Job) [2]*bat.BAT {
			li, ri, err := LeftJoin(job, []*bat.BAT{lk}, []*bat.BAT{rk}, lcand, rcand)
			if err != nil {
				t.Fatal(err)
			}
			return [2]*bat.BAT{li, ri}
		}, func(sr, pr [2]*bat.BAT) {
			batsEqual(t, label+" leftjoin l", sr[0], pr[0])
			batsEqual(t, label+" leftjoin r", sr[1], pr[1])
			batsEqual(t, label+" leftjoin l vs dense", wantL, sr[0])
			batsEqual(t, label+" leftjoin r vs dense", wantR, sr[1])
		})
	}
}

// TestCandMerge: AndCand/OrCand against brute-force set operations, for
// oid lists and virtual (void) runs in every combination.
func TestCandMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	mk := func(void bool) *bat.BAT {
		if void {
			lo := rng.Intn(50)
			return bat.NewVoid(types.OID(lo), rng.Intn(60)+1)
		}
		seen := map[int64]bool{}
		var vals []int64
		for len(vals) < rng.Intn(60)+1 {
			v := rng.Int63n(120)
			if !seen[v] {
				seen[v] = true
				vals = append(vals, v)
			}
		}
		sortInt64s(vals)
		b := bat.FromOIDs(vals)
		b.Sorted, b.Key = true, true
		return b
	}
	toSet := func(b *bat.BAT) map[int64]bool {
		s := map[int64]bool{}
		for i := 0; i < b.Len(); i++ {
			s[int64(b.OidAt(i))] = true
		}
		return s
	}
	checkSorted := func(label string, b *bat.BAT, want map[int64]bool) {
		t.Helper()
		if b.Len() != len(want) {
			t.Fatalf("%s: %d entries, want %d", label, b.Len(), len(want))
		}
		prev := int64(-1)
		for i := 0; i < b.Len(); i++ {
			v := int64(b.OidAt(i))
			if !want[v] {
				t.Fatalf("%s: unexpected oid %d", label, v)
			}
			if v <= prev {
				t.Fatalf("%s: not strictly ascending at %d", label, i)
			}
			prev = v
		}
	}
	for trial := 0; trial < 200; trial++ {
		a := mk(trial%2 == 0)
		b := mk(trial%3 == 0)
		sa, sb := toSet(a), toSet(b)
		inter := map[int64]bool{}
		union := map[int64]bool{}
		for v := range sa {
			union[v] = true
			if sb[v] {
				inter[v] = true
			}
		}
		for v := range sb {
			union[v] = true
		}
		checkSorted(fmt.Sprintf("and trial=%d", trial), AndCand(a, b), inter)
		checkSorted(fmt.Sprintf("or trial=%d", trial), OrCand(a, b), union)
	}
	// nil absorbs: nil = all rows.
	some := bat.FromOIDs([]int64{1, 2, 3})
	if AndCand(nil, some) != some || AndCand(some, nil) != some {
		t.Error("AndCand with nil must return the other list")
	}
	if OrCand(nil, some) != nil || OrCand(some, nil) != nil {
		t.Error("OrCand with nil must return nil (all rows)")
	}
}

// TestSlabVoidFastPath: contiguous slabs come back as virtual runs and
// project identically to their materialised form.
func TestSlabVoidFastPath(t *testing.T) {
	sh := fig1cShape() // 4x4
	// A full row band [1..2] x [0..3] is contiguous: rows 4..11.
	cand, err := SlabCandidates(sh, []int{1, 0}, []int{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Kind() != types.KindVoid {
		t.Fatalf("contiguous slab should be void, got %s", cand.Kind())
	}
	if cand.Len() != 8 || cand.OidAt(0) != 4 || cand.OidAt(7) != 11 {
		t.Fatalf("slab run wrong: len=%d first=%d", cand.Len(), cand.OidAt(0))
	}
	// A column band is not contiguous and stays an oid list.
	cand2, err := SlabCandidates(sh, []int{0, 1}, []int{3, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cand2.Kind() == types.KindVoid {
		t.Fatal("non-contiguous slab must stay an oid list")
	}
	// Projection through the void run equals the materialised gather.
	col := bat.FromInts(make([]int64, 16))
	for i := range col.Ints() {
		col.Ints()[i] = int64(i * 3)
	}
	col.SetNull(5, true)
	got, err := Project(nil, cand, col)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Project(nil, cand.Materialize(), col)
	if err != nil {
		t.Fatal(err)
	}
	batsEqual(t, "void projection", want, got)
}

func sortInt64s(v []int64) {
	for i := 1; i < len(v); i++ {
		for j := i; j > 0 && v[j] < v[j-1]; j-- {
			v[j], v[j-1] = v[j-1], v[j]
		}
	}
}
