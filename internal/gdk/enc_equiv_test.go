package gdk

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bat"
	"repro/internal/types"
)

// Encoding-path equivalence: every kernel must produce bit-identical
// results over an encoded column (RLE/dict/FOR/delta slabs) and its plain
// twin — positions, group ids, candidate lists, aggregates. Each case runs
// with statistics on and off (the zonemap skip-scan composes with slab
// decoding) and, for the selection kernels, serially and under forced
// 8-way parallelism, so `go test -race` also exercises concurrent slab
// decodes against the shared per-column decode cache.

// encTwin returns an encoded copy of plain, failing the test when a shape
// expected to compress stays plain (the equivalence run would be vacuous).
func encTwin(t *testing.T, plain *bat.BAT, wantEnc bool) *bat.BAT {
	t.Helper()
	prev := bat.SetEncodingsEnabled(true)
	enc := bat.EncodeAuto(plain)
	bat.SetEncodingsEnabled(prev)
	if wantEnc && !enc.Encoded() {
		t.Fatal("dataset did not encode; equivalence test is vacuous")
	}
	return enc
}

// encBaseline runs fn over the encoded twin and the plain column under
// stats on and off, checking each pair, and returns the last encoded
// result (for serial-vs-parallel comparison by the caller).
func encBaseline[T any](t *testing.T, plain, enc *bat.BAT, fn func(col *bat.BAT) T, check func(encRes, plainRes T)) T {
	t.Helper()
	var out T
	for _, stats := range []bool{true, false} {
		prev := SetStatsEnabled(stats)
		e := fn(enc)
		p := fn(plain)
		SetStatsEnabled(prev)
		check(e, p)
		out = e
	}
	return out
}

// encDataset builds one named int column shape spanning multiple 64K
// slabs, each designed to trigger a specific encoding.
func encDataset(shape string, rng *rand.Rand, n int) *bat.BAT {
	vals := make([]int64, n)
	switch shape {
	case "runs": // long constant runs, non-monotone values -> RLE
		v := int64(0)
		for i := range vals {
			if i%700 == 0 {
				v = rng.Int63n(50) - 25
			}
			vals[i] = v
		}
	case "lowcard": // ~100 distinct scattered values -> dict
		for i := range vals {
			vals[i] = rng.Int63n(100)*1000 - 50_000
		}
	case "sorted": // ascending small gaps -> delta
		v := int64(-40)
		for i := range vals {
			v += rng.Int63n(3)
			vals[i] = v
		}
	case "narrow": // huge base, 1-byte span -> FOR
		for i := range vals {
			vals[i] = 1<<40 + rng.Int63n(256)
		}
	case "midcard": // ~4000 distinct: encodes, joins stay small
		for i := range vals {
			vals[i] = rng.Int63n(4000)
		}
	case "mixed": // a different encoding per slab, incl. one plain slab
		for i := range vals {
			switch (i / bat.SlabRows) % 4 {
			case 0:
				vals[i] = int64(i / 500)
			case 1:
				vals[i] = rng.Int63n(64)
			case 2:
				vals[i] = 1<<33 + rng.Int63n(128)
			default:
				vals[i] = rng.Int63() - rng.Int63() // wide: stays plain
			}
		}
	default:
		panic("unknown shape " + shape)
	}
	b := bat.FromInts(vals)
	if shape == "sorted" {
		b.DeriveProps()
	}
	return b
}

// encStrDataset builds a string column whose first slabs dictionary-encode
// (8 distinct values) and whose last slab stays plain (unique strings), so
// selects cross a dict/plain slab boundary.
func encStrDataset(rng *rand.Rand, n int) *bat.BAT {
	letters := []string{"alpha", "beta", "gamma", "delta", "eps", "zeta", "eta", "theta"}
	vals := make([]string, n)
	lastSlab := ((n - 1) / bat.SlabRows) * bat.SlabRows
	for i := range vals {
		if i >= lastSlab {
			vals[i] = fmt.Sprintf("unique-%06d", i)
		} else {
			vals[i] = letters[rng.Intn(len(letters))]
		}
	}
	return bat.FromStrings(vals)
}

func TestEncEquivThetaSelect(t *testing.T) {
	lowZonemapGate(t)
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	n := 3 * bat.SlabRows / 2 // multi-slab with a partial tail slab
	for _, shape := range []string{"runs", "lowcard", "sorted", "narrow", "mixed"} {
		rng := rand.New(rand.NewSource(int64(len(shape))))
		col := encDataset(shape, rng, n)
		if shape == "lowcard" {
			col = addNulls(rng, col) // dict slab + NULL guard in the scanner
		}
		enc := encTwin(t, col, true)
		probes := probeValues(col)
		if testing.Short() {
			probes = probes[:5]
		}
		for cname, cand := range candVariants(n) {
			for _, op := range ops {
				for _, w := range probes {
					label := fmt.Sprintf("%s cand=%s %s %d", shape, cname, op, w)
					runBoth(t, func() *bat.BAT {
						return encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
							out, err := ThetaSelect(c, cand, types.Int(w), op)
							if err != nil {
								t.Fatalf("%s: %v", label, err)
							}
							return out
						}, func(e, p *bat.BAT) {
							batsEqual(t, label, e, p)
						})
					}, func(serial, parallel *bat.BAT) {
						batsEqual(t, label+" serial-vs-parallel", serial, parallel)
					})
				}
			}
		}
	}
}

func TestEncEquivRangeSelect(t *testing.T) {
	lowZonemapGate(t)
	n := 3 * bat.SlabRows / 2
	for _, shape := range []string{"runs", "sorted", "narrow"} {
		rng := rand.New(rand.NewSource(5))
		col := encDataset(shape, rng, n)
		enc := encTwin(t, col, true)
		probes := probeValues(col)
		for cname, cand := range candVariants(n) {
			for i := 0; i < len(probes); i += 2 {
				for j := i; j < len(probes); j += 3 {
					lo, hi := probes[i], probes[j]
					label := fmt.Sprintf("%s cand=%s [%d,%d]", shape, cname, lo, hi)
					encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
						out, err := RangeSelect(c, cand, types.Int(lo), types.Int(hi))
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return out
					}, func(e, p *bat.BAT) {
						batsEqual(t, label, e, p)
					})
				}
			}
		}
	}
}

func TestEncEquivStrSelect(t *testing.T) {
	n := 3*bat.SlabRows/2 + bat.SlabRows // dict slabs + one plain slab
	rng := rand.New(rand.NewSource(9))
	col := encStrDataset(rng, n)
	enc := encTwin(t, col, true)
	probes := []string{"", "alpha", "gamma", "theta", "omega", "unique-150000", "zz"}
	for cname, cand := range candVariants(n) {
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			for _, w := range probes {
				label := fmt.Sprintf("str cand=%s %s %q", cname, op, w)
				runBoth(t, func() *bat.BAT {
					return encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
						out, err := ThetaSelect(c, cand, types.Str(w), op)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						return out
					}, func(e, p *bat.BAT) {
						batsEqual(t, label, e, p)
					})
				}, func(serial, parallel *bat.BAT) {
					batsEqual(t, label+" serial-vs-parallel", serial, parallel)
				})
			}
		}
	}
}

func TestEncEquivFloatSelect(t *testing.T) {
	lowZonemapGate(t)
	n := 3 * bat.SlabRows / 2
	vals := make([]float64, n)
	rng := rand.New(rand.NewSource(13))
	v := 0.0
	for i := range vals { // constant runs -> float RLE
		if i%900 == 0 {
			v = float64(rng.Intn(200)) / 4
		}
		vals[i] = v
	}
	col := bat.FromFloats(vals)
	enc := encTwin(t, col, true)
	for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
		for _, w := range []float64{-1, 0, 10.25, 25, 49.75, 100} {
			label := fmt.Sprintf("float %s %g", op, w)
			encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
				out, err := ThetaSelect(c, nil, types.Float(w), op)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return out
			}, func(e, p *bat.BAT) {
				batsEqual(t, label, e, p)
			})
		}
	}
	encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
		out, err := RangeSelect(c, nil, types.Float(3), types.Float(37.5))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}, func(e, p *bat.BAT) {
		batsEqual(t, "float range", e, p)
	})
}

func TestEncEquivProjectNonNull(t *testing.T) {
	n := 3 * bat.SlabRows / 2
	rng := rand.New(rand.NewSource(17))
	for _, shape := range []string{"runs", "lowcard", "mixed"} {
		col := addNulls(rng, encDataset(shape, rng, n))
		enc := encTwin(t, col, true)
		for cname, cand := range candVariants(n) {
			label := fmt.Sprintf("%s cand=%s", shape, cname)
			encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
				out, err := SelectNonNull(c, cand)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return out
			}, func(e, p *bat.BAT) {
				batsEqual(t, label+" nonnull", e, p)
			})
			if cand == nil {
				continue
			}
			encBaseline(t, col, enc, func(c *bat.BAT) *bat.BAT {
				out, err := Project(cand, c)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				return out
			}, func(e, p *bat.BAT) {
				batsEqual(t, label+" project", e, p)
			})
		}
	}
	// Encoded string projection (final materialisation decodes dict slabs).
	scol := encStrDataset(rng, n)
	senc := encTwin(t, scol, true)
	idx := bat.NewVoid(types.OID(n/3), n/2)
	encBaseline(t, scol, senc, func(c *bat.BAT) *bat.BAT {
		out, err := Project(idx, c)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}, func(e, p *bat.BAT) {
		batsEqual(t, "str project", e, p)
	})
}

func TestEncEquivGroupAggr(t *testing.T) {
	n := 3 * bat.SlabRows / 2
	rng := rand.New(rand.NewSource(19))
	keyShapes := []string{"runs", "lowcard", "sorted"}
	aggs := []AggKind{AggSum, AggAvg, AggMin, AggMax, AggCount, AggCountAll}
	for _, shape := range keyShapes {
		key := encDataset(shape, rng, n)
		keyEnc := encTwin(t, key, true)
		valsRuns := encDataset("runs", rng, n) // no NULLs: RLE run-fold SubAggr
		valsRunsEnc := encTwin(t, valsRuns, true)
		valsNulled := addNulls(rng, encDataset("lowcard", rng, n))
		valsNulledEnc := encTwin(t, valsNulled, true)
		valsF := mkFloats(rng, n)

		for cname, cand := range candVariants(n) {
			label := fmt.Sprintf("group %s cand=%s", shape, cname)
			var res *GroupResult
			runBoth(t, func() *GroupResult {
				res = encBaseline(t, key, keyEnc, func(c *bat.BAT) *GroupResult {
					r, err := Group([]*bat.BAT{c}, cand)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					return r
				}, func(e, p *GroupResult) {
					if e.N != p.N {
						t.Fatalf("%s: %d vs %d groups", label, e.N, p.N)
					}
					batsEqual(t, label+" gids", e.GIDs, p.GIDs)
					batsEqual(t, label+" extents", e.Extents, p.Extents)
				})
				return res
			}, func(serial, parallel *GroupResult) {
				batsEqual(t, label+" gids serial-vs-parallel", serial.GIDs, parallel.GIDs)
			})

			for _, agg := range aggs {
				for vname, pair := range map[string][2]*bat.BAT{
					"runs":   {valsRuns, valsRunsEnc},
					"nulled": {valsNulled, valsNulledEnc},
					"float":  {valsF, valsF}, // plain: pins agg output vs encoded gids
				} {
					alabel := fmt.Sprintf("%s %s(%s)", label, agg, vname)
					encBaseline(t, pair[0], pair[1], func(c *bat.BAT) *bat.BAT {
						out, err := SubAggr(agg, c, res.GIDs, res.N, cand)
						if err != nil {
							t.Fatalf("%s: %v", alabel, err)
						}
						return out
					}, func(e, p *bat.BAT) {
						batsEqual(t, alabel, e, p)
					})
				}
			}
		}
	}
}

// TestEncKernelsTouchFewerBytes pins the compression win in the one
// measure that does not depend on the machine, physical bytes charged by
// the slab accessors: a select over run-length and dictionary slabs and a
// grouped SUM over a run-length measure touch at least 2x fewer bytes
// than over their plain twins.
func TestEncKernelsTouchFewerBytes(t *testing.T) {
	n := 4 * bat.SlabRows
	rng := rand.New(rand.NewSource(97))
	runs := encDataset("runs", rng, n)
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("label-%02d", rng.Intn(64))
	}
	// Group by a coarse sorted key (64 groups); both sides aggregate under
	// the same run-length gids, so the measured traffic is the measure's.
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = int64(i / (n / 64))
	}
	key := bat.FromInts(keys)
	key.DeriveProps()
	grp, err := Group([]*bat.BAT{key}, nil)
	if err != nil {
		t.Fatal(err)
	}
	gids := encTwin(t, grp.GIDs, true)

	touched := func(col *bat.BAT, fn func(*bat.BAT) error) int64 {
		if err := fn(col); err != nil { // warm lazy builds (zonemaps, dict tables)
			t.Fatal(err)
		}
		bat.ResetTouchedBytes()
		if err := fn(col); err != nil {
			t.Fatal(err)
		}
		return bat.ResetTouchedBytes()
	}
	selectEq := func(v types.Value) func(*bat.BAT) error {
		return func(c *bat.BAT) error {
			_, err := ThetaSelect(c, nil, v, "=")
			return err
		}
	}
	for _, c := range []struct {
		name  string
		plain *bat.BAT
		fn    func(*bat.BAT) error
	}{
		{"rle select", runs, selectEq(types.Int(0))},
		{"dict select", bat.FromStrings(labels), selectEq(types.Str("label-31"))},
		{"rle grouped sum", runs, func(c *bat.BAT) error {
			_, err := SubAggr(AggSum, c, gids, grp.N, nil)
			return err
		}},
	} {
		enc := encTwin(t, c.plain, true)
		e, p := touched(enc, c.fn), touched(c.plain, c.fn)
		if p == 0 || p < 2*e {
			t.Errorf("%s: encoded touches %d bytes, plain %d; want at least 2x fewer", c.name, e, p)
		}
	}
}

func TestEncEquivJoin(t *testing.T) {
	n, m := bat.SlabRows+4096, bat.SlabRows/2
	rng := rand.New(rand.NewSource(29))
	l := encDataset("midcard", rng, n)
	r := encDataset("midcard", rng, m)
	lEnc, rEnc := encTwin(t, l, true), encTwin(t, r, true)
	for cname, cand := range candVariants(m) {
		label := "hashjoin cand=" + cname
		runBoth(t, func() [2]*bat.BAT {
			var out [2]*bat.BAT
			for _, stats := range []bool{true, false} {
				prev := SetStatsEnabled(stats)
				li, ri, err := HashJoin([]*bat.BAT{lEnc}, []*bat.BAT{rEnc}, nil, cand)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				pli, pri, err := HashJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, cand)
				SetStatsEnabled(prev)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				batsEqual(t, label+" left", li, pli)
				batsEqual(t, label+" right", ri, pri)
				out = [2]*bat.BAT{li, ri}
			}
			return out
		}, func(serial, parallel [2]*bat.BAT) {
			batsEqual(t, label+" left serial-vs-parallel", serial[0], parallel[0])
			batsEqual(t, label+" right serial-vs-parallel", serial[1], parallel[1])
		})
	}

	// Sorted keys: the merge path must read delta-encoded columns too.
	ls := encDataset("sorted", rng, n)
	rs := encDataset("sorted", rng, m)
	lsEnc, rsEnc := encTwin(t, ls, true), encTwin(t, rs, true)
	for _, stats := range []bool{true, false} {
		prev := SetStatsEnabled(stats)
		li, ri, err := HashJoin([]*bat.BAT{lsEnc}, []*bat.BAT{rsEnc}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		pli, pri, err := HashJoin([]*bat.BAT{ls}, []*bat.BAT{rs}, nil, nil)
		SetStatsEnabled(prev)
		if err != nil {
			t.Fatal(err)
		}
		batsEqual(t, "sorted join left", li, pli)
		batsEqual(t, "sorted join right", ri, pri)
	}
}
