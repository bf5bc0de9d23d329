package gdk

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/par"
	"repro/internal/types"
)

// The typed group, join and sort kernels checked against a boxed
// reference: every row read through BAT.Get, compared with Value.Equal and
// Value.Compare, grouped through a map keyed on the boxed row, joined by a
// nested loop and ordered by sort.SliceStable. The reference shares no
// code with the kernels. It spells out the two float rules the kernels
// keep: float keys match only with equal bits (-0.0 and 0.0 apart, NaN
// matching nothing), and NaN sorts above every number.

// refKinds are the column shapes the random inputs draw from.
var refKinds = []string{"int", "extreme", "oid", "void", "float", "str", "bool", "const", "rle", "for",
	"asc", "asc-lazy", "desc", "clustered", "str-asc", "neg", "extreme-nn"}

// refCol builds an n-row key column of the named shape. Domains are small
// so groups and join matches repeat; NULLs keep whatever value the row
// had, so NULL rows differ in their storage. The NULL-free ordered shapes
// are the ones the statistics paths act on: asc, desc and str-asc carry
// derived order claims (merge join, run grouping, binary search),
// asc-lazy leaves its order for the zonemap build to discover, and
// clustered gives each 64K-row slab a disjoint value band, unsorted
// within it (zonemap skip). neg and extreme-nn are the NULL-free int keys
// the typed join and grouping loops take: repeating negative values, and
// math.MinInt64 beside math.MaxInt64 in one column, so max − min
// overflows.
func refCol(t *testing.T, rng *rand.Rand, kind string, n int) *bat.BAT {
	t.Helper()
	ints := func(f func(i int) int64) []int64 {
		v := make([]int64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	var b *bat.BAT
	switch kind {
	case "int":
		b = bat.FromInts(ints(func(int) int64 { return rng.Int63n(9) - 4 }))
	case "extreme":
		ext := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		b = bat.FromInts(ints(func(int) int64 { return ext[rng.Intn(len(ext))] }))
	case "neg":
		return bat.FromInts(ints(func(int) int64 { return -rng.Int63n(9) - 1 }))
	case "extreme-nn":
		ext := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
		return bat.FromInts(ints(func(int) int64 { return ext[rng.Intn(len(ext))] }))
	case "oid":
		b = bat.FromOIDs(ints(func(int) int64 { return rng.Int63n(9) }))
	case "void":
		return bat.NewVoid(types.OID(rng.Intn(3)), n)
	case "float":
		fl := []float64{-1.5, math.Copysign(0, -1), 0, 2.25, math.NaN(), math.Inf(1), math.Inf(-1), 1e300}
		v := make([]float64, n)
		for i := range v {
			v[i] = fl[rng.Intn(len(fl))]
		}
		b = bat.FromFloats(v)
	case "intfloat":
		fl := []float64{-4, -1, math.Copysign(0, -1), 0, 1, 2, 7, 0.5, math.NaN(), 1 << 40}
		v := make([]float64, n)
		for i := range v {
			v[i] = fl[rng.Intn(len(fl))]
		}
		b = bat.FromFloats(v)
	case "str":
		words := []string{"", "a", "ab", "b", "ba", "\x00"}
		v := make([]string, n)
		for i := range v {
			v[i] = words[rng.Intn(len(words))]
		}
		b = bat.FromStrings(v)
	case "bool":
		v := make([]bool, n)
		for i := range v {
			v[i] = rng.Intn(2) == 0
		}
		b = bat.FromBools(v)
	case "const":
		return bat.FromInts(ints(func(int) int64 { return 7 }))
	case "asc", "asc-lazy", "desc":
		v, dir := int64(-40), int64(1)
		if kind == "desc" {
			v, dir = 1<<20, -1
		}
		b = bat.FromInts(ints(func(int) int64 {
			v += dir * rng.Int63n(3) // duplicates included
			return v
		}))
		if kind != "asc-lazy" {
			b.DeriveProps()
		}
		return b
	case "clustered":
		return bat.FromInts(ints(func(i int) int64 { return int64(i/bat.ZonemapSlab)*1000 + rng.Int63n(50) }))
	case "str-asc":
		v, k := make([]string, n), 0
		for i := range v {
			k += rng.Intn(2) // duplicates included
			v[i] = fmt.Sprintf("k%06d", k)
		}
		b = bat.FromStrings(v)
		b.DeriveProps()
		return b
	case "rle", "for":
		if n == 0 {
			return bat.FromInts(nil)
		}
		run := int64(0)
		plain := bat.FromInts(ints(func(i int) int64 {
			if kind == "for" {
				return 1<<40 + rng.Int63n(5)
			}
			if i%23 == 0 {
				run = rng.Int63n(5)
			}
			return run
		}))
		return encTwin(t, plain, n >= 300)
	default:
		t.Fatalf("unknown kind %s", kind)
	}
	for i := 0; i < n; i++ {
		if rng.Intn(8) == 0 {
			b.SetNull(i, true)
		}
	}
	return b
}

// refRowKey is the boxed row as a map key: NULL is one marker, a float
// its bits with -0.0 read as 0.0 (each NaN row unique), everything else
// its kind and text.
func refRowKey(cols []*bat.BAT, i int) string {
	var sb strings.Builder
	for _, c := range cols {
		v := c.Get(i)
		switch {
		case v.IsNull():
			sb.WriteString("N|")
		case v.Kind() == types.KindFloat && math.IsNaN(v.Float64()):
			fmt.Fprintf(&sb, "NaN@%d|", i)
		case v.Kind() == types.KindFloat:
			fmt.Fprintf(&sb, "F%x|", math.Float64bits(v.Float64()+0))
		default:
			fmt.Fprintf(&sb, "%s:%q|", v.Kind(), v.String())
		}
	}
	return sb.String()
}

// refGroup groups the rows listed in rows (base positions): gids per
// listed row, extents as base positions in first-occurrence order.
func refGroup(cols []*bat.BAT, rows []int) (gids, extents []int64) {
	ids := map[string]int64{}
	for _, r := range rows {
		k := refRowKey(cols, r)
		g, ok := ids[k]
		if !ok {
			g = int64(len(extents))
			ids[k] = g
			extents = append(extents, int64(r))
		}
		gids = append(gids, g)
	}
	return gids, extents
}

// refEq is the join's key equality on two boxed values: Value.Equal, so
// -0.0 meets 0.0 and an integer meets the float of its value.
func refEq(a, b types.Value) bool {
	return !a.IsNull() && !b.IsNull() && a.Equal(b)
}

// refJoin is the nested-loop equi-join over the listed rows, in (left,
// right) order; outer adds a NULL right position for unmatched left rows.
func refJoin(l, r []*bat.BAT, lrows, rrows []int, outer bool) (lo, ro []int64, rnull []bool) {
	for _, li := range lrows {
		matched := false
		for _, ri := range rrows {
			eq := true
			for k := range l {
				if !refEq(l[k].Get(li), r[k].Get(ri)) {
					eq = false
					break
				}
			}
			if eq {
				lo, ro, rnull = append(lo, int64(li)), append(ro, int64(ri)), append(rnull, false)
				matched = true
			}
		}
		if outer && !matched {
			lo, ro, rnull = append(lo, int64(li)), append(ro, 0), append(rnull, true)
		}
	}
	return lo, ro, rnull
}

// refCompare is Value.Compare (NULL first) with NaN above every number.
func refCompare(a, b types.Value) int {
	if !a.IsNull() && !b.IsNull() && a.Kind() == types.KindFloat {
		an, bn := math.IsNaN(a.Float64()), math.IsNaN(b.Float64())
		switch {
		case an && bn:
			return 0
		case an:
			return 1
		case bn:
			return -1
		}
	}
	return a.Compare(b)
}

// refOrder is the stable sort of all rows by the keys.
func refOrder(keys []*bat.BAT, specs []SortSpec) []int64 {
	n := keys[0].Len()
	idx := make([]int64, n)
	for i := range idx {
		idx[i] = int64(i)
	}
	sort.SliceStable(idx, func(x, y int) bool {
		a, b := int(idx[x]), int(idx[y])
		for k, key := range keys {
			c := refCompare(key.Get(a), key.Get(b))
			if specs[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return idx
}

func wantOIDs(t *testing.T, label string, got *bat.BAT, want []int64) {
	t.Helper()
	if got.Len() != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, got.Len(), len(want))
	}
	for i, w := range want {
		if int64(got.OidAt(i)) != w {
			t.Fatalf("%s: row %d is %d, want %d", label, i, got.OidAt(i), w)
		}
	}
}

// refKeyLists draws key lists: each kind alone, then random multi-key
// combinations.
func refKeyLists(rng *rand.Rand) [][]string {
	var lists [][]string
	for _, k := range refKinds {
		lists = append(lists, []string{k})
	}
	for i := 0; i < 12; i++ {
		l := make([]string, 2+rng.Intn(2))
		for j := range l {
			l[j] = refKinds[rng.Intn(len(refKinds))]
		}
		lists = append(lists, l)
	}
	return lists
}

func refCols(t *testing.T, rng *rand.Rand, kinds []string, n int) []*bat.BAT {
	cols := make([]*bat.BAT, len(kinds))
	for i, k := range kinds {
		cols[i] = refCol(t, rng, k, n)
	}
	return cols
}

// refCand draws a list of every row (none, or dense from 0 as an
// unfiltered table's) or a random ascending oid list over n rows, and
// returns the rows it lists.
func refCand(rng *rand.Rand, n int, use bool) (*bat.BAT, []int) {
	rows := make([]int, 0, n)
	if !use {
		for i := 0; i < n; i++ {
			rows = append(rows, i)
		}
		if rng.Intn(2) == 0 {
			return bat.NewVoid(0, n), rows
		}
		return nil, rows
	}
	oids := make([]int64, 0, n)
	for i := 0; i < n; i++ {
		if rng.Intn(3) != 0 {
			oids = append(oids, int64(i))
			rows = append(rows, i)
		}
	}
	c := bat.FromOIDs(oids)
	c.Sorted, c.Key = true, true
	return c, rows
}

// refWidths runs fn on a serial job and on a 4-wide one whose cutoff
// engages the pool on small inputs.
func refWidths(t *testing.T, fn func(label string, job *par.Job)) {
	fn("serial", par.NewJob(1, 0))
	fn("parallel", par.NewJob(4, 256))
}

func TestTypedGroupMatchesReference(t *testing.T) {
	const seed = 281
	rng := rand.New(rand.NewSource(seed))
	refWidths(t, func(width string, job *par.Job) {
		for _, n := range []int{0, 1, 7, 300, 3000} {
			for _, kinds := range refKeyLists(rng) {
				cols := refCols(t, rng, kinds, n)
				for _, useCand := range []bool{false, true} {
					cand, rows := refCand(rng, n, useCand)
					label := fmt.Sprintf("seed %d %s n=%d keys=%v cand=%v", seed, width, n, kinds, useCand)
					wantG, wantE := refGroup(cols, rows)
					res, err := Group(job, cols, cand)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if res.N != len(wantE) {
						t.Fatalf("%s: %d groups, want %d", label, res.N, len(wantE))
					}
					wantOIDs(t, label+" gids", res.GIDs, wantG)
					wantOIDs(t, label+" extents", res.Extents, wantE)
					u, err := Unique(job, cols, cand)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantOIDs(t, label+" unique", u, wantE)
				}
			}
		}
	})
}

// refMixedKeyLists pairs integer-class key lists on one side with float
// keys holding 0.0, -0.0, NaN and integral values on the other, both ways
// round, alone and beside a second key of one kind.
func refMixedKeyLists() [][2][]string {
	var lists [][2][]string
	for _, k := range []string{"int", "oid", "void", "const", "rle", "neg", "extreme-nn"} {
		lists = append(lists,
			[2][]string{{k}, {"intfloat"}},
			[2][]string{{"intfloat"}, {k}},
			[2][]string{{k, "bool"}, {"intfloat", "bool"}})
	}
	return lists
}

func TestTypedJoinMatchesReference(t *testing.T) {
	const seed = 282
	rng := rand.New(rand.NewSource(seed))
	refWidths(t, func(width string, job *par.Job) {
		for _, sz := range [][2]int{{0, 5}, {5, 0}, {1, 1}, {40, 9}, {9, 40}, {700, 60}, {60, 700}} {
			var sides [][2][]string
			for _, kinds := range refKeyLists(rng) {
				sides = append(sides, [2][]string{kinds, kinds})
			}
			for _, lr := range append(sides, refMixedKeyLists()...) {
				l := refCols(t, rng, lr[0], sz[0])
				r := refCols(t, rng, lr[1], sz[1])
				for _, useCand := range []bool{false, true} {
					lc, lrows := refCand(rng, sz[0], useCand)
					rc, rrows := refCand(rng, sz[1], useCand)
					label := fmt.Sprintf("seed %d %s %dx%d keys=%v cand=%v", seed, width, sz[0], sz[1], lr, useCand)

					wl, wr, _ := refJoin(l, r, lrows, rrows, false)
					li, ri, err := HashJoin(job, l, r, lc, rc)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantOIDs(t, label+" join left", li, wl)
					wantOIDs(t, label+" join right", ri, wr)

					wl, wr, wnull := refJoin(l, r, lrows, rrows, true)
					li, ri, err = LeftJoin(job, l, r, lc, rc)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					wantOIDs(t, label+" leftjoin left", li, wl)
					if ri.Len() != len(wr) {
						t.Fatalf("%s leftjoin right: %d rows, want %d", label, ri.Len(), len(wr))
					}
					for p := range wr {
						if ri.IsNull(p) != wnull[p] || !wnull[p] && int64(ri.OidAt(p)) != wr[p] {
							t.Fatalf("%s leftjoin right: row %d is %v, want %d (null %v)", label, p, ri.Get(p), wr[p], wnull[p])
						}
					}
				}
			}
		}
	})
}

// TestTypedJoinBucketSizes: the typed int-key join against a map-based
// reference at build sizes on both sides of the sparse bucket cap, with
// keys that repeat, are negative, and span the whole int64 range.
func TestTypedJoinBucketSizes(t *testing.T) {
	const seed = 284
	rng := rand.New(rand.NewSource(seed))
	ext := []int64{math.MinInt64, math.MaxInt64, -3, 0, 7}
	draw := func(n int) []int64 {
		v := make([]int64, n)
		for i := range v {
			if rng.Intn(4) == 0 {
				v[i] = ext[rng.Intn(len(ext))]
			} else {
				v[i] = rng.Int63n(3000) - 1500
			}
		}
		return v
	}
	limit := sparseMaxBuckets / sparseBuckets
	refWidths(t, func(width string, job *par.Job) {
		for _, nb := range []int{1, 100, limit, limit + 1, 5000} {
			lv, rv := draw(4000), draw(nb)
			where := map[int64][]int64{}
			for j, v := range rv {
				where[v] = append(where[v], int64(j))
			}
			var wl, wr []int64
			for i, v := range lv {
				for _, j := range where[v] {
					wl, wr = append(wl, int64(i)), append(wr, j)
				}
			}
			label := fmt.Sprintf("seed %d %s build=%d", seed, width, nb)
			li, ri, err := HashJoin(job, []*bat.BAT{bat.FromInts(lv)}, []*bat.BAT{bat.FromInts(rv)}, nil, nil)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantOIDs(t, label+" left", li, wl)
			wantOIDs(t, label+" right", ri, wr)
		}
	})
}

func TestTypedOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(283))
	for _, n := range []int{0, 1, 7, 300, 3000} {
		for _, kinds := range refKeyLists(rng) {
			cols := refCols(t, rng, kinds, n)
			specs := make([]SortSpec, len(kinds))
			for i := range specs {
				specs[i].Desc = rng.Intn(2) == 0
			}
			label := fmt.Sprintf("n=%d keys=%v specs=%v", n, kinds, specs)
			want := refOrder(cols, specs)
			got, err := OrderIdx(nil, cols, specs, -1)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			wantOIDs(t, label, got, want)
			// Bounded: k = 0, small, n and beyond, and an OFFSET slice.
			for _, k := range []int{0, 1, 3, n / 2, n, n + 5} {
				got, err := OrderIdx(nil, cols, specs, k)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantOIDs(t, fmt.Sprintf("%s limit %d", label, k), got, want[:min(k, n)])
			}
			if n >= 4 {
				off, cnt := n/4, n/3
				got, err := OrderIdx(nil, cols, specs, off+cnt)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				wantOIDs(t, label+" offset", got.Slice(off, off+cnt), want[off:off+cnt])
			}
		}
	}
}
