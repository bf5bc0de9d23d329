package gdk

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bat"
	"repro/internal/types"
)

// ---------------------------------------------------------------- calc

func TestArithInt(t *testing.T) {
	l := bat.FromInts([]int64{10, 20, 30})
	r := bat.FromInts([]int64{3, 0, -5})
	r.SetNull(1, true)
	cases := map[string][]int64{
		"+": {13, 0, 25},
		"-": {7, 0, 35},
		"*": {30, 0, -150},
		"/": {3, 0, -6},
		"%": {1, 0, 0},
	}
	for op, want := range cases {
		got, err := Arith(op, B(l), B(r), nil)
		if err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if !got.IsNull(1) {
			t.Errorf("%s: NULL not propagated", op)
		}
		for _, i := range []int{0, 2} {
			if got.Ints()[i] != want[i] {
				t.Errorf("%s row %d = %d, want %d", op, i, got.Ints()[i], want[i])
			}
		}
	}
}

func TestArithFloatPromotion(t *testing.T) {
	l := bat.FromInts([]int64{1, 2})
	r := bat.FromFloats([]float64{0.5, 0.25})
	got, err := Arith("*", B(l), B(r), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind() != types.KindFloat || got.Floats()[0] != 0.5 || got.Floats()[1] != 0.5 {
		t.Errorf("got %v %v", got.Kind(), got.Floats())
	}
}

func TestDivisionByZeroErrors(t *testing.T) {
	l := bat.FromInts([]int64{1})
	z := bat.FromInts([]int64{0})
	if _, err := Arith("/", B(l), B(z), nil); err == nil {
		t.Error("int division by zero not detected")
	}
	if _, err := Arith("%", B(l), B(z), nil); err == nil {
		t.Error("int modulo by zero not detected")
	}
	fz := bat.FromFloats([]float64{0})
	if _, err := Arith("/", B(bat.FromFloats([]float64{1})), B(fz), nil); err == nil {
		t.Error("float division by zero not detected")
	}
	// NULL divisor rows do not trip the error.
	nz := bat.FromInts([]int64{0})
	nz.SetNull(0, true)
	if _, err := Arith("/", B(l), B(nz), nil); err != nil {
		t.Errorf("NULL divisor should not error: %v", err)
	}
}

func TestConstBroadcast(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 3})
	got, err := Arith("+", B(l), C(types.Int(10), 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints()[2] != 13 {
		t.Errorf("broadcast add wrong: %v", got.Ints())
	}
	got, err = Compare("<", C(types.Int(2), 3), B(l), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bools()[0] || got.Bools()[1] || !got.Bools()[2] {
		t.Errorf("broadcast compare wrong: %v", got.Bools())
	}
}

func TestCompareKinds(t *testing.T) {
	s1 := bat.FromStrings([]string{"a", "b"})
	s2 := bat.FromStrings([]string{"b", "b"})
	got, err := Compare("<", B(s1), B(s2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Bools()[0] || got.Bools()[1] {
		t.Errorf("string compare wrong: %v", got.Bools())
	}
	b1 := bat.FromBools([]bool{false, true})
	b2 := bat.FromBools([]bool{true, true})
	got, err = Compare("=", B(b1), B(b2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bools()[0] || !got.Bools()[1] {
		t.Errorf("bool compare wrong: %v", got.Bools())
	}
	if _, err := Compare("=", B(s1), B(b1), nil); err == nil {
		t.Error("str vs bool comparison should fail")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tri := bat.New(types.KindBool, 3) // true, false, null
	tri.AppendBool(true)
	tri.AppendBool(false)
	tri.AppendNull()
	tt, _ := bat.Filler(3, types.Bool(true), types.KindBool)
	ff, _ := bat.Filler(3, types.Bool(false), types.KindBool)

	and, err := And(B(tri), B(tt), nil)
	if err != nil {
		t.Fatal(err)
	}
	// t AND t = t; f AND t = f; null AND t = null
	if !and.Bools()[0] || and.Bools()[1] || !and.IsNull(2) {
		t.Errorf("AND true: %v nulls=%v", and.Bools(), and.IsNull(2))
	}
	and, _ = And(B(tri), B(ff), nil)
	// anything AND f = f (even null)
	for i := 0; i < 3; i++ {
		if and.IsNull(i) || and.Bools()[i] {
			t.Errorf("AND false row %d wrong", i)
		}
	}
	or, _ := Or(B(tri), B(tt), nil)
	for i := 0; i < 3; i++ {
		if or.IsNull(i) || !or.Bools()[i] {
			t.Errorf("OR true row %d wrong", i)
		}
	}
	or, _ = Or(B(tri), B(ff), nil)
	if !or.Bools()[0] || or.Bools()[1] || !or.IsNull(2) {
		t.Errorf("OR false wrong")
	}
	not, _ := Not(B(tri), nil)
	if not.Bools()[0] || !not.Bools()[1] || !not.IsNull(2) {
		t.Errorf("NOT wrong")
	}
}

func TestIfThenElseNullCondPicksElse(t *testing.T) {
	cond := bat.New(types.KindBool, 3)
	cond.AppendBool(true)
	cond.AppendBool(false)
	cond.AppendNull()
	got, err := IfThenElse(B(cond), C(types.Int(1), 3), C(types.Int(2), 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 2}
	for i, w := range want {
		if got.Ints()[i] != w {
			t.Errorf("row %d = %d, want %d", i, got.Ints()[i], w)
		}
	}
}

func TestUnaryOps(t *testing.T) {
	x := bat.FromInts([]int64{-3, 4})
	abs, err := UnaryNum("abs", B(x), nil)
	if err != nil {
		t.Fatal(err)
	}
	if abs.Ints()[0] != 3 || abs.Ints()[1] != 4 {
		t.Errorf("abs: %v", abs.Ints())
	}
	neg, _ := UnaryNum("-", B(x), nil)
	if neg.Ints()[0] != 3 || neg.Ints()[1] != -4 {
		t.Errorf("neg: %v", neg.Ints())
	}
	sq, err := UnaryNum("sqrt", B(bat.FromInts([]int64{16})), nil)
	if err != nil || sq.Floats()[0] != 4 {
		t.Errorf("sqrt: %v %v", sq, err)
	}
	if _, err := UnaryNum("sqrt", B(bat.FromInts([]int64{-1})), nil); err == nil {
		t.Error("sqrt(-1) should fail")
	}
}

func TestStringKernels(t *testing.T) {
	s := bat.FromStrings([]string{"Hello", "wörld"})
	up, err := StrUnary("upper", B(s), nil)
	if err != nil || up.Strs()[0] != "HELLO" {
		t.Errorf("upper: %v %v", up.Strs(), err)
	}
	ln, _ := StrUnary("length", B(s), nil)
	if ln.Ints()[0] != 5 {
		t.Errorf("length: %v", ln.Ints())
	}
	cc, err := Concat(B(s), C(types.Str("!"), 2), nil)
	if err != nil || cc.Strs()[1] != "wörld!" {
		t.Errorf("concat: %v %v", cc.Strs(), err)
	}
	sub, err := Substring(B(s), C(types.Int(2), 2), C(types.Int(3), 2), nil)
	if err != nil || sub.Strs()[0] != "ell" {
		t.Errorf("substring: %v %v", sub.Strs(), err)
	}
}

func TestLikeKernel(t *testing.T) {
	s := bat.FromStrings([]string{"apple", "banana", "cherry", ""})
	got, err := Like(B(s), C(types.Str("%an%"), 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, false}
	for i, w := range want {
		if got.Bools()[i] != w {
			t.Errorf("LIKE row %d = %v, want %v", i, got.Bools()[i], w)
		}
	}
	got, _ = Like(B(s), C(types.Str("_pp%"), 4), nil)
	if !got.Bools()[0] || got.Bools()[1] {
		t.Error("underscore wildcard wrong")
	}
	got, _ = Like(B(s), C(types.Str(""), 4), nil)
	if got.Bools()[0] || !got.Bools()[3] {
		t.Error("empty pattern matches only empty string")
	}
}

func TestLikeProperty(t *testing.T) {
	// Property: s LIKE s (no wildcards in s) is always true.
	f := func(raw string) bool {
		s := ""
		for _, r := range raw {
			if r != '%' && r != '_' {
				s += string(r)
			}
		}
		col := bat.FromStrings([]string{s})
		got, err := Like(B(col), C(types.Str(s), 1), nil)
		return err == nil && got.Bools()[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCastBATKernel(t *testing.T) {
	x := bat.FromFloats([]float64{1.9, -2.9})
	x.SetNull(1, true)
	got, err := CastBAT(B(x), types.KindInt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints()[0] != 1 || !got.IsNull(1) {
		t.Errorf("cast: %v null=%v", got.Ints(), got.IsNull(1))
	}
}

// --------------------------------------------------------------- select

func TestSelectBool(t *testing.T) {
	cond := bat.New(types.KindBool, 4)
	cond.AppendBool(true)
	cond.AppendBool(false)
	cond.AppendNull()
	cond.AppendBool(true)
	got, err := SelectBool(cond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.OidAt(0) != 0 || got.OidAt(1) != 3 {
		t.Errorf("selected %v", got.Ints())
	}
}

func TestThetaSelectKernel(t *testing.T) {
	col := bat.FromInts([]int64{5, 3, 8, 3, 1})
	col.SetNull(4, true)
	got, err := ThetaSelect(col, nil, types.Int(3), "=")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.OidAt(0) != 1 || got.OidAt(1) != 3 {
		t.Errorf("eq: %v", got.Ints())
	}
	got, _ = ThetaSelect(col, nil, types.Int(4), ">")
	if got.Len() != 2 {
		t.Errorf("gt: %v", got.Ints())
	}
	// Candidate restriction.
	cand := bat.FromOIDs([]int64{0, 1})
	got, _ = ThetaSelect(col, cand, types.Int(3), ">=")
	if got.Len() != 2 {
		t.Errorf("cand: %v", got.Ints())
	}
	// NULL comparison value matches nothing.
	got, _ = ThetaSelect(col, nil, types.NullUnknown(), "=")
	if got.Len() != 0 {
		t.Error("null theta value must match nothing")
	}
}

func TestRangeSelect(t *testing.T) {
	col := bat.FromInts([]int64{1, 5, 10, 15})
	got, err := RangeSelect(col, nil, types.Int(5), types.Int(10))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.OidAt(0) != 1 || got.OidAt(1) != 2 {
		t.Errorf("between: %v", got.Ints())
	}
}

func TestThetaVsCompareProperty(t *testing.T) {
	// Property: ThetaSelect equals Compare+SelectBool for every operator.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(50) + 1
		col := bat.New(types.KindInt, n)
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				col.AppendNull()
			} else {
				col.AppendInt(int64(rng.Intn(20)))
			}
		}
		val := types.Int(int64(rng.Intn(20)))
		for _, op := range []string{"=", "<>", "<", "<=", ">", ">="} {
			a, err := ThetaSelect(col, nil, val, op)
			if err != nil {
				return false
			}
			mask, err := Compare(op, B(col), C(val, n), nil)
			if err != nil {
				return false
			}
			b, err := SelectBool(mask, nil)
			if err != nil {
				return false
			}
			if a.Len() != b.Len() {
				return false
			}
			for i := 0; i < a.Len(); i++ {
				if a.OidAt(i) != b.OidAt(i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// -------------------------------------------------------------- project

func TestProject(t *testing.T) {
	col := bat.FromStrings([]string{"a", "b", "c"})
	idx := bat.FromOIDs([]int64{2, 0, 2})
	got, err := Project(idx, col)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strs()[0] != "c" || got.Strs()[1] != "a" || got.Strs()[2] != "c" {
		t.Errorf("project: %v", got.Strs())
	}
	// NULL index entries produce NULL rows (outer joins).
	idx2 := bat.New(types.KindOID, 2)
	idx2.AppendInt(1)
	idx2.AppendNull()
	got, err = Project(idx2, col)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strs()[0] != "b" || !got.IsNull(1) {
		t.Errorf("project null idx: %v", got.Strs())
	}
	// Out of range errors.
	bad := bat.FromOIDs([]int64{5})
	if _, err := Project(bad, col); err == nil {
		t.Error("out-of-range index not caught")
	}
	// Dense identity fast path.
	dense := bat.NewVoid(0, 3)
	same, err := Project(dense, col)
	if err != nil || same != col {
		t.Error("void identity should return the column unchanged")
	}
}

// ----------------------------------------------------------------- join

func TestHashJoinBasic(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 3, 2})
	r := bat.FromInts([]int64{2, 4, 2})
	li, ri, err := HashJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// matches: l1-r0, l1-r2, l3-r0, l3-r2 (order by left position)
	if li.Len() != 4 {
		t.Fatalf("join produced %d pairs", li.Len())
	}
	for i := 0; i < li.Len(); i++ {
		lv := l.Ints()[li.OidAt(i)]
		rv := r.Ints()[ri.OidAt(i)]
		if lv != rv {
			t.Errorf("pair %d: %d != %d", i, lv, rv)
		}
	}
}

func TestHashJoinNullsNeverMatch(t *testing.T) {
	l := bat.FromInts([]int64{1, 0})
	l.SetNull(1, true)
	r := bat.FromInts([]int64{0, 1})
	r.SetNull(0, true)
	li, _, err := HashJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != 1 {
		t.Errorf("expected 1 match, got %d", li.Len())
	}
}

func TestHashJoinMultiKey(t *testing.T) {
	l1 := bat.FromInts([]int64{1, 1, 2})
	l2 := bat.FromStrings([]string{"a", "b", "a"})
	r1 := bat.FromInts([]int64{1, 2})
	r2 := bat.FromStrings([]string{"b", "a"})
	li, ri, err := HashJoin([]*bat.BAT{l1, l2}, []*bat.BAT{r1, r2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != 2 {
		t.Fatalf("got %d pairs", li.Len())
	}
	if li.OidAt(0) != 1 || ri.OidAt(0) != 0 {
		t.Errorf("first pair (%d,%d)", li.OidAt(0), ri.OidAt(0))
	}
}

func TestLeftJoinKeepsUnmatched(t *testing.T) {
	l := bat.FromInts([]int64{1, 9})
	r := bat.FromInts([]int64{1})
	li, ri, err := LeftJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != 2 || !ri.IsNull(1) {
		t.Errorf("left join: %d pairs, null=%v", li.Len(), ri.IsNull(1))
	}
}

func TestCrossLimit(t *testing.T) {
	li, ri, err := Cross(3, 2)
	if err != nil || li.Len() != 6 || ri.Len() != 6 {
		t.Errorf("cross: %v", err)
	}
	if _, _, err := Cross(1<<15, 1<<15); err == nil {
		t.Error("oversized cross product not rejected")
	}
}

func TestJoinProperty(t *testing.T) {
	// Property: |join| equals the nested-loop count.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nl, nr := rng.Intn(30)+1, rng.Intn(30)+1
		l := bat.New(types.KindInt, nl)
		for i := 0; i < nl; i++ {
			l.AppendInt(int64(rng.Intn(5)))
		}
		r := bat.New(types.KindInt, nr)
		for i := 0; i < nr; i++ {
			r.AppendInt(int64(rng.Intn(5)))
		}
		li, _, err := HashJoin([]*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
		if err != nil {
			return false
		}
		count := 0
		for i := 0; i < nl; i++ {
			for j := 0; j < nr; j++ {
				if l.Ints()[i] == r.Ints()[j] {
					count++
				}
			}
		}
		return li.Len() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ---------------------------------------------------------------- group

func TestGroupBasic(t *testing.T) {
	col := bat.FromInts([]int64{5, 3, 5, 3, 7})
	res, err := Group([]*bat.BAT{col}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 3 {
		t.Fatalf("groups = %d", res.N)
	}
	// First-occurrence order: 5 → 0, 3 → 1, 7 → 2.
	want := []int64{0, 1, 0, 1, 2}
	for i, w := range want {
		if int64(res.GIDs.OidAt(i)) != w {
			t.Errorf("gid[%d] = %d, want %d", i, res.GIDs.OidAt(i), w)
		}
	}
}

func TestGroupNullsGroupTogether(t *testing.T) {
	col := bat.New(types.KindInt, 4)
	col.AppendNull()
	col.AppendInt(1)
	col.AppendNull()
	col.AppendInt(1)
	res, err := Group([]*bat.BAT{col}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.N != 2 {
		t.Errorf("groups = %d, want 2", res.N)
	}
	if res.GIDs.OidAt(0) != res.GIDs.OidAt(2) {
		t.Error("nulls must share a group")
	}
}

func TestGroupCountInvariant(t *testing.T) {
	// Property: group sizes sum to the input size.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(100) + 1
		col := bat.New(types.KindInt, n)
		for i := 0; i < n; i++ {
			if rng.Intn(10) == 0 {
				col.AppendNull()
			} else {
				col.AppendInt(int64(rng.Intn(8)))
			}
		}
		res, err := Group([]*bat.BAT{col}, nil)
		if err != nil {
			return false
		}
		counts, err := SubAggr(AggCountAll, col, res.GIDs, res.N, nil)
		if err != nil {
			return false
		}
		sum := int64(0)
		for i := 0; i < counts.Len(); i++ {
			sum += counts.Ints()[i]
		}
		return sum == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// ----------------------------------------------------------------- aggr

func TestSubAggr(t *testing.T) {
	vals := bat.FromInts([]int64{10, 20, 30, 40})
	vals.SetNull(3, true)
	gids := bat.FromOIDs([]int64{0, 1, 0, 1})
	sum, err := SubAggr(AggSum, vals, gids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ints()[0] != 40 || sum.Ints()[1] != 20 {
		t.Errorf("sums: %v", sum.Ints())
	}
	cnt, _ := SubAggr(AggCount, vals, gids, 2, nil)
	if cnt.Ints()[0] != 2 || cnt.Ints()[1] != 1 {
		t.Errorf("counts: %v", cnt.Ints())
	}
	all, _ := SubAggr(AggCountAll, vals, gids, 2, nil)
	if all.Ints()[1] != 2 {
		t.Errorf("countall: %v", all.Ints())
	}
	avg, _ := SubAggr(AggAvg, vals, gids, 2, nil)
	if avg.Floats()[0] != 20 || avg.Floats()[1] != 20 {
		t.Errorf("avgs: %v", avg.Floats())
	}
	mn, _ := SubAggr(AggMin, vals, gids, 2, nil)
	mx, _ := SubAggr(AggMax, vals, gids, 2, nil)
	if mn.Ints()[0] != 10 || mx.Ints()[0] != 30 {
		t.Errorf("min/max: %v %v", mn.Ints(), mx.Ints())
	}
}

func TestSubAggrEmptyGroup(t *testing.T) {
	vals := bat.New(types.KindInt, 1)
	vals.AppendNull()
	gids := bat.FromOIDs([]int64{0})
	sum, err := SubAggr(AggSum, vals, gids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.IsNull(0) || !sum.IsNull(1) {
		t.Error("groups with no non-NULL input must be NULL")
	}
	cnt, _ := SubAggr(AggCount, vals, gids, 2, nil)
	if cnt.Ints()[0] != 0 || cnt.Ints()[1] != 0 {
		t.Error("counts of empty groups must be 0")
	}
}

// TestTotalAggr runs an ungrouped aggregate the way a global aggregate
// compiles: one group spanning every row (array.fillerlike + aggr.sub).
func TestTotalAggr(t *testing.T) {
	total := func(agg AggKind, vals *bat.BAT) types.Value {
		t.Helper()
		gids, err := bat.Filler(vals.Len(), types.Oid(0), types.KindOID)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SubAggr(agg, vals, gids, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Get(0)
	}
	if v := total(AggAvg, bat.FromFloats([]float64{1.5, 2.5})); v.Float64() != 2 {
		t.Errorf("avg: %v", v)
	}
	if mx := total(AggMax, bat.FromStrings([]string{"a", "c", "b"})); mx.StrVal() != "c" {
		t.Errorf("max str: %v", mx)
	}
}

// ----------------------------------------------------------------- sort

func TestOrderIdx(t *testing.T) {
	col := bat.FromInts([]int64{3, 1, 2})
	idx, err := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 0}
	for i, w := range want {
		if int64(idx.OidAt(i)) != w {
			t.Errorf("idx[%d] = %d, want %d", i, idx.OidAt(i), w)
		}
	}
	desc, _ := OrderIdx([]*bat.BAT{col}, []SortSpec{{Desc: true}}, -1)
	if desc.OidAt(0) != 0 {
		t.Errorf("desc first = %d", desc.OidAt(0))
	}
}

func TestOrderIdxStableMultiKey(t *testing.T) {
	k1 := bat.FromInts([]int64{1, 1, 0, 0})
	k2 := bat.FromStrings([]string{"b", "a", "b", "a"})
	idx, err := OrderIdx([]*bat.BAT{k1, k2}, []SortSpec{{}, {}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{3, 2, 1, 0}
	for i, w := range want {
		if int64(idx.OidAt(i)) != w {
			t.Errorf("idx[%d] = %d, want %d", i, idx.OidAt(i), w)
		}
	}
}

func TestOrderNullsFirst(t *testing.T) {
	col := bat.New(types.KindInt, 3)
	col.AppendInt(5)
	col.AppendNull()
	col.AppendInt(1)
	idx, _ := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, -1)
	if idx.OidAt(0) != 1 {
		t.Errorf("nulls must sort first, got idx %v", idx.Ints())
	}
}

// TestFirstN checks LIMIT/OFFSET over an order: a bounded OrderIdx
// (offset + count rows) sliced at the offset, as algebra.sort + bat.slice
// run it, equals the full order's slice.
func TestFirstN(t *testing.T) {
	col := bat.FromInts([]int64{4, 0, 3, 1, 2})
	full, err := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	top, err := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, 1+2)
	if err != nil {
		t.Fatal(err)
	}
	got := top.Slice(1, 3)
	if got.Len() != 2 || got.OidAt(0) != full.OidAt(1) || got.OidAt(1) != full.OidAt(2) {
		t.Errorf("firstn: %v, want %v", got.Ints(), full.Ints()[1:3])
	}
	if top, _ := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, 10+5); top.Len() != 5 {
		t.Errorf("a bound beyond the end keeps every row, got %d", top.Len())
	}
	if top, _ := OrderIdx([]*bat.BAT{col}, []SortSpec{{}}, 0); top.Len() != 0 {
		t.Error("bound 0 should be empty")
	}
}

// ----------------------------------------------------------------- slab

func TestSlabCandidates(t *testing.T) {
	sh := fig1cShape() // 4x4
	cand, err := SlabCandidates(sh, []int{1, 1}, []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if cand.Len() != 4 {
		t.Fatalf("slab has %d cells", cand.Len())
	}
	want := []int64{5, 6, 9, 10} // (1,1),(1,2),(2,1),(2,2) row-major
	for i, w := range want {
		if int64(cand.OidAt(i)) != w {
			t.Errorf("cand[%d] = %d, want %d", i, cand.OidAt(i), w)
		}
	}
	// Clipping and empty slabs.
	cand, _ = SlabCandidates(sh, []int{-5, 0}, []int{0, 10})
	if cand.Len() != 4 {
		t.Errorf("clipped slab has %d cells, want 4", cand.Len())
	}
	cand, _ = SlabCandidates(sh, []int{3, 3}, []int{1, 1})
	if cand.Len() != 0 {
		t.Error("inverted bounds must be empty")
	}
}

func TestSlabMatchesScanFilter(t *testing.T) {
	// Property: slab candidates equal the scan-based selection.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nx, ny := rng.Intn(6)+1, rng.Intn(6)+1
		sh := []struct{ lo, hi int }{
			{rng.Intn(nx), rng.Intn(nx)},
			{rng.Intn(ny), rng.Intn(ny)},
		}
		shape2 := fig1cShape()
		shape2[0].Stop = int64(nx)
		shape2[1].Stop = int64(ny)
		cand, err := SlabCandidates(shape2, []int{sh[0].lo, sh[1].lo}, []int{sh[0].hi, sh[1].hi})
		if err != nil {
			return false
		}
		var want []int64
		coords := make([]int64, 2)
		for p := 0; p < shape2.Cells(); p++ {
			shape2.Coords(p, coords)
			if coords[0] >= int64(sh[0].lo) && coords[0] <= int64(sh[0].hi) &&
				coords[1] >= int64(sh[1].lo) && coords[1] <= int64(sh[1].hi) {
				want = append(want, int64(p))
			}
		}
		if cand.Len() != len(want) {
			return false
		}
		for i, w := range want {
			if int64(cand.OidAt(i)) != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

func TestUnique(t *testing.T) {
	col := bat.FromInts([]int64{1, 2, 1, 3, 2})
	ext, err := Unique([]*bat.BAT{col}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ext.Len() != 3 || ext.OidAt(0) != 0 || ext.OidAt(1) != 1 || ext.OidAt(2) != 3 {
		t.Errorf("unique: %v", ext.Ints())
	}
}
