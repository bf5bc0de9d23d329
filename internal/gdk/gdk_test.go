package gdk

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/bat"
	"repro/internal/par"
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
		got, err := Arith(nil, op, B(l), B(r), nil)
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
	got, err := Arith(nil, "*", B(l), B(r), nil)
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
	if _, err := Arith(nil, "/", B(l), B(z), nil); err == nil {
		t.Error("int division by zero not detected")
	}
	if _, err := Arith(nil, "%", B(l), B(z), nil); err == nil {
		t.Error("int modulo by zero not detected")
	}
	fz := bat.FromFloats([]float64{0})
	if _, err := Arith(nil, "/", B(bat.FromFloats([]float64{1})), B(fz), nil); err == nil {
		t.Error("float division by zero not detected")
	}
	// NULL divisor rows do not trip the error.
	nz := bat.FromInts([]int64{0})
	nz.SetNull(0, true)
	if _, err := Arith(nil, "/", B(l), B(nz), nil); err != nil {
		t.Errorf("NULL divisor should not error: %v", err)
	}
}

func TestConstBroadcast(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 3})
	got, err := Arith(nil, "+", B(l), C(types.Int(10), 3), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints()[2] != 13 {
		t.Errorf("broadcast add wrong: %v", got.Ints())
	}
	got, err = Compare(nil, "<", C(types.Int(2), 3), B(l), nil)
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
	got, err := Compare(nil, "<", B(s1), B(s2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Bools()[0] || got.Bools()[1] {
		t.Errorf("string compare wrong: %v", got.Bools())
	}
	b1 := bat.FromBools([]bool{false, true})
	b2 := bat.FromBools([]bool{true, true})
	got, err = Compare(nil, "=", B(b1), B(b2), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Bools()[0] || !got.Bools()[1] {
		t.Errorf("bool compare wrong: %v", got.Bools())
	}
	if _, err := Compare(nil, "=", B(s1), B(b1), nil); err == nil {
		t.Error("str vs bool comparison should fail")
	}
}

func TestThreeValuedLogic(t *testing.T) {
	tri := bat.New(types.KindBool, 3) // true, false, null
	tri.AppendBool(true)
	tri.AppendBool(false)
	tri.AppendNull()
	tt, _ := bat.Filler(nil, 3, types.Bool(true), types.KindBool)
	ff, _ := bat.Filler(nil, 3, types.Bool(false), types.KindBool)

	and, err := And(nil, B(tri), B(tt), nil)
	if err != nil {
		t.Fatal(err)
	}
	// t AND t = t; f AND t = f; null AND t = null
	if !and.Bools()[0] || and.Bools()[1] || !and.IsNull(2) {
		t.Errorf("AND true: %v nulls=%v", and.Bools(), and.IsNull(2))
	}
	and, _ = And(nil, B(tri), B(ff), nil)
	// anything AND f = f (even null)
	for i := 0; i < 3; i++ {
		if and.IsNull(i) || and.Bools()[i] {
			t.Errorf("AND false row %d wrong", i)
		}
	}
	or, _ := Or(nil, B(tri), B(tt), nil)
	for i := 0; i < 3; i++ {
		if or.IsNull(i) || !or.Bools()[i] {
			t.Errorf("OR true row %d wrong", i)
		}
	}
	or, _ = Or(nil, B(tri), B(ff), nil)
	if !or.Bools()[0] || or.Bools()[1] || !or.IsNull(2) {
		t.Errorf("OR false wrong")
	}
	not, _ := Not(nil, B(tri), nil)
	if not.Bools()[0] || !not.Bools()[1] || !not.IsNull(2) {
		t.Errorf("NOT wrong")
	}
}

func TestIfThenElseNullCondPicksElse(t *testing.T) {
	cond := bat.New(types.KindBool, 3)
	cond.AppendBool(true)
	cond.AppendBool(false)
	cond.AppendNull()
	got, err := IfThenElse(nil, B(cond), C(types.Int(1), 3), C(types.Int(2), 3), nil)
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
	abs, err := UnaryNum(nil, "abs", B(x), nil)
	if err != nil {
		t.Fatal(err)
	}
	if abs.Ints()[0] != 3 || abs.Ints()[1] != 4 {
		t.Errorf("abs: %v", abs.Ints())
	}
	neg, _ := UnaryNum(nil, "-", B(x), nil)
	if neg.Ints()[0] != 3 || neg.Ints()[1] != -4 {
		t.Errorf("neg: %v", neg.Ints())
	}
	sq, err := UnaryNum(nil, "sqrt", B(bat.FromInts([]int64{16})), nil)
	if err != nil || sq.Floats()[0] != 4 {
		t.Errorf("sqrt: %v %v", sq, err)
	}
	if _, err := UnaryNum(nil, "sqrt", B(bat.FromInts([]int64{-1})), nil); err == nil {
		t.Error("sqrt(-1) should fail")
	}
}

func TestStringKernels(t *testing.T) {
	s := bat.FromStrings([]string{"Hello", "wörld"})
	up, err := StrUnary(nil, "upper", B(s), nil)
	if err != nil || up.Strs()[0] != "HELLO" {
		t.Errorf("upper: %v %v", up.Strs(), err)
	}
	ln, _ := StrUnary(nil, "length", B(s), nil)
	if ln.Ints()[0] != 5 {
		t.Errorf("length: %v", ln.Ints())
	}
	cc, err := Concat(nil, B(s), C(types.Str("!"), 2), nil)
	if err != nil || cc.Strs()[1] != "wörld!" {
		t.Errorf("concat: %v %v", cc.Strs(), err)
	}
	sub, err := Substring(nil, B(s), C(types.Int(2), 2), C(types.Int(3), 2), nil)
	if err != nil || sub.Strs()[0] != "ell" {
		t.Errorf("substring: %v %v", sub.Strs(), err)
	}
}

func TestLikeKernel(t *testing.T) {
	s := bat.FromStrings([]string{"apple", "banana", "cherry", ""})
	got, err := Like(nil, B(s), C(types.Str("%an%"), 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []bool{false, true, false, false}
	for i, w := range want {
		if got.Bools()[i] != w {
			t.Errorf("LIKE row %d = %v, want %v", i, got.Bools()[i], w)
		}
	}
	got, _ = Like(nil, B(s), C(types.Str("_pp%"), 4), nil)
	if !got.Bools()[0] || got.Bools()[1] {
		t.Error("underscore wildcard wrong")
	}
	got, _ = Like(nil, B(s), C(types.Str(""), 4), nil)
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
		got, err := Like(nil, B(col), C(types.Str(s), 1), nil)
		return err == nil && got.Bools()[0]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCastBATKernel(t *testing.T) {
	x := bat.FromFloats([]float64{1.9, -2.9})
	x.SetNull(1, true)
	got, err := CastBAT(nil, B(x), types.KindInt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.Ints()[0] != 1 || !got.IsNull(1) {
		t.Errorf("cast: %v null=%v", got.Ints(), got.IsNull(1))
	}
}

// castSources is one column per source kind, NULLs included, with values
// that every cast rule treats differently (unparseable strings, negative
// ints for oid, fractions and out-of-range floats for int).
func castSources() []*bat.BAT {
	mk := func(k types.Kind, vals ...types.Value) *bat.BAT {
		b := bat.New(k, len(vals))
		for _, v := range vals {
			if err := b.Append(v); err != nil {
				panic(err)
			}
		}
		return b
	}
	null := types.NullUnknown()
	return []*bat.BAT{
		mk(types.KindInt, types.Int(3), null, types.Int(-2), types.Int(0)),
		mk(types.KindOID, types.Oid(7), null, types.Oid(0), types.Oid(12)),
		mk(types.KindFloat, types.Float(2.75), null, types.Float(-0.5), types.Float(1e300)),
		mk(types.KindBool, types.Bool(true), null, types.Bool(false), types.Bool(true)),
		mk(types.KindStr, types.Str(" 42 "), null, types.Str("1.5"), types.Str("t"), types.Str("x")),
		mk(types.KindStr, types.Str("7"), null, types.Str("-3"), types.Str("0")),
		mk(types.KindFloat, null, null, null, null),
		bat.NewVoid(5, 4),
	}
}

// The typed cast kernel follows types.Value.Cast row by row: the same
// values, and the error of the first failing row.
func TestCastBATMatchesValueCast(t *testing.T) {
	for _, src := range castSources() {
		for _, k := range []types.Kind{types.KindInt, types.KindOID, types.KindFloat, types.KindBool, types.KindStr} {
			var wantErr error
			want := make([]types.Value, src.Len())
			for i := range want {
				if want[i], wantErr = src.Get(i).Cast(k); wantErr != nil {
					break
				}
			}
			got, err := CastBAT(nil, B(src), k, nil)
			if wantErr != nil || err != nil {
				if wantErr == nil || err == nil || err.Error() != wantErr.Error() {
					t.Errorf("%s column %v to %s: err = %v, want %v", src.ValueKind(), src, k, err, wantErr)
				}
				continue
			}
			if got.Kind() != k {
				t.Errorf("%s to %s: result kind %s", src.ValueKind(), k, got.Kind())
			}
			for i, w := range want {
				if g := got.Get(i); !g.Equal(w) || g.IsNull() != w.IsNull() {
					t.Errorf("%s to %s: row %d = %v, want %v", src.ValueKind(), k, i, g, w)
				}
			}
		}
	}
}

// IfThenElse picks row by row and casts the picked value to the branches'
// common kind; a NULL condition picks ELSE.
func TestIfThenElseMatchesRowPick(t *testing.T) {
	cond := bat.New(types.KindBool, 4)
	for _, v := range []types.Value{types.Bool(true), types.Bool(false), types.NullUnknown(), types.Bool(true)} {
		_ = cond.Append(v)
	}
	cols := castSources()
	branches := []Opnd{C(types.Int(9), 4), C(types.Float(0.5), 4), C(types.NullUnknown(), 4), C(types.Str("s"), 4), C(types.Bool(true), 4)}
	for _, c := range cols {
		branches = append(branches, B(c.Slice(0, 4)))
	}
	at := func(o Opnd, i int) types.Value {
		if o.IsConst() {
			return o.ConstValue()
		}
		return o.BAT().Get(i)
	}
	for _, a := range branches {
		for _, b := range branches {
			k, err := types.CommonKind(a.Kind(), b.Kind())
			got, gerr := IfThenElse(nil, B(cond), a, b, nil)
			if err != nil {
				if gerr == nil {
					t.Errorf("%s/%s branches: no error", a.Kind(), b.Kind())
				}
				continue
			}
			if gerr != nil {
				t.Fatalf("%s/%s branches: %v", a.Kind(), b.Kind(), gerr)
			}
			if k != types.KindVoid && got.ValueKind() != k {
				t.Errorf("%s/%s branches: result kind %s, want %s", a.Kind(), b.Kind(), got.ValueKind(), k)
			}
			for i := 0; i < 4; i++ {
				src := b
				if cond.Get(i).Equal(types.Bool(true)) {
					src = a
				}
				w, err := at(src, i).Cast(k)
				if err != nil {
					t.Fatal(err)
				}
				if g := got.Get(i); !g.Equal(w) || g.IsNull() != w.IsNull() {
					t.Errorf("%s/%s branches: row %d = %v, want %v", a.Kind(), b.Kind(), i, g, w)
				}
			}
		}
	}
}

// A column with out-of-range values in several morsels reports the lowest
// failing row at every thread count.
func TestCastBATLowestFailingRow(t *testing.T) {
	vals := make([]float64, 40000)
	for i := range vals {
		vals[i] = float64(i) / 3
	}
	vals[9000], vals[21000], vals[37000] = 1e19, math.NaN(), -2e19
	x := bat.FromFloats(vals)
	x.SetNull(5000, true)
	vals[5000] = 5e19 // a NULL row is never converted
	for _, threads := range []int{1, 2, 8} {
		job := par.NewJob(threads, 64)
		for run := 0; run < 20; run++ {
			_, err := CastBAT(job, B(x), types.KindInt, nil)
			if err == nil || err.Error() != "float 1e+19 out of integer range" {
				t.Fatalf("threads %d: err = %v, want the row 9000 error", threads, err)
			}
		}
	}
}

// --------------------------------------------------------------- select

func TestSelectBool(t *testing.T) {
	cond := bat.New(types.KindBool, 4)
	cond.AppendBool(true)
	cond.AppendBool(false)
	cond.AppendNull()
	cond.AppendBool(true)
	got, err := SelectBool(nil, cond, nil)
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
	got, err := ThetaSelect(nil, col, nil, types.Int(3), "=")
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.OidAt(0) != 1 || got.OidAt(1) != 3 {
		t.Errorf("eq: %v", got.Ints())
	}
	got, _ = ThetaSelect(nil, col, nil, types.Int(4), ">")
	if got.Len() != 2 {
		t.Errorf("gt: %v", got.Ints())
	}
	// Candidate restriction.
	cand := bat.FromOIDs([]int64{0, 1})
	got, _ = ThetaSelect(nil, col, cand, types.Int(3), ">=")
	if got.Len() != 2 {
		t.Errorf("cand: %v", got.Ints())
	}
	// NULL comparison value matches nothing.
	got, _ = ThetaSelect(nil, col, nil, types.NullUnknown(), "=")
	if got.Len() != 0 {
		t.Error("null theta value must match nothing")
	}
}

func TestRangeSelect(t *testing.T) {
	col := bat.FromInts([]int64{1, 5, 10, 15})
	got, err := RangeSelect(nil, col, nil, types.Int(5), types.Int(10))
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
			a, err := ThetaSelect(nil, col, nil, val, op)
			if err != nil {
				return false
			}
			mask, err := Compare(nil, op, B(col), C(val, n), nil)
			if err != nil {
				return false
			}
			b, err := SelectBool(nil, mask, nil)
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
	got, err := Project(nil, idx, col)
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
	got, err = Project(nil, idx2, col)
	if err != nil {
		t.Fatal(err)
	}
	if got.Strs()[0] != "b" || !got.IsNull(1) {
		t.Errorf("project null idx: %v", got.Strs())
	}
	// Out of range errors.
	bad := bat.FromOIDs([]int64{5})
	if _, err := Project(nil, bad, col); err == nil {
		t.Error("out-of-range index not caught")
	}
	// Dense identity fast path.
	dense := bat.NewVoid(0, 3)
	same, err := Project(nil, dense, col)
	if err != nil || same != col {
		t.Error("void identity should return the column unchanged")
	}
}

// ----------------------------------------------------------------- join

func TestHashJoinBasic(t *testing.T) {
	l := bat.FromInts([]int64{1, 2, 3, 2})
	r := bat.FromInts([]int64{2, 4, 2})
	li, ri, err := HashJoin(nil, []*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
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
	li, _, err := HashJoin(nil, []*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
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
	li, ri, err := HashJoin(nil, []*bat.BAT{l1, l2}, []*bat.BAT{r1, r2}, nil, nil)
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
	li, ri, err := LeftJoin(nil, []*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if li.Len() != 2 || !ri.IsNull(1) {
		t.Errorf("left join: %d pairs, null=%v", li.Len(), ri.IsNull(1))
	}
}

func TestCrossLimit(t *testing.T) {
	li, ri, err := Cross(nil, 3, 2)
	if err != nil || li.Len() != 6 || ri.Len() != 6 {
		t.Errorf("cross: %v", err)
	}
	if _, _, err := Cross(nil, 1<<15, 1<<15); err == nil {
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
		li, _, err := HashJoin(nil, []*bat.BAT{l}, []*bat.BAT{r}, nil, nil)
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
	res, err := Group(nil, []*bat.BAT{col}, nil)
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
	res, err := Group(nil, []*bat.BAT{col}, nil)
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
		res, err := Group(nil, []*bat.BAT{col}, nil)
		if err != nil {
			return false
		}
		counts, err := SubAggr(nil, AggCountAll, col, res.GIDs, res.N, nil)
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
	sum, err := SubAggr(nil, AggSum, vals, gids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Ints()[0] != 40 || sum.Ints()[1] != 20 {
		t.Errorf("sums: %v", sum.Ints())
	}
	cnt, _ := SubAggr(nil, AggCount, vals, gids, 2, nil)
	if cnt.Ints()[0] != 2 || cnt.Ints()[1] != 1 {
		t.Errorf("counts: %v", cnt.Ints())
	}
	all, _ := SubAggr(nil, AggCountAll, vals, gids, 2, nil)
	if all.Ints()[1] != 2 {
		t.Errorf("countall: %v", all.Ints())
	}
	avg, _ := SubAggr(nil, AggAvg, vals, gids, 2, nil)
	if avg.Floats()[0] != 20 || avg.Floats()[1] != 20 {
		t.Errorf("avgs: %v", avg.Floats())
	}
	mn, _ := SubAggr(nil, AggMin, vals, gids, 2, nil)
	mx, _ := SubAggr(nil, AggMax, vals, gids, 2, nil)
	if mn.Ints()[0] != 10 || mx.Ints()[0] != 30 {
		t.Errorf("min/max: %v %v", mn.Ints(), mx.Ints())
	}
}

func TestSubAggrEmptyGroup(t *testing.T) {
	vals := bat.New(types.KindInt, 1)
	vals.AppendNull()
	gids := bat.FromOIDs([]int64{0})
	sum, err := SubAggr(nil, AggSum, vals, gids, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !sum.IsNull(0) || !sum.IsNull(1) {
		t.Error("groups with no non-NULL input must be NULL")
	}
	cnt, _ := SubAggr(nil, AggCount, vals, gids, 2, nil)
	if cnt.Ints()[0] != 0 || cnt.Ints()[1] != 0 {
		t.Error("counts of empty groups must be 0")
	}
}

// TestTotalAggr runs an ungrouped aggregate the way a global aggregate
// compiles: one group spanning every row (array.fillerlike + aggr.sub).
func TestTotalAggr(t *testing.T) {
	total := func(agg AggKind, vals *bat.BAT) types.Value {
		t.Helper()
		gids, err := bat.Filler(nil, vals.Len(), types.Oid(0), types.KindOID)
		if err != nil {
			t.Fatal(err)
		}
		out, err := SubAggr(nil, agg, vals, gids, 1, nil)
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
	idx, err := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 2, 0}
	for i, w := range want {
		if int64(idx.OidAt(i)) != w {
			t.Errorf("idx[%d] = %d, want %d", i, idx.OidAt(i), w)
		}
	}
	desc, _ := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{Desc: true}}, -1)
	if desc.OidAt(0) != 0 {
		t.Errorf("desc first = %d", desc.OidAt(0))
	}
}

func TestOrderIdxStableMultiKey(t *testing.T) {
	k1 := bat.FromInts([]int64{1, 1, 0, 0})
	k2 := bat.FromStrings([]string{"b", "a", "b", "a"})
	idx, err := OrderIdx(nil, []*bat.BAT{k1, k2}, []SortSpec{{}, {}}, -1)
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
	idx, _ := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, -1)
	if idx.OidAt(0) != 1 {
		t.Errorf("nulls must sort first, got idx %v", idx.Ints())
	}
}

// TestFirstN checks LIMIT/OFFSET over an order: a bounded OrderIdx
// (offset + count rows) sliced at the offset, as algebra.sort + bat.slice
// run it, equals the full order's slice.
func TestFirstN(t *testing.T) {
	col := bat.FromInts([]int64{4, 0, 3, 1, 2})
	full, err := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, -1)
	if err != nil {
		t.Fatal(err)
	}
	top, err := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, 1+2)
	if err != nil {
		t.Fatal(err)
	}
	got := top.Slice(1, 3)
	if got.Len() != 2 || got.OidAt(0) != full.OidAt(1) || got.OidAt(1) != full.OidAt(2) {
		t.Errorf("firstn: %v, want %v", got.Ints(), full.Ints()[1:3])
	}
	if top, _ := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, 10+5); top.Len() != 5 {
		t.Errorf("a bound beyond the end keeps every row, got %d", top.Len())
	}
	if top, _ := OrderIdx(nil, []*bat.BAT{col}, []SortSpec{{}}, 0); top.Len() != 0 {
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

// TestKernelsHonourCancelledJob: a job that cancels itself in the middle
// of a kernel's loop makes the kernel return par.ErrCanceled. The job is
// one wide, so every plan is one serial chunk and only the kernel's own
// polling (every 4096 rows, or every few thousand comparisons) can see
// the cancel: it comes at the job's 8th check, within the first 32K of
// 128K rows. A kernel that checked the job only around its loop would
// finish and return no error.
func TestKernelsHonourCancelledJob(t *testing.T) {
	n := 1 << 17
	ints := make([]int64, n)
	strs := make([]string, n)
	for i := range ints {
		ints[i] = int64(i * 7919 % 1009)
		strs[i] = fmt.Sprint(ints[i])
	}
	k, s := bat.FromInts(ints), bat.FromStrings(strs)
	gids := bat.FromOIDs(append([]int64(nil), ints...))
	small := bat.FromInts(ints[:100]) // a build under the sparse bucket cap
	fl := make([]float64, n)
	for i, v := range ints {
		fl[i] = float64(v) + 0.5
	}
	f := bat.FromFloats(fl)
	half := bat.NewVoid(0, n/2)
	for name, run := range map[string]func(job *par.Job) error{
		"order int":    func(job *par.Job) error { _, err := OrderIdx(job, []*bat.BAT{k}, []SortSpec{{}}, -1); return err },
		"order top-n":  func(job *par.Job) error { _, err := OrderIdx(job, []*bat.BAT{k}, []SortSpec{{}}, 10); return err },
		"order string": func(job *par.Job) error { _, err := OrderIdx(job, []*bat.BAT{s}, []SortSpec{{}}, -1); return err },
		"order 2 keys": func(job *par.Job) error {
			_, err := OrderIdx(job, []*bat.BAT{k, s}, []SortSpec{{}, {}}, -1)
			return err
		},
		"group": func(job *par.Job) error { _, err := Group(job, []*bat.BAT{k}, nil); return err },
		"min":   func(job *par.Job) error { _, err := SubAggr(job, AggMin, k, gids, 1009, nil); return err },
		"sum":   func(job *par.Job) error { _, err := SubAggr(job, AggSum, k, gids, 1009, nil); return err },
		"count": func(job *par.Job) error { _, err := SubAggr(job, AggCountAll, nil, gids, 1009, nil); return err },
		"join": func(job *par.Job) error {
			_, _, err := HashJoin(job, []*bat.BAT{k}, []*bat.BAT{k}, nil, nil)
			return err
		},
		"left join": func(job *par.Job) error {
			_, _, err := LeftJoin(job, []*bat.BAT{k}, []*bat.BAT{k}, nil, nil)
			return err
		},
		"join small build": func(job *par.Job) error {
			_, _, err := HashJoin(job, []*bat.BAT{k}, []*bat.BAT{small}, nil, nil)
			return err
		},
		"group int key": func(job *par.Job) error { _, err := Group(job, []*bat.BAT{k}, half); return err },
		"group string":  func(job *par.Job) error { _, err := Group(job, []*bat.BAT{s}, nil); return err },
		"theta int":     func(job *par.Job) error { _, err := ThetaSelect(job, k, nil, types.Int(5), "="); return err },
		"theta float":   func(job *par.Job) error { _, err := ThetaSelect(job, f, half, types.Float(5), "<>"); return err },
		"range int": func(job *par.Job) error {
			_, err := RangeSelect(job, k, half, types.Int(100), types.Int(200))
			return err
		},
		"range float": func(job *par.Job) error {
			_, err := RangeSelect(job, f, nil, types.Float(100), types.Float(200))
			return err
		},
	} {
		job := par.NewJob(1, 0)
		job.CancelAtPoll(8)
		if err := run(job); !errors.Is(err, par.ErrCanceled) {
			t.Errorf("%s: err = %v, want par.ErrCanceled", name, err)
		}
	}
}

// TestOrderIdxCancelMidSort: a comparison sort cancelled while it runs
// unwinds with par.ErrCanceled.
func TestOrderIdxCancelMidSort(t *testing.T) {
	n := 1 << 20
	a, b := make([]int64, n), make([]string, n)
	for i := range a {
		a[i] = int64(i * 7919 % 101)
		b[i] = fmt.Sprint(i * 104729 % 1000003)
	}
	job := par.NewJob(0, 0)
	time.AfterFunc(5*time.Millisecond, job.Cancel)
	_, err := OrderIdx(job, []*bat.BAT{bat.FromInts(a), bat.FromStrings(b)}, []SortSpec{{}, {Desc: true}}, -1)
	if !errors.Is(err, par.ErrCanceled) {
		t.Fatalf("err = %v, want par.ErrCanceled", err)
	}
}
