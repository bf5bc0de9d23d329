package bat

import (
	"bytes"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/types"
)

func TestVoidBAT(t *testing.T) {
	b := NewVoid(10, 5)
	if b.Len() != 5 {
		t.Fatalf("len = %d, want 5", b.Len())
	}
	for i := 0; i < 5; i++ {
		if got := b.OidAt(i); got != types.OID(10+i) {
			t.Errorf("OidAt(%d) = %d, want %d", i, got, 10+i)
		}
	}
	m := b.Materialize()
	if m.Kind() != types.KindOID || m.Len() != 5 || m.Ints()[4] != 14 {
		t.Errorf("materialize: got %v %v", m.Kind(), m.Ints())
	}
}

func TestAppendGetRoundtrip(t *testing.T) {
	cases := []struct {
		kind types.Kind
		vals []types.Value
	}{
		{types.KindInt, []types.Value{types.Int(1), types.Null(types.KindInt), types.Int(-7)}},
		{types.KindFloat, []types.Value{types.Float(1.5), types.Null(types.KindFloat), types.Float(-0.25)}},
		{types.KindBool, []types.Value{types.Bool(true), types.Null(types.KindBool), types.Bool(false)}},
		{types.KindStr, []types.Value{types.Str("a"), types.Null(types.KindStr), types.Str("")}},
	}
	for _, c := range cases {
		b := New(c.kind, 0)
		for _, v := range c.vals {
			if err := b.Append(v); err != nil {
				t.Fatalf("%s append: %v", c.kind, err)
			}
		}
		if b.Len() != len(c.vals) {
			t.Fatalf("%s len = %d", c.kind, b.Len())
		}
		for i, want := range c.vals {
			got := b.Get(i)
			if !got.Equal(want) {
				t.Errorf("%s Get(%d) = %v, want %v", c.kind, i, got, want)
			}
		}
	}
}

func TestReplacePunchesAndFills(t *testing.T) {
	b := FromInts([]int64{1, 2, 3})
	if err := b.Replace(1, types.Null(types.KindInt)); err != nil {
		t.Fatal(err)
	}
	if !b.IsNull(1) {
		t.Error("expected hole at 1")
	}
	if err := b.Replace(1, types.Int(42)); err != nil {
		t.Fatal(err)
	}
	if b.IsNull(1) || b.Get(1).Int64() != 42 {
		t.Errorf("expected 42 at 1, got %v (null=%v)", b.Get(1), b.IsNull(1))
	}
}

func TestSliceAndClone(t *testing.T) {
	b := FromInts([]int64{0, 1, 2, 3, 4})
	b.SetNull(2, true)
	s := b.Slice(1, 4)
	if s.Len() != 3 || s.Get(0).Int64() != 1 || !s.IsNull(1) || s.Get(2).Int64() != 3 {
		t.Errorf("slice wrong: %v %v %v", s.Get(0), s.IsNull(1), s.Get(2))
	}
	c := b.Clone()
	c.Replace(0, types.Int(99))
	if b.Get(0).Int64() == 99 {
		t.Error("clone aliases original")
	}
}

func TestSeriesFig3(t *testing.T) {
	// The paper's Fig. 3: a 4x4 matrix(x, y) stored as three BATs built by
	//   x: array.series(0,1,4,4,1);
	//   y: array.series(0,1,4,1,4);
	//   v: array.filler(16,0);
	x, err := Series(0, 1, 4, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	y, err := Series(0, 1, 4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	v, err := Filler(nil, 16, types.Int(0), types.KindInt)
	if err != nil {
		t.Fatal(err)
	}
	wantX := []int64{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3}
	wantY := []int64{0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3}
	if x.Len() != 16 || y.Len() != 16 || v.Len() != 16 {
		t.Fatalf("lengths: %d %d %d", x.Len(), y.Len(), v.Len())
	}
	for i := 0; i < 16; i++ {
		if x.Ints()[i] != wantX[i] {
			t.Errorf("x[%d] = %d, want %d", i, x.Ints()[i], wantX[i])
		}
		if y.Ints()[i] != wantY[i] {
			t.Errorf("y[%d] = %d, want %d", i, y.Ints()[i], wantY[i])
		}
		if v.Ints()[i] != 0 {
			t.Errorf("v[%d] = %d, want 0", i, v.Ints()[i])
		}
	}
}

func TestSeriesLen(t *testing.T) {
	cases := []struct {
		start, step, stop int64
		want              int
	}{
		{0, 1, 4, 4},
		{0, 2, 4, 2},
		{0, 2, 5, 3},
		{-1, 1, 5, 6},
		{4, -1, 0, 4},
		{0, 1, 0, 0},
		{5, 1, 2, 0},
	}
	for _, c := range cases {
		got, err := SeriesLen(c.start, c.step, c.stop)
		if err != nil {
			t.Fatalf("SeriesLen(%d,%d,%d): %v", c.start, c.step, c.stop, err)
		}
		if got != c.want {
			t.Errorf("SeriesLen(%d,%d,%d) = %d, want %d", c.start, c.step, c.stop, got, c.want)
		}
	}
	if _, err := SeriesLen(0, 0, 4); err == nil {
		t.Error("zero step should error")
	}
}

func TestSeriesProperty(t *testing.T) {
	// Property: Series(start,step,stop,n,m) has length len*n*m and every
	// value lies on the step grid within [start, stop).
	f := func(start int8, step uint8, span uint8, n8, m8 uint8) bool {
		st := int64(start)
		sp := int64(step%5) + 1
		stop := st + int64(span%40)
		n := int(n8%3) + 1
		m := int(m8%3) + 1
		b, err := Series(st, sp, stop, n, m)
		if err != nil {
			return false
		}
		l, _ := SeriesLen(st, sp, stop)
		if b.Len() != l*n*m {
			return false
		}
		for i := 0; i < b.Len(); i++ {
			v := b.Ints()[i]
			if v < st || v >= stop || (v-st)%sp != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestFillerNull(t *testing.T) {
	b, err := Filler(nil, 4, types.NullUnknown(), types.KindFloat)
	if err != nil {
		t.Fatal(err)
	}
	if b.NullCount() != 4 {
		t.Errorf("null count = %d, want 4", b.NullCount())
	}
}

func TestIORoundtrip(t *testing.T) {
	mk := func() []*BAT {
		a := FromInts([]int64{1, 2, 3})
		a.SetNull(1, true)
		b := FromFloats([]float64{1.5, -2.25})
		c := FromStrings([]string{"hello", "", "wörld"})
		c.SetNull(2, true)
		d := FromBools([]bool{true, false, true})
		e := NewVoid(7, 12)
		return []*BAT{a, b, c, d, e}
	}
	for i, b := range mk() {
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("bat %d write: %v", i, err)
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("bat %d read: %v", i, err)
		}
		if got.Len() != b.Len() || got.Kind() != b.Kind() {
			t.Fatalf("bat %d: shape mismatch", i)
		}
		for j := 0; j < b.Len(); j++ {
			if !got.Get(j).Equal(b.Get(j)) {
				t.Errorf("bat %d row %d: got %v want %v", i, j, got.Get(j), b.Get(j))
			}
		}
	}
}

func TestIODetectsCorruption(t *testing.T) {
	b := FromInts([]int64{1, 2, 3, 4})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-6] ^= 0xFF // flip a payload byte
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Error("corrupted stream not detected")
	}
}

func TestIOFileRoundtrip(t *testing.T) {
	dir := t.TempDir()
	b := FromStrings([]string{"x", "y"})
	path := dir + "/test.bat"
	if err := b.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 || got.Strs()[1] != "y" {
		t.Errorf("file roundtrip mismatch: %v", got.Strs())
	}
}

func TestBitmap(t *testing.T) {
	bm := NewBitmap(0)
	bm.Set(100, true)
	if !bm.Get(100) || bm.Get(99) || bm.Len() != 101 {
		t.Errorf("grow/set wrong: len=%d", bm.Len())
	}
	if bm.Count() != 1 {
		t.Errorf("count = %d, want 1", bm.Count())
	}
	bm.Resize(100)
	if bm.Count() != 0 || bm.Any() {
		t.Errorf("resize should drop the set bit: count=%d", bm.Count())
	}
	var nilBm *Bitmap
	if nilBm.Get(3) || nilBm.Any() || nilBm.Count() != 0 || nilBm.Clone() != nil {
		t.Error("nil bitmap misbehaves")
	}
}

// TestAppendNullAmortised: a NULL-carrying append loop grows the mask
// geometrically, so 10 000 AppendNull calls cost O(log n) allocations,
// not one reallocation per 64 rows.
func TestAppendNullAmortised(t *testing.T) {
	const n = 10000
	allocs := testing.AllocsPerRun(5, func() {
		b := New(types.KindInt, 0)
		for i := 0; i < n; i++ {
			b.AppendNull()
		}
	})
	if limit := float64(4 * bits.Len(n)); allocs > limit {
		t.Fatalf("%d AppendNull calls made %.0f allocations, want at most %.0f", n, allocs, limit)
	}
}

// TestBitmapRegrowClears: bits a shrinking Resize cut off stay cleared
// when the bitmap grows back into the same capacity.
func TestBitmapRegrowClears(t *testing.T) {
	bm := NewBitmap(0)
	for i := 0; i < 200; i++ {
		bm.Append(true)
	}
	bm.Resize(10)
	bm.Resize(200)
	if got := bm.Count(); got != 10 {
		t.Fatalf("after shrink to 10 and regrow to 200, %d bits set, want 10", got)
	}
	bm.Resize(5)
	bm.Set(150, false)
	for i := 5; i < 151; i++ {
		if bm.Get(i) {
			t.Fatalf("bit %d reappeared after a shrink and a regrow by Set", i)
		}
	}
}

func TestBitmapProperty(t *testing.T) {
	// Property: Count equals the number of explicitly set positions.
	f := func(seed int64, n16 uint16) bool {
		n := int(n16%500) + 1
		rng := rand.New(rand.NewSource(seed))
		bm := NewBitmap(n)
		ref := make(map[int]bool)
		for k := 0; k < 100; k++ {
			i := rng.Intn(n)
			v := rng.Intn(2) == 0
			bm.Set(i, v)
			ref[i] = v
		}
		count := 0
		for _, v := range ref {
			if v {
				count++
			}
		}
		return bm.Count() == count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestAppendBAT(t *testing.T) {
	a := FromInts([]int64{1, 2})
	b := FromInts([]int64{3})
	b.SetNull(0, true)
	if err := a.AppendBAT(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != 3 || !a.IsNull(2) {
		t.Errorf("append: len=%d null(2)=%v", a.Len(), a.IsNull(2))
	}
	s := FromStrings([]string{"x"})
	if err := a.AppendBAT(s); err == nil {
		t.Error("kind mismatch not detected")
	}
}

func TestTruncate(t *testing.T) {
	b := FromInts([]int64{1, 2, 3})
	b.SetNull(2, true)
	b.Truncate(2)
	if b.Len() != 2 || b.HasNulls() {
		t.Errorf("truncate: len=%d nulls=%v", b.Len(), b.HasNulls())
	}
}
