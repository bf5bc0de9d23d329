package bat

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

// randColumn builds an n-row column of kind whose integers span width
// bits above a possibly negative base, with NULLs (over slots holding
// arbitrary values) when nulls is set.
func randColumn(rng *rand.Rand, kind types.Kind, n int, width uint, nulls bool) *BAT {
	var b *BAT
	switch kind {
	case types.KindInt, types.KindOID:
		base := rng.Int63n(1<<20) - 1<<19
		if width == 64 {
			base = math.MinInt64
		}
		vals := make([]int64, n)
		for i := range vals {
			off := rng.Uint64()
			if width < 64 {
				off &= 1<<width - 1
			}
			vals[i] = int64(uint64(base) + off)
		}
		b = FromIntsOfKind(vals, kind)
	case types.KindFloat:
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64() * 1e6
		}
		if n > 2 {
			vals[0], vals[1], vals[2] = math.NaN(), math.Inf(-1), math.Copysign(0, -1)
		}
		b = FromFloats(vals)
	case types.KindBool:
		vals := make([]bool, n)
		for i := range vals {
			vals[i] = rng.Intn(2) == 0
		}
		b = FromBools(vals)
	case types.KindStr:
		vals := make([]string, n)
		for i := range vals {
			vals[i] = string(make([]byte, rng.Intn(5))) + "é"[:rng.Intn(3)]
		}
		b = FromStrings(vals)
	}
	if nulls {
		m := NewBitmap(n)
		for i := 0; i < n; i++ {
			m.Set(i, rng.Intn(3) == 0)
		}
		b.SetNullMask(m)
	}
	return b
}

// sameColumn reports whether two columns hold the same rows bit for bit,
// NULL flags and the values in NULL slots included.
func sameColumn(a, b *BAT) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.IsNull(i) != b.IsNull(i) {
			return false
		}
	}
	switch a.ValueKind() {
	case types.KindInt, types.KindOID:
		return slices.Equal(a.Materialize().DecodedInts(nil), b.DecodedInts(nil))
	case types.KindFloat:
		fa, fb := a.DecodedFloats(nil), b.DecodedFloats(nil)
		for i := range fa {
			if math.Float64bits(fa[i]) != math.Float64bits(fb[i]) {
				return false
			}
		}
		return true
	case types.KindBool:
		return slices.Equal(a.DecodedBools(nil), b.DecodedBools(nil))
	}
	return slices.Equal(a.DecodedStrs(nil), b.DecodedStrs(nil))
}

func TestColumnRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	kinds := []types.Kind{types.KindInt, types.KindOID, types.KindFloat, types.KindBool, types.KindStr}
	for trial := 0; trial < 2000; trial++ {
		kind := kinds[rng.Intn(len(kinds))]
		n := rng.Intn(200)
		if trial%50 == 0 {
			n = SlabRows + rng.Intn(100)
		}
		width := []uint{0, 1, 8, 13, 16, 31, 32, 63, 64}[rng.Intn(9)]
		col := randColumn(rng, kind, n, width, rng.Intn(2) == 0)
		prefix := []byte{0xAB}
		enc := AppendColumn(prefix, col)
		got, used, err := DecodeColumn(enc[1:], kind, n)
		if err != nil {
			t.Fatalf("trial %d (%s, n=%d, width %d): %v", trial, kind, n, width, err)
		}
		if used != len(enc)-1 {
			t.Fatalf("trial %d: used %d of %d bytes", trial, used, len(enc)-1)
		}
		if got.Kind() != kind || !sameColumn(col, got) {
			t.Fatalf("trial %d (%s, n=%d, width %d): round trip differs", trial, kind, n, width)
		}
		if kind == types.KindInt || kind == types.KindOID {
			other := types.KindInt + types.KindOID - kind
			if got, _, err := DecodeColumn(enc[1:], other, n); err != nil || got.Kind() != other || !sameColumn(col, got) {
				t.Fatalf("trial %d: %s column does not read as %s: %v", trial, kind, other, err)
			}
		}
	}
}

// TestColumnWidths pins the size of two columns: a constant one is a
// header and a base, a byte-wide one adds a word count and n bytes.
func TestColumnWidths(t *testing.T) {
	n := 1000
	constant := make([]int64, n)
	bytewide := make([]int64, n)
	for i := range constant {
		constant[i] = -7
		bytewide[i] = -100 + int64(i%256)
	}
	if enc := AppendColumn(nil, FromInts(constant)); len(enc) != 2 {
		t.Errorf("constant column: %d bytes, want 2", len(enc))
	}
	if enc := AppendColumn(nil, FromInts(bytewide)); len(enc) != 2+2+1+n {
		t.Errorf("8-bit column: %d bytes, want %d", len(enc), 2+2+1+n)
	}
}

func TestPositionsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	limit := 5000
	cases := map[string][]int{
		"one":        {4999},
		"dense":      nil,
		"sorted":     nil,
		"unsorted":   nil,
		"duplicates": nil,
	}
	for i := 0; i < limit; i++ {
		cases["dense"] = append(cases["dense"], i)
		if rng.Intn(3) == 0 {
			cases["sorted"] = append(cases["sorted"], i)
		}
	}
	cases["unsorted"] = rng.Perm(limit)[:300]
	for i := 0; i < 300; i++ {
		cases["duplicates"] = append(cases["duplicates"], rng.Intn(7)*700)
	}
	for name, pos := range cases {
		enc := AppendPositions(nil, pos)
		got, used, err := DecodePositions(enc, len(pos), limit)
		if err != nil || used != len(enc) || !slices.Equal(got, pos) {
			t.Errorf("%s: round trip failed (used %d of %d): %v", name, used, len(enc), err)
		}
		if name == "dense" && len(enc) != 3 {
			t.Errorf("dense positions take %d bytes, want 3", len(enc))
		}
		if _, _, err := DecodePositions(enc, len(pos), slices.Max(pos)); err == nil {
			t.Errorf("%s: a position at the limit decoded", name)
		}
	}
}

// TestColumnDecodeRejects feeds columns that are each wrong in one way.
func TestColumnDecodeRejects(t *testing.T) {
	ints := AppendColumn(nil, FromInts([]int64{1, 300, 5})) // width 9: 1 word
	nulls := AppendColumn(nil, randColumn(rand.New(rand.NewSource(1)), types.KindFloat, 20, 0, true))
	hdr := func(w uint64, k types.Kind) []byte { return binary.AppendUvarint(nil, w<<4|uint64(k)<<1) }
	first := AppendPositions(nil, []int{1})
	cases := []struct {
		name  string
		src   []byte
		kind  types.Kind
		n     int
		limit int // > 0: decode as positions
	}{
		{"empty", nil, types.KindInt, 3, 0},
		{"width 65", append(hdr(65, types.KindInt), 0, 1, 0), types.KindInt, 1, 0},
		{"word count", append(append(ints[:3:3], 2), make([]byte, 16)...), types.KindInt, 3, 0},
		{"short words", ints[:len(ints)-1], types.KindInt, 3, 0},
		{"float for int", AppendColumn(nil, FromFloats([]float64{1})), types.KindInt, 1, 0},
		{"str for bool", AppendColumn(nil, FromStrings([]string{"x"})), types.KindBool, 1, 0},
		{"short nulls", nulls[:2], types.KindFloat, 20, 0},
		{"short floats", nulls[:len(nulls)-1], types.KindFloat, 20, 0},
		{"width on floats", append(hdr(1, types.KindFloat), make([]byte, 8)...), types.KindFloat, 1, 0},
		{"more strings than bytes", AppendColumn(nil, FromStrings([]string{"", ""})), types.KindStr, 4, 0},
		{"first at limit", first, types.KindInt, 1, 1},
		{"gap below zero", append(first, AppendColumn(nil, FromInts([]int64{-1, -1}))...), types.KindInt, 3, 10},
		{"gap overflow", append(first, AppendColumn(nil, FromInts([]int64{math.MaxInt64}))...), types.KindInt, 2, 10},
		{"null gap", append(first, AppendColumn(nil, randColumn(rand.New(rand.NewSource(3)), types.KindInt, 8, 0, true))...), types.KindInt, 9, 10},
	}
	for _, c := range cases {
		var err error
		if c.limit > 0 {
			_, _, err = DecodePositions(c.src, c.n, c.limit)
		} else {
			_, _, err = DecodeColumn(c.src, c.kind, c.n)
		}
		if err == nil {
			t.Errorf("%s: decoded", c.name)
		}
	}
}

// FuzzColumnDecode decodes arbitrary bytes as a column and as positions:
// an error is fine, a panic or a column of the wrong length is not, and a
// column that decodes must round-trip through AppendColumn.
func FuzzColumnDecode(f *testing.F) {
	rng := rand.New(rand.NewSource(2))
	for _, kind := range []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindStr} {
		for _, width := range []uint{0, 8, 13, 64} {
			f.Add(AppendColumn(nil, randColumn(rng, kind, 40, width, width == 13)), uint8(kind), uint16(40))
		}
	}
	f.Add(AppendPositions(nil, []int{5, 1, 1, 9, 0}), uint8(0), uint16(5))
	f.Fuzz(func(t *testing.T, data []byte, k uint8, n16 uint16) {
		kind, n := types.Kind(k%6), int(n16%2048)
		if kind == types.KindVoid {
			if pos, used, err := DecodePositions(data, n, 1000); err == nil && (len(pos) != n || used > len(data)) {
				t.Fatalf("positions: %d of %d, used %d of %d", len(pos), n, used, len(data))
			}
			return
		}
		b, used, err := DecodeColumn(data, kind, n)
		if err != nil {
			return
		}
		if b.Len() != n || b.Kind() != kind || used > len(data) {
			t.Fatalf("decoded %d rows of %s using %d of %d bytes", b.Len(), b.Kind(), used, len(data))
		}
		again, _, err := DecodeColumn(AppendColumn(nil, b), kind, n)
		if err != nil || !sameColumn(b, again) {
			t.Fatalf("re-encoded column does not round-trip: %v", err)
		}
	})
}
