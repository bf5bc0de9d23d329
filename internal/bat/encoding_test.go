package bat

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/types"
)

// encTestDatasets builds int columns whose slabs exercise every encoding:
// constant runs (RLE), low cardinality (dict), narrow range (FOR), sorted
// with small gaps (delta), and high-entropy (plain fallback). Sizes span
// multiple slabs plus a ragged tail.
func encTestInts(t *testing.T) map[string][]int64 {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	n := 2*SlabRows + 1234
	sets := map[string][]int64{}

	rle := make([]int64, n)
	for i := range rle {
		rle[i] = int64(i / 997)
	}
	sets["rle"] = rle

	dict := make([]int64, n)
	for i := range dict {
		dict[i] = int64(rng.Intn(37)) * 1_000_003
	}
	sets["dict"] = dict

	forr := make([]int64, n)
	for i := range forr {
		forr[i] = 5_000_000_000 + int64(rng.Intn(1000))
	}
	sets["for"] = forr

	delta := make([]int64, n)
	cur := int64(-123456)
	for i := range delta {
		cur += int64(rng.Intn(7))
		delta[i] = cur
	}
	sets["delta"] = delta

	plain := make([]int64, n)
	for i := range plain {
		plain[i] = rng.Int63() - rng.Int63()
	}
	sets["plain"] = plain
	return sets
}

func wantEncoding(name string) Encoding {
	switch name {
	case "rle":
		return EncRLE
	case "dict":
		return EncDict
	case "for":
		return EncFOR
	case "delta":
		return EncDelta
	}
	return EncPlain
}

func TestEncodeAutoChoosesAndRoundTrips(t *testing.T) {
	for name, vals := range encTestInts(t) {
		b := FromInts(append([]int64(nil), vals...))
		e := EncodeAuto(b)
		if name == "plain" {
			if e.Encoded() {
				t.Fatalf("%s: encoded high-entropy data", name)
			}
			continue
		}
		if !e.Encoded() {
			t.Fatalf("%s: not encoded", name)
		}
		encs := e.SlabEncodings()
		if got := encs[0]; got != wantEncoding(name) {
			t.Errorf("%s: slab 0 encoding = %v, want %v", name, got, wantEncoding(name))
		}
		if e.EncodedBytes()*2 > e.LogicalBytes() {
			t.Errorf("%s: no 2x win: %d encoded vs %d logical", name, e.EncodedBytes(), e.LogicalBytes())
		}
		got := e.DecodedInts()
		for i := range vals {
			if got[i] != vals[i] {
				t.Fatalf("%s: decode mismatch at %d: %d != %d", name, i, got[i], vals[i])
			}
		}
		// Per-slab views must agree with the full decode.
		var buf []int64
		for s := 0; s < e.NumSlabs(); s++ {
			v := e.Slab(s)
			sv := v.Ints(buf)
			for i, x := range sv {
				if x != vals[v.Start()+i] {
					t.Fatalf("%s: slab %d row %d: %d != %d", name, s, i, x, vals[v.Start()+i])
				}
			}
		}
	}
}

func TestEncodePreservesNullSlotGarbage(t *testing.T) {
	// Values under NULL slots must round-trip exactly: the equivalence
	// contract is bit-identity of the raw slice, not just the live rows.
	n := SlabRows + 77
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i % 5)
	}
	vals[100] = 999_999_999 // garbage under a NULL
	b := FromInts(append([]int64(nil), vals...))
	b.SetNull(100, true)
	e := EncodeAuto(b)
	if !e.Encoded() {
		t.Fatal("not encoded")
	}
	if !e.IsNull(100) {
		t.Fatal("NULL lost")
	}
	if got := e.DecodedInts()[100]; got != 999_999_999 {
		t.Fatalf("null-slot value changed: %d", got)
	}
}

func TestEncodeFloatRLEAndStrDict(t *testing.T) {
	n := SlabRows + 500
	fv := make([]float64, n)
	for i := range fv {
		fv[i] = float64(i / 1000)
	}
	fv[3] = math.Copysign(0, -1) // -0.0 must survive bit-exactly
	fb := EncodeAuto(FromFloats(append([]float64(nil), fv...)))
	if !fb.Encoded() || fb.SlabEncodings()[0] != EncRLE {
		t.Fatalf("float column not RLE: %v", fb.SlabEncodings())
	}
	got := fb.DecodedFloats()
	for i := range fv {
		if math.Float64bits(got[i]) != math.Float64bits(fv[i]) {
			t.Fatalf("float bits mismatch at %d", i)
		}
	}

	words := []string{"amsterdam", "berlin", "cairo", "delhi", ""}
	sv := make([]string, n)
	for i := range sv {
		sv[i] = words[i%len(words)]
	}
	sb := EncodeAuto(FromStrings(append([]string(nil), sv...)))
	if !sb.Encoded() || sb.SlabEncodings()[0] != EncDict {
		t.Fatalf("str column not dict: %v", sb.SlabEncodings())
	}
	gs := sb.DecodedStrs()
	for i := range sv {
		if gs[i] != sv[i] {
			t.Fatalf("str mismatch at %d: %q != %q", i, gs[i], sv[i])
		}
	}
	var sbuf []string
	for s := 0; s < sb.NumSlabs(); s++ {
		v := sb.Slab(s)
		if dict, codes, ok := v.DictStrs(); ok {
			for i, c := range codes {
				if dict[c] != sv[v.Start()+i] {
					t.Fatalf("dict view mismatch at slab %d row %d", s, i)
				}
			}
		} else {
			for i, x := range v.Strs(sbuf) {
				if x != sv[v.Start()+i] {
					t.Fatalf("str view mismatch at slab %d row %d", s, i)
				}
			}
		}
	}
}

func TestEncodedMutationDecodesInPlace(t *testing.T) {
	vals := make([]int64, SlabRows)
	for i := range vals {
		vals[i] = int64(i % 3)
	}
	e := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	if !e.Encoded() {
		t.Fatal("not encoded")
	}
	e.AppendInt(42)
	if e.Encoded() {
		t.Fatal("append left the BAT encoded")
	}
	if e.Len() != SlabRows+1 || e.Get(SlabRows).Int64() != 42 {
		t.Fatal("append lost data")
	}
	for i := range vals {
		if e.DecodedInts()[i] != vals[i] {
			t.Fatalf("mutation decode mismatch at %d", i)
		}
	}

	e2 := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	if err := e2.Replace(7, types.Int(-1)); err != nil {
		t.Fatal(err)
	}
	if e2.Encoded() || e2.DecodedInts()[7] != -1 {
		t.Fatal("replace on encoded BAT broken")
	}

	e3 := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	e3.Truncate(100)
	if e3.Encoded() || e3.Len() != 100 || e3.DecodedInts()[99] != vals[99] {
		t.Fatal("truncate on encoded BAT broken")
	}
}

func TestEncodedFreezeCloneSlice(t *testing.T) {
	vals := make([]int64, SlabRows+100)
	for i := range vals {
		vals[i] = int64(i % 17)
	}
	e := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	f := e.Freeze()
	if !f.Encoded() {
		t.Fatal("freeze dropped encoding")
	}
	c := f.Clone()
	if c.Encoded() {
		t.Fatal("clone should be plain (it exists to be mutated)")
	}
	s := e.Slice(50, SlabRows+60)
	if s.Len() != SlabRows+10 {
		t.Fatalf("slice len %d", s.Len())
	}
	for i := 0; i < s.Len(); i++ {
		if s.DecodedInts()[i] != vals[50+i] {
			t.Fatalf("slice mismatch at %d", i)
		}
	}
	// Frozen copy and original share one decode cache; both must read the
	// same values.
	for i := range vals {
		if f.DecodedInts()[i] != vals[i] || c.DecodedInts()[i] != vals[i] {
			t.Fatalf("freeze/clone mismatch at %d", i)
		}
	}
}

func TestEncodedZonemapMatchesPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 3 * SlabRows
	vals := make([]int64, n)
	for i := range vals {
		vals[i] = int64(i/SlabRows)*1000 + int64(rng.Intn(50))
	}
	b := FromInts(append([]int64(nil), vals...))
	b.SetNull(5, true)
	plainZ := b.Zonemap()

	e := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	e.SetNull(5, true)
	if !e.Encoded() {
		t.Fatal("not encoded")
	}
	encZ := e.Zonemap()
	if encZ.Slabs != plainZ.Slabs || encZ.Rows != plainZ.Rows {
		t.Fatalf("shape mismatch: %+v vs %+v", encZ, plainZ)
	}
	for s := 0; s < encZ.Slabs; s++ {
		// Encoded bounds cover every slot, so they may only be equal or
		// wider than the plain (non-NULL-only) bounds.
		if encZ.MinI[s] > plainZ.MinI[s] || encZ.MaxI[s] < plainZ.MaxI[s] {
			t.Errorf("slab %d: encoded bounds [%d,%d] narrower than plain [%d,%d]",
				s, encZ.MinI[s], encZ.MaxI[s], plainZ.MinI[s], plainZ.MaxI[s])
		}
		if encZ.HasNull[s] != plainZ.HasNull[s] || encZ.AllNull[s] != plainZ.AllNull[s] {
			t.Errorf("slab %d: null occupancy mismatch", s)
		}
	}

	sorted := make([]int64, n)
	for i := range sorted {
		sorted[i] = int64(i / 3)
	}
	se := EncodeAuto(FromInts(sorted))
	if !se.Encoded() {
		t.Fatal("sorted column not encoded")
	}
	if z := se.Zonemap(); !z.Sorted || z.SortedDesc {
		t.Fatalf("sorted claims wrong: %+v %+v", z.Sorted, z.SortedDesc)
	}
}

func TestEncodedIORoundTrip(t *testing.T) {
	for name, vals := range encTestInts(t) {
		b := FromInts(append([]int64(nil), vals...))
		b.SetNull(3, true)
		b.DeriveProps()
		e := EncodeAuto(b)
		var buf bytes.Buffer
		if err := e.Write(&buf); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		raw := append([]byte(nil), buf.Bytes()...)
		got, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("%s: read: %v", name, err)
		}
		if got.Encoded() != e.Encoded() {
			t.Fatalf("%s: encoded flag lost", name)
		}
		if got.Len() != e.Len() || got.Kind() != e.Kind() {
			t.Fatalf("%s: shape mismatch", name)
		}
		gv := got.DecodedInts()
		for i := range vals {
			if gv[i] != vals[i] {
				t.Fatalf("%s: value mismatch at %d", name, i)
			}
		}
		if !got.IsNull(3) {
			t.Fatalf("%s: null lost", name)
		}
		// Byte-faithful resave: what replication ships and crash recovery
		// reloads must reproduce the exact segment bytes.
		var buf2 bytes.Buffer
		if err := got.Write(&buf2); err != nil {
			t.Fatalf("%s: rewrite: %v", name, err)
		}
		if !bytes.Equal(raw, buf2.Bytes()) {
			t.Fatalf("%s: resave not byte-identical (%d vs %d bytes)", name, len(raw), len(buf2.Bytes()))
		}
	}
}

func TestPlainSegmentsStayVersion1(t *testing.T) {
	b := FromInts([]int64{1, 2, 3})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if raw[4] != 1 || raw[5] != 0 {
		t.Fatalf("plain BAT wrote version %d", uint16(raw[4])|uint16(raw[5])<<8)
	}
	if _, err := ReadFrom(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

func TestTouchedBytesCharging(t *testing.T) {
	vals := make([]int64, SlabRows)
	for i := range vals {
		vals[i] = int64(i % 4)
	}
	plain := FromInts(append([]int64(nil), vals...))
	enc := EncodeAuto(FromInts(append([]int64(nil), vals...)))
	if !enc.Encoded() {
		t.Fatal("not encoded")
	}
	ResetTouchedBytes()
	plain.Slab(0).Ints(nil)
	plainTouched := ResetTouchedBytes()
	enc.Slab(0).Ints(nil)
	encTouched := ResetTouchedBytes()
	if plainTouched != int64(SlabRows)*8 {
		t.Fatalf("plain touched %d", plainTouched)
	}
	if encTouched*2 > plainTouched {
		t.Fatalf("encoded touch %d not a 2x win over %d", encTouched, plainTouched)
	}
}

func TestVoidSlabView(t *testing.T) {
	b := NewVoid(100, SlabRows+10)
	var buf []int64
	v := b.Slab(1)
	got := v.Ints(buf)
	if len(got) != 10 || got[0] != 100+int64(SlabRows) {
		t.Fatalf("void slab view wrong: len %d first %d", len(got), got[0])
	}
}

// TestPackWidthRoundTrip checks packFOR against the layout bit by bit —
// bit b of offset i is bit i·w+b of the little-endian payload, the bytes
// segments and log records have always held — and unpackFOR against it.
func TestPackWidthRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for w := uint8(0); w <= 64; w++ {
		for _, n := range []int{1, 63, 64, 65, 1000} {
			base := rng.Int63() - rng.Int63()
			vals := make([]int64, n)
			for i := range vals {
				off := rng.Uint64() & (^uint64(0) >> (64 - w))
				vals[i] = int64(uint64(base) + off)
			}
			packed := make([]byte, packedLen(n, w))
			packFOR(packed, vals, base, w)
			want := make([]byte, len(packed))
			for i, v := range vals {
				off := uint64(v) - uint64(base)
				for b := 0; b < int(w); b++ {
					if p := i*int(w) + b; off>>b&1 == 1 {
						want[p/8] |= 1 << (p % 8)
					}
				}
			}
			if !bytes.Equal(packed, want) {
				t.Fatalf("w=%d n=%d: packed layout differs", w, n)
			}
			got := make([]int64, n)
			unpackFOR(got, packed, w, base)
			for i := range vals {
				if got[i] != vals[i] {
					t.Fatalf("w=%d n=%d: mismatch at %d: %d != %d", w, n, i, got[i], vals[i])
				}
			}
		}
	}
}

// TestIntSlabDictSkipKeepsChoice checks, over random slabs, that
// encodeIntSlab chooses the encoding the full size analysis would: the
// same candidates, order and 2x gate, with the dictionary always counted.
func TestIntSlabDictSkipKeepsChoice(t *testing.T) {
	full := func(vals []int64) Encoding {
		n := int64(len(vals))
		st := analyzeInts(vals)
		sizes := make([]int64, numEncodings)
		sizes[EncPlain], sizes[EncRLE] = n*8, int64(st.runs)*12
		sizes[EncDict], sizes[EncDelta] = math.MaxInt64, math.MaxInt64
		sizes[EncFOR] = 16 + n*int64(bits.Len64(uint64(st.max)-uint64(st.min)))/8
		if est := estimateIntDict(vals); est != nil {
			sizes[EncDict] = int64(len(est.dict))*8 + n*2
		}
		if st.asc && n > 1 {
			sizes[EncDelta] = 16 + (n-1)*int64(bits.Len64(st.maxGap))/8
		}
		best := EncPlain
		for _, e := range []Encoding{EncRLE, EncDict, EncDelta, EncFOR} {
			if sizes[e] < sizes[best] {
				best = e
			}
		}
		if sizes[best]*2 > sizes[EncPlain] {
			return EncPlain
		}
		return best
	}
	rng := rand.New(rand.NewSource(35))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(300)
		if trial%100 == 0 {
			n = SlabRows
		}
		card := 1 + rng.Intn(8)
		if rng.Intn(3) == 0 {
			card = 1 + rng.Intn(5000)
		}
		spread := int64(1) << rng.Intn(40) // FOR widths on both sides of 16
		pool := make([]int64, card)
		for i := range pool {
			pool[i] = rng.Int63n(spread) - spread/2
		}
		vals := make([]int64, n)
		for i := range vals {
			vals[i] = pool[rng.Intn(card)]
		}
		if rng.Intn(4) == 0 {
			slices.Sort(vals)
		}
		if got, want := encodeIntSlab(vals).enc, full(vals); got != want {
			t.Fatalf("trial %d (n=%d card=%d spread=%d): chose %v, full analysis %v", trial, n, card, spread, got, want)
		}
	}
}
