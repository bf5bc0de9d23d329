package bat

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/types"
)

// fuzzSeedSegments serialises a spread of encoded and plain segments so
// the fuzzer starts from every payload shape the decoder knows.
func fuzzSeedSegments(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(1))
	n := SlabRows + 333
	var seeds [][]byte
	add := func(b *BAT) {
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, buf.Bytes())
	}

	rle := make([]int64, n)
	dict := make([]int64, n)
	sorted := make([]int64, n)
	narrow := make([]int64, n)
	cur := int64(0)
	for i := range rle {
		rle[i] = int64(i / 500)
		dict[i] = int64(rng.Intn(20)) * 1e9
		cur += int64(rng.Intn(5))
		sorted[i] = cur
		narrow[i] = 1 << 40 >> 1 << 1 // constant-ish large base
		narrow[i] += int64(rng.Intn(100))
	}
	add(EncodeAuto(FromInts(rle)))
	add(EncodeAuto(FromInts(dict)))
	add(EncodeAuto(FromInts(sorted)))
	add(EncodeAuto(FromInts(narrow)))

	fv := make([]float64, n)
	for i := range fv {
		fv[i] = float64(i / 700)
	}
	add(EncodeAuto(FromFloats(fv)))

	sv := make([]string, n)
	words := []string{"red", "green", "blue", "void"}
	for i := range sv {
		sv[i] = words[i%len(words)]
	}
	sb := FromStrings(sv)
	sb.SetNull(17, true)
	add(EncodeAuto(sb))

	add(FromInts([]int64{1, 2, 3})) // plain v1
	return seeds
}

// FuzzSegmentDecode feeds arbitrary bytes to the segment decoder. The
// contract: ReadFrom either returns a structurally sound BAT (every
// accessor works without panicking) or a clean error. Corrupt encoded
// payloads — bad slab counts, out-of-range dict codes, lying run lengths,
// absurd widths — must never panic, hang, or produce a BAT whose decode
// explodes later.
func FuzzSegmentDecode(f *testing.F) {
	for _, s := range fuzzSeedSegments(f) {
		f.Add(s)
		// A few deterministic corruptions of each seed as extra seeds.
		for _, off := range []int{8, len(s) / 3, len(s) / 2, len(s) - 5} {
			if off >= 0 && off < len(s) {
				mut := append([]byte(nil), s...)
				mut[off] ^= 0xff
				f.Add(mut)
			}
		}
		f.Add(s[:len(s)/2]) // truncation
	}
	f.Add([]byte{})
	f.Add([]byte("SCQB"))

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return // clean rejection
		}
		// The decoded BAT must be safe to use: walk every row through both
		// the full decode and the slab views.
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("accessor panic on decoded segment: %v", r)
			}
		}()
		nn := b.Len()
		if nn > 4<<20 {
			t.Fatalf("implausible decoded length %d accepted", nn)
		}
		// Point probes: head, tail, and a stride through the middle (a full
		// walk would dominate the fuzz loop; the slab views below cover
		// every row anyway).
		for i := 0; i < nn && i < 256; i++ {
			_ = b.Get(i)
		}
		for i := nn - 256; i < nn; i++ {
			if i >= 0 {
				_ = b.Get(i)
			}
		}
		var ibuf []int64
		var fbuf []float64
		var sbuf []string
		for s := 0; s < b.NumSlabs(); s++ {
			v := b.Slab(nil, s)
			switch b.Kind() {
			case types.KindInt, types.KindOID:
				_ = v.Ints(ibuf)
			case types.KindFloat:
				_ = v.Floats(fbuf)
			case types.KindStr:
				_ = v.Strs(sbuf)
			}
		}
		_ = b.Zonemap()
		// Round-trip: a decoded segment must reserialise.
		var buf bytes.Buffer
		if err := b.Write(&buf); err != nil {
			t.Fatalf("resave of accepted segment failed: %v", err)
		}
	})
}
