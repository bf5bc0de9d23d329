package bat

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"

	"repro/internal/types"
)

// Per-slab lightweight compression.
//
// A column can carry its tail in encoded form: the rows are cut into
// SlabRows-sized slabs (aligned with the zonemap granularity, so zone
// pruning and encoding metadata describe the same row ranges) and each
// slab independently picks the cheapest of
//
//	plain  — the raw values, verbatim
//	rle    — run-length: (value, runlen) pairs
//	dict   — dictionary: distinct values + one uint16 code per row
//	for    — frame of reference: base + bit-packed unsigned deltas from it
//	delta  — ascending slabs: first value + bit-packed adjacent gaps
//
// chosen by measured size with a 2x-win gate (anything less does not pay
// for the decode path). Encoding is exact: the raw value slice round-trips
// bit-identically, including whatever garbage sits in NULL slots, so
// encodings-on and encodings-off execution are indistinguishable.
//
// An encoded BAT is immutable in practice: every mutating entry point
// decodes back to plain storage first (see ensurePlain in bat.go), and the
// full-column decode used by kernels that want a flat slice is cached once
// per column (safe under concurrent readers of a frozen snapshot).

// SlabRows is the encoding granularity: one encoded slab covers this many
// consecutive rows. It equals the zonemap slab size on purpose — per-slab
// encoding metadata doubles as zonemap input, and skip-scans prune in the
// same units the decoder materialises.
const SlabRows = ZonemapSlab

// Encoding identifies the physical representation of one slab.
type Encoding uint8

const (
	EncPlain Encoding = iota
	EncRLE
	EncDict
	EncFOR
	EncDelta
	numEncodings
)

func (e Encoding) String() string {
	switch e {
	case EncPlain:
		return "plain"
	case EncRLE:
		return "rle"
	case EncDict:
		return "dict"
	case EncFOR:
		return "for"
	case EncDelta:
		return "delta"
	}
	return fmt.Sprintf("enc(%d)", uint8(e))
}

// maxDictCard bounds the per-slab dictionary cardinality. 4096 keeps the
// dictionary itself small relative to a 64K-row slab while codes stay
// comfortably inside uint16.
const maxDictCard = 4096

// encSlab is one encoded slab: the payload for its encoding plus summary
// metadata computed over the raw values during encoding. The metadata
// covers every slot, NULL or not, so derived claims are conservative
// (bounds may be wider than the live values; order claims may be missed,
// never wrong).
type encSlab struct {
	enc   Encoding
	n     int
	bytes int64 // physical payload size (what a scan of this slab touches)

	// Raw-value summary (ints/floats only; hasMM false for str slabs and
	// NaN-poisoned float slabs).
	hasMM      bool
	minI, maxI int64
	minF, maxF float64
	hasNaN     bool
	asc, desc  bool
	firstI     int64
	lastI      int64
	firstF     float64
	lastF      float64

	// Payloads; which fields are live depends on enc and the column kind.
	ints   []int64   // plain int values; rle int run values; dict int values
	floats []float64 // plain float values; rle float run values
	strs   []string  // plain strings; dict string values
	lens   []uint32  // rle run lengths
	codes  []uint16  // dict codes, one per row
	base   int64     // for: frame base; delta: first value
	width  uint8     // for/delta: packed bit width (0..64)
	packed []byte    // for/delta: bit-packed payload (packFOR)
}

// encColumn is the encoded tail of a BAT: the slabs plus a lazily built,
// once-per-column decode cache. The cache lives here (not on the BAT) so
// Freeze copies — which share the encColumn pointer — also share one
// decode.
type encColumn struct {
	slabs        []encSlab
	n            int
	encodedBytes int64
	logicalBytes int64

	once sync.Once
	dec  *decodedCol
}

type decodedCol struct {
	ints   []int64
	floats []float64
	strs   []string
}

// decodeAll materialises the full column once and caches it. Safe for
// concurrent readers: sync.Once publishes the fully written slices.
func (e *encColumn) decodeAll(kind types.Kind) *decodedCol {
	e.once.Do(func() {
		d := &decodedCol{}
		switch kind {
		case types.KindInt, types.KindOID:
			d.ints = make([]int64, e.n)
			for s := range e.slabs {
				lo := s * SlabRows
				e.slabs[s].decodeInts(d.ints[lo : lo+e.slabs[s].n])
			}
		case types.KindFloat:
			d.floats = make([]float64, e.n)
			for s := range e.slabs {
				lo := s * SlabRows
				e.slabs[s].decodeFloats(d.floats[lo : lo+e.slabs[s].n])
			}
		case types.KindStr:
			d.strs = make([]string, e.n)
			for s := range e.slabs {
				lo := s * SlabRows
				e.slabs[s].decodeStrs(d.strs[lo : lo+e.slabs[s].n])
			}
		}
		e.dec = d
	})
	return e.dec
}

// ---------------------------------------------------------------------------
// Bit packing (FOR/delta payloads and the column codec): offsets from a
// base, width bits each, low bits first, in little-endian 64-bit words —
// packedLen bytes for n offsets.

func packedLen(n int, w uint8) int { return (n*int(w) + 63) / 64 * 8 }

// packFOR packs each vals[i]-base, which must be below 2^w, into w bits
// of out, which holds packedLen(len(vals), w) bytes.
func packFOR(out []byte, vals []int64, base int64, w uint8) {
	if w == 8 {
		// Byte-aligned (an image's 0..255): a store per offset runs about
		// twice as fast as the general loop on a 64K-cell image column.
		for i, v := range vals {
			out[i] = byte(v - base)
		}
		clear(out[len(vals):])
		return
	}
	ww := uint(w)
	var acc uint64 // pending bits, low first
	nb, k := uint(0), 0
	for _, v := range vals {
		u := uint64(v) - uint64(base)
		acc |= u << nb
		if nb += ww; nb >= 64 {
			binary.LittleEndian.PutUint64(out[k:], acc)
			k += 8
			nb -= 64
			acc = u >> (ww - nb) // what did not fit; a shift of 64 is 0
		}
	}
	if nb > 0 {
		binary.LittleEndian.PutUint64(out[k:], acc)
	}
}

// unpackFOR fills dst with base plus the len(dst) width-w offsets packed
// by packFOR into src.
func unpackFOR(dst []int64, src []byte, w uint8, base int64) {
	if w == 8 {
		for i := range dst {
			dst[i] = base + int64(src[i])
		}
		return
	}
	ww, mask := uint(w), ^uint64(0)>>(64-w)
	var acc uint64 // unread bits, low first
	nb, k := uint(0), 0
	for i := range dst {
		u := acc
		if nb < ww {
			next := binary.LittleEndian.Uint64(src[k:])
			k += 8
			u |= next << nb
			acc = next >> (ww - nb)
			nb += 64 - ww
		} else {
			acc >>= ww
			nb -= ww
		}
		dst[i] = base + int64(u&mask)
	}
}

// ---------------------------------------------------------------------------
// Per-slab encoders. Each returns a plain slab (aliasing the input slice —
// EncodeAuto copies it if the column ends up encoded) when nothing wins.

// intSlabStats is the single analysis pass shared by the int encoders.
type intSlabStats struct {
	runs      int
	asc, desc bool
	min, max  int64
	maxGap    uint64 // max adjacent forward gap; valid only when asc
}

func analyzeInts(vals []int64) intSlabStats {
	st := intSlabStats{runs: 1, asc: true, desc: true, min: vals[0], max: vals[0]}
	prev := vals[0]
	for _, v := range vals[1:] {
		if v != prev {
			st.runs++
		}
		if v > prev {
			st.desc = false
			if g := uint64(v) - uint64(prev); g > st.maxGap {
				st.maxGap = g
			}
		} else if v < prev {
			st.asc = false
		}
		if v < st.min {
			st.min = v
		}
		if v > st.max {
			st.max = v
		}
		prev = v
	}
	return st
}

func encodeIntSlab(vals []int64) encSlab {
	n := len(vals)
	st := analyzeInts(vals)
	es := encSlab{
		enc: EncPlain, n: n,
		hasMM: true, minI: st.min, maxI: st.max,
		asc: st.asc, desc: st.desc,
		firstI: vals[0], lastI: vals[n-1],
	}

	plainBytes := int64(n) * 8
	rleBytes := int64(st.runs) * 12

	span := uint64(st.max) - uint64(st.min)
	forW := uint8(bits.Len64(span))
	forBytes := int64(16) + int64(n)*int64(forW)/8

	deltaBytes := int64(math.MaxInt64)
	deltaW := uint8(0)
	if st.asc && n > 1 {
		deltaW = uint8(bits.Len64(st.maxGap))
		deltaBytes = 16 + int64(n-1)*int64(deltaW)/8
	}

	// Dictionary only pays for low cardinality, and never below a 16-bit
	// FOR width: it costs at least 2n + 8·card bytes, more than FOR's
	// 16 + ⌊15n/8⌋ once card >= 2, and a single value goes to RLE or plain.
	// Skipping the counting pass there never changes the choice.
	dictBytes := int64(math.MaxInt64)
	var dict []int64
	var codes []uint16
	if forW >= 16 {
		if est := estimateIntDict(vals); est != nil {
			dict, codes = est.dict, est.codes
			dictBytes = int64(len(dict))*8 + int64(n)*2
		}
	}

	best, bestBytes := EncPlain, plainBytes
	pick := func(e Encoding, sz int64) {
		if sz < bestBytes {
			best, bestBytes = e, sz
		}
	}
	pick(EncRLE, rleBytes)
	pick(EncDict, dictBytes)
	pick(EncDelta, deltaBytes)
	pick(EncFOR, forBytes)
	if best == EncPlain || bestBytes*2 > plainBytes {
		es.ints = vals
		es.bytes = plainBytes
		return es
	}

	es.enc = best
	es.bytes = bestBytes
	switch best {
	case EncRLE:
		rv := make([]int64, 0, st.runs)
		rl := make([]uint32, 0, st.runs)
		prev, run := vals[0], uint32(1)
		for _, v := range vals[1:] {
			if v == prev {
				run++
				continue
			}
			rv, rl = append(rv, prev), append(rl, run)
			prev, run = v, 1
		}
		es.ints, es.lens = append(rv, prev), append(rl, run)
	case EncDict:
		es.ints, es.codes = dict, codes
	case EncFOR:
		es.base, es.width = st.min, forW
		es.packed = make([]byte, packedLen(n, forW))
		packFOR(es.packed, vals, st.min, forW)
		es.bytes = 16 + int64(len(es.packed))
	case EncDelta:
		es.base, es.width = vals[0], deltaW
		gaps := make([]int64, n-1)
		for i := 1; i < n; i++ {
			gaps[i-1] = vals[i] - vals[i-1]
		}
		es.packed = make([]byte, packedLen(n-1, deltaW))
		packFOR(es.packed, gaps, 0, deltaW)
		// Word-granular, matching what the segment loader will account —
		// EncodedBytes must round-trip exactly.
		es.bytes = 16 + int64(len(es.packed))
	}
	return es
}

type intDict struct {
	dict  []int64
	codes []uint16
}

// estimateIntDict builds the dictionary for a slab, aborting (nil) when the
// cardinality exceeds maxDictCard. Codes index the dictionary in
// first-appearance order; the order is irrelevant to correctness (decoding
// reproduces the exact original values) and keeping it appearance-ordered
// makes the build a single pass.
func estimateIntDict(vals []int64) *intDict {
	seen := make(map[int64]uint16, 64)
	dict := make([]int64, 0, 64)
	codes := make([]uint16, len(vals))
	for i, v := range vals {
		c, ok := seen[v]
		if !ok {
			if len(dict) >= maxDictCard {
				return nil
			}
			c = uint16(len(dict))
			seen[v] = c
			dict = append(dict, v)
		}
		codes[i] = c
	}
	return &intDict{dict: dict, codes: codes}
}

func encodeFloatSlab(vals []float64) encSlab {
	n := len(vals)
	es := encSlab{enc: EncPlain, n: n, firstF: vals[0], lastF: vals[n-1]}
	runs := 1
	asc, desc := true, true
	hasNaN := math.IsNaN(vals[0])
	mn, mx := vals[0], vals[0]
	prev := vals[0]
	for _, v := range vals[1:] {
		// Run detection must use bit equality so NaN runs count and -0.0
		// vs 0.0 never collapse (decode reproduces exact bits).
		if math.Float64bits(v) != math.Float64bits(prev) {
			runs++
		}
		if math.IsNaN(v) {
			hasNaN = true
		} else {
			if v < mn || math.IsNaN(mn) {
				mn = v
			}
			if v > mx || math.IsNaN(mx) {
				mx = v
			}
		}
		if v > prev {
			desc = false
		} else if v < prev {
			asc = false
		}
		prev = v
	}
	es.hasNaN, es.asc, es.desc = hasNaN, asc && !hasNaN, desc && !hasNaN
	if !hasNaN {
		es.hasMM, es.minF, es.maxF = true, mn, mx
	}

	plainBytes := int64(n) * 8
	rleBytes := int64(runs) * 12
	if rleBytes*2 <= plainBytes {
		es.enc = EncRLE
		es.bytes = rleBytes
		rv := make([]float64, 0, runs)
		rl := make([]uint32, 0, runs)
		prev, run := vals[0], uint32(1)
		for _, v := range vals[1:] {
			if math.Float64bits(v) == math.Float64bits(prev) {
				run++
				continue
			}
			rv, rl = append(rv, prev), append(rl, run)
			prev, run = v, 1
		}
		es.floats, es.lens = append(rv, prev), append(rl, run)
		return es
	}
	es.floats = vals
	es.bytes = plainBytes
	return es
}

func encodeStrSlab(vals []string) encSlab {
	n := len(vals)
	es := encSlab{enc: EncPlain, n: n}
	var plainBytes int64
	for _, s := range vals {
		plainBytes += int64(len(s)) + 16
	}
	seen := make(map[string]uint16, 64)
	dict := make([]string, 0, 64)
	codes := make([]uint16, n)
	for i, v := range vals {
		c, ok := seen[v]
		if !ok {
			if len(dict) >= maxDictCard {
				es.strs = vals
				es.bytes = plainBytes
				return es
			}
			c = uint16(len(dict))
			seen[v] = c
			dict = append(dict, v)
		}
		codes[i] = c
	}
	var dictBytes int64 = int64(n) * 2
	for _, s := range dict {
		dictBytes += int64(len(s)) + 16
	}
	if dictBytes*2 > plainBytes {
		es.strs = vals
		es.bytes = plainBytes
		return es
	}
	es.enc = EncDict
	es.bytes = dictBytes
	es.strs, es.codes = dict, codes
	return es
}

// ---------------------------------------------------------------------------
// Per-slab decoders. dst has exactly es.n elements.

func (es *encSlab) decodeInts(dst []int64) {
	switch es.enc {
	case EncPlain:
		copy(dst, es.ints)
	case EncRLE:
		p := 0
		for ri, l := range es.lens {
			v := es.ints[ri]
			for j := uint32(0); j < l; j++ {
				dst[p] = v
				p++
			}
		}
	case EncDict:
		for i, c := range es.codes {
			dst[i] = es.ints[c]
		}
	case EncFOR:
		unpackFOR(dst, es.packed, es.width, es.base)
	case EncDelta:
		dst[0] = es.base
		unpackFOR(dst[1:], es.packed, es.width, 0)
		for i := 1; i < len(dst); i++ {
			dst[i] += dst[i-1]
		}
	}
}

func (es *encSlab) decodeFloats(dst []float64) {
	switch es.enc {
	case EncPlain:
		copy(dst, es.floats)
	case EncRLE:
		p := 0
		for ri, l := range es.lens {
			v := es.floats[ri]
			for j := uint32(0); j < l; j++ {
				dst[p] = v
				p++
			}
		}
	}
}

func (es *encSlab) decodeStrs(dst []string) {
	switch es.enc {
	case EncPlain:
		copy(dst, es.strs)
	case EncDict:
		for i, c := range es.codes {
			dst[i] = es.strs[c]
		}
	}
}

// ---------------------------------------------------------------------------
// Column-level encode.

// EncodeAuto returns an encoded copy of b when per-slab analysis finds at
// least one slab worth compressing, and b itself otherwise. The result is
// logically identical to b (values, NULLs, properties) and must be treated
// as immutable by convention — any mutating call on it will transparently
// decode back to plain storage first. Void and bool columns, already at or
// near their entropy floor, are returned unchanged.
func EncodeAuto(b *BAT) *BAT {
	if b == nil || b.enc != nil || b.count == 0 {
		return b
	}
	switch b.kind {
	case types.KindInt, types.KindOID, types.KindFloat, types.KindStr:
	default:
		return b
	}
	n := b.count
	nslabs := (n + SlabRows - 1) / SlabRows
	slabs := make([]encSlab, 0, nslabs)
	anyEnc := false
	for lo := 0; lo < n; lo += SlabRows {
		hi := lo + SlabRows
		if hi > n {
			hi = n
		}
		var es encSlab
		switch b.kind {
		case types.KindInt, types.KindOID:
			es = encodeIntSlab(b.ints[lo:hi])
		case types.KindFloat:
			es = encodeFloatSlab(b.floats[lo:hi])
		case types.KindStr:
			es = encodeStrSlab(b.strs[lo:hi])
		}
		if es.enc != EncPlain {
			anyEnc = true
		}
		slabs = append(slabs, es)
	}
	if !anyEnc {
		return b
	}
	// Plain slabs alias b's storage above (cheap analysis); the encoded
	// column outlives this call, so give them private copies now.
	for i := range slabs {
		if slabs[i].enc != EncPlain {
			continue
		}
		switch {
		case slabs[i].ints != nil:
			slabs[i].ints = append([]int64(nil), slabs[i].ints...)
		case slabs[i].floats != nil:
			slabs[i].floats = append([]float64(nil), slabs[i].floats...)
		case slabs[i].strs != nil:
			slabs[i].strs = append([]string(nil), slabs[i].strs...)
		}
	}
	col := &encColumn{slabs: slabs, n: n}
	for i := range slabs {
		col.encodedBytes += slabs[i].bytes
	}
	col.logicalBytes = plainBytesOf(b)

	e := &BAT{
		kind: b.kind, count: b.count, seqbase: b.seqbase,
		Sorted: b.Sorted, SortedDesc: b.SortedDesc, Key: b.Key,
		hasMM: b.hasMM, minI: b.minI, maxI: b.maxI, minF: b.minF, maxF: b.maxF,
		nulls: b.nulls.Clone(),
		enc:   col,
	}
	return e
}

// plainBytesOf estimates the plain in-memory tail size of b (the logical
// bytes a full scan touches when nothing is encoded).
func plainBytesOf(b *BAT) int64 {
	switch b.kind {
	case types.KindInt, types.KindOID:
		return int64(b.count) * 8
	case types.KindFloat:
		return int64(b.count) * 8
	case types.KindBool:
		return int64(b.count)
	case types.KindStr:
		var sz int64
		if b.enc != nil {
			for i := range b.enc.slabs {
				es := &b.enc.slabs[i]
				switch es.enc {
				case EncDict:
					for _, c := range es.codes {
						sz += int64(len(es.strs[c])) + 16
					}
				default:
					for _, s := range es.strs {
						sz += int64(len(s)) + 16
					}
				}
			}
			return sz
		}
		for _, s := range b.strs {
			sz += int64(len(s)) + 16
		}
		return sz
	}
	return 0
}

// Encoded reports whether the BAT's tail is slab-encoded.
func (b *BAT) Encoded() bool { return b.enc != nil }

// SlabEncodings returns the per-slab encoding of an encoded BAT (nil for
// plain storage). The slice is freshly allocated.
func (b *BAT) SlabEncodings() []Encoding {
	if b.enc == nil {
		return nil
	}
	out := make([]Encoding, len(b.enc.slabs))
	for i := range b.enc.slabs {
		out[i] = b.enc.slabs[i].enc
	}
	return out
}

// EncodedBytes returns the physical tail size: the encoded payload bytes
// for an encoded BAT, the plain size otherwise.
func (b *BAT) EncodedBytes() int64 {
	if b.enc != nil {
		return b.enc.encodedBytes
	}
	return plainBytesOf(b)
}

// LogicalBytes returns the decoded (plain-equivalent) tail size.
func (b *BAT) LogicalBytes() int64 {
	if b.enc != nil {
		return b.enc.logicalBytes
	}
	return plainBytesOf(b)
}

// ensurePlain decodes an encoded BAT back into private plain storage. It
// is the first call of every mutating entry point, so code that appends,
// replaces, or truncates never sees an encoded tail. Kept to a nil check
// so it inlines into the per-element append loops.
func (b *BAT) ensurePlain() {
	if b.enc != nil {
		b.decodeToPlain()
	}
}

// decodeToPlain is ensurePlain's slow path. Copies are always private:
// the decode cache may be shared with frozen snapshot copies.
func (b *BAT) decodeToPlain() {
	d := b.enc.decodeAll(b.kind)
	switch b.kind {
	case types.KindInt, types.KindOID:
		b.ints = append([]int64(nil), d.ints...)
	case types.KindFloat:
		b.floats = append([]float64(nil), d.floats...)
	case types.KindStr:
		b.strs = append([]string(nil), d.strs...)
	}
	b.enc = nil
}
