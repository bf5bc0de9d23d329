package bat

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/types"
	"repro/internal/vfs"
)

// Binary on-disk format for a single BAT, little-endian throughout:
//
//	magic   [4]byte  "SCQB"
//	version uint16   (1)
//	kind    uint8
//	flags   uint8    bit0: has null bitmap, bit1: sorted, bit2: key,
//	                 bit3: sorted descending
//	count   uint64
//	seqbase uint64
//	payload          kind-dependent (see below)
//	nulls            ceil(count/64) uint64 words, if flag bit0
//	crc32   uint32   IEEE, over everything before it
//
// Payloads: lng/oid = count int64; dbl = count float64; bit = count bytes;
// str = count (uint32 length + bytes); void = empty.
//
// Version 2 carries a slab-encoded tail (see encoding.go) and is written
// only when the BAT is encoded — plain BATs always write version 1, byte
// identical to every earlier release, so old stores and new plain stores
// stay interchangeable. The v2 payload replaces the kind-dependent block:
//
//	nslabs  uint32   must equal ceil(count/SlabRows)
//	slab ×nslabs:
//	  enc     uint8    Encoding
//	  n       uint32   rows (SlabRows except the last slab)
//	  meta    uint8    bit0 hasMM, bit1 hasNaN, bit2 asc, bit3 desc
//	  bounds  int cols: minI, maxI, firstI, lastI  (4 × int64)
//	          dbl cols: minF, maxF, firstF, lastF  (4 × float64)
//	          str cols: absent
//	  payload enc-dependent:
//	    plain  same as the v1 payload for the slab's rows
//	    rle    runs uint32, run values (typed), run lens (uint32 each)
//	    dict   card uint32, dict values (typed), codes (uint16 × n)
//	    for    base int64, width uint8, packed words (uint64 each)
//	    delta  base int64, width uint8, packed words (uint64 each)
//
// The nulls block and trailing CRC are unchanged. Every length field is
// validated against the header's row count before allocation, and every
// dict code against the cardinality, so a corrupt or adversarial segment
// fails with an error — never a panic or an out-of-bounds decode.

const (
	ioMagic      = "SCQB"
	ioVersion    = 1
	ioVersionEnc = 2

	flagNulls      = 1 << 0
	flagSorted     = 1 << 1
	flagKey        = 1 << 2
	flagSortedDesc = 1 << 3

	slabMetaHasMM  = 1 << 0
	slabMetaHasNaN = 1 << 1
	slabMetaAsc    = 1 << 2
	slabMetaDesc   = 1 << 3
)

type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p)
	return c.w.Write(p)
}

type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Write serialises the BAT.
func (b *BAT) Write(w io.Writer) error {
	cw := &crcWriter{w: w}
	if _, err := cw.Write([]byte(ioMagic)); err != nil {
		return err
	}
	var flags uint8
	if b.nulls != nil && b.nulls.Any() {
		flags |= flagNulls
	}
	if b.Sorted {
		flags |= flagSorted
	}
	if b.Key {
		flags |= flagKey
	}
	if b.SortedDesc {
		flags |= flagSortedDesc
	}
	version := uint16(ioVersion)
	if b.enc != nil {
		version = ioVersionEnc
	}
	hdr := []any{version, uint8(b.kind), flags, uint64(b.count), uint64(b.seqbase)}
	for _, v := range hdr {
		if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
			return err
		}
	}
	if b.enc != nil {
		if err := b.writeEncodedPayload(cw); err != nil {
			return err
		}
		return b.writeNullsAndCRC(cw, w, flags)
	}
	switch b.kind {
	case types.KindVoid:
	case types.KindInt, types.KindOID:
		if err := binary.Write(cw, binary.LittleEndian, b.ints); err != nil {
			return err
		}
	case types.KindFloat:
		if err := binary.Write(cw, binary.LittleEndian, b.floats); err != nil {
			return err
		}
	case types.KindBool:
		buf := make([]byte, b.count)
		for i, v := range b.bools {
			if v {
				buf[i] = 1
			}
		}
		if _, err := cw.Write(buf); err != nil {
			return err
		}
	case types.KindStr:
		for _, s := range b.strs {
			if err := binary.Write(cw, binary.LittleEndian, uint32(len(s))); err != nil {
				return err
			}
			if _, err := io.WriteString(cw, s); err != nil {
				return err
			}
		}
	}
	return b.writeNullsAndCRC(cw, w, flags)
}

func (b *BAT) writeNullsAndCRC(cw *crcWriter, w io.Writer, flags uint8) error {
	if flags&flagNulls != 0 {
		words := make([]uint64, (b.count+63)/64)
		for i := 0; i < b.count; i++ {
			if b.nulls.Get(i) {
				words[i>>6] |= 1 << uint(i&63)
			}
		}
		if err := binary.Write(cw, binary.LittleEndian, words); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, cw.crc)
}

func (b *BAT) writeEncodedPayload(cw *crcWriter) error {
	e := b.enc
	if err := binary.Write(cw, binary.LittleEndian, uint32(len(e.slabs))); err != nil {
		return err
	}
	isFloat := b.kind == types.KindFloat
	isStr := b.kind == types.KindStr
	for i := range e.slabs {
		es := &e.slabs[i]
		var meta uint8
		if es.hasMM {
			meta |= slabMetaHasMM
		}
		if es.hasNaN {
			meta |= slabMetaHasNaN
		}
		if es.asc {
			meta |= slabMetaAsc
		}
		if es.desc {
			meta |= slabMetaDesc
		}
		hdr := []any{uint8(es.enc), uint32(es.n), meta}
		for _, v := range hdr {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		switch {
		case isFloat:
			for _, v := range []float64{es.minF, es.maxF, es.firstF, es.lastF} {
				if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
					return err
				}
			}
		case !isStr:
			for _, v := range []int64{es.minI, es.maxI, es.firstI, es.lastI} {
				if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
					return err
				}
			}
		}
		if err := writeSlabPayload(cw, es, isFloat, isStr); err != nil {
			return err
		}
	}
	return nil
}

func writeSlabPayload(cw *crcWriter, es *encSlab, isFloat, isStr bool) error {
	writeStrs := func(ss []string) error {
		for _, s := range ss {
			if err := binary.Write(cw, binary.LittleEndian, uint32(len(s))); err != nil {
				return err
			}
			if _, err := io.WriteString(cw, s); err != nil {
				return err
			}
		}
		return nil
	}
	switch es.enc {
	case EncPlain:
		switch {
		case isFloat:
			return binary.Write(cw, binary.LittleEndian, es.floats)
		case isStr:
			return writeStrs(es.strs)
		default:
			return binary.Write(cw, binary.LittleEndian, es.ints)
		}
	case EncRLE:
		if err := binary.Write(cw, binary.LittleEndian, uint32(len(es.lens))); err != nil {
			return err
		}
		if isFloat {
			if err := binary.Write(cw, binary.LittleEndian, es.floats); err != nil {
				return err
			}
		} else {
			if err := binary.Write(cw, binary.LittleEndian, es.ints); err != nil {
				return err
			}
		}
		return binary.Write(cw, binary.LittleEndian, es.lens)
	case EncDict:
		if isStr {
			if err := binary.Write(cw, binary.LittleEndian, uint32(len(es.strs))); err != nil {
				return err
			}
			if err := writeStrs(es.strs); err != nil {
				return err
			}
		} else {
			if err := binary.Write(cw, binary.LittleEndian, uint32(len(es.ints))); err != nil {
				return err
			}
			if err := binary.Write(cw, binary.LittleEndian, es.ints); err != nil {
				return err
			}
		}
		return binary.Write(cw, binary.LittleEndian, es.codes)
	case EncFOR, EncDelta:
		for _, v := range []any{es.base, es.width} {
			if err := binary.Write(cw, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		_, err := cw.Write(es.packed)
		return err
	}
	return fmt.Errorf("bat: cannot serialise encoding %v", es.enc)
}

// ReadFrom deserialises a BAT written by Write.
func ReadFrom(r io.Reader) (*BAT, error) {
	cr := &crcReader{r: r}
	magic := make([]byte, 4)
	if _, err := io.ReadFull(cr, magic); err != nil {
		return nil, fmt.Errorf("bat: reading magic: %w", err)
	}
	if string(magic) != ioMagic {
		return nil, fmt.Errorf("bat: bad magic %q", magic)
	}
	var (
		version uint16
		kind    uint8
		flags   uint8
		count   uint64
		seqbase uint64
	)
	for _, p := range []any{&version, &kind, &flags, &count, &seqbase} {
		if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
			return nil, err
		}
	}
	if version != ioVersion && version != ioVersionEnc {
		return nil, fmt.Errorf("bat: unsupported format version %d", version)
	}
	if count > math.MaxInt32 {
		return nil, fmt.Errorf("bat: implausible row count %d", count)
	}
	n := int(count)
	b := &BAT{kind: types.Kind(kind), count: n, seqbase: types.OID(seqbase)}
	b.Sorted = flags&flagSorted != 0
	b.Key = flags&flagKey != 0
	b.SortedDesc = flags&flagSortedDesc != 0
	if version == ioVersionEnc {
		if err := b.readEncodedPayload(cr); err != nil {
			return nil, err
		}
		return finishRead(b, cr, r, flags, n)
	}
	switch b.kind {
	case types.KindVoid:
	case types.KindInt, types.KindOID:
		b.ints = make([]int64, n)
		if err := binary.Read(cr, binary.LittleEndian, b.ints); err != nil {
			return nil, err
		}
	case types.KindFloat:
		b.floats = make([]float64, n)
		if err := binary.Read(cr, binary.LittleEndian, b.floats); err != nil {
			return nil, err
		}
	case types.KindBool:
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return nil, err
		}
		b.bools = make([]bool, n)
		for i, c := range buf {
			b.bools[i] = c != 0
		}
	case types.KindStr:
		b.strs = make([]string, n)
		for i := 0; i < n; i++ {
			var l uint32
			if err := binary.Read(cr, binary.LittleEndian, &l); err != nil {
				return nil, err
			}
			if l > 1<<30 {
				return nil, fmt.Errorf("bat: implausible string length %d", l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, err
			}
			b.strs[i] = string(buf)
		}
	default:
		return nil, fmt.Errorf("bat: unknown kind %d", kind)
	}
	return finishRead(b, cr, r, flags, n)
}

func finishRead(b *BAT, cr *crcReader, r io.Reader, flags uint8, n int) (*BAT, error) {
	if flags&flagNulls != 0 {
		words := make([]uint64, (n+63)/64)
		if err := binary.Read(cr, binary.LittleEndian, words); err != nil {
			return nil, err
		}
		b.nulls = &Bitmap{words: words, n: n}
	}
	want := cr.crc
	var got uint32
	if err := binary.Read(r, binary.LittleEndian, &got); err != nil {
		return nil, err
	}
	if got != want {
		return nil, fmt.Errorf("bat: checksum mismatch (file corrupt)")
	}
	return b, nil
}

// readEncodedPayload parses the version-2 slab-encoded tail. Every length
// and index is validated before use: corruption that survives the CRC (or
// a deliberately malformed file) must surface as an error, never as a
// panic or an out-of-bounds dictionary code waiting in the store.
func (b *BAT) readEncodedPayload(cr *crcReader) error {
	switch b.kind {
	case types.KindInt, types.KindOID, types.KindFloat, types.KindStr:
	default:
		return fmt.Errorf("bat: kind %v cannot be slab-encoded", b.kind)
	}
	if b.count == 0 {
		return fmt.Errorf("bat: encoded segment with zero rows")
	}
	var nslabs uint32
	if err := binary.Read(cr, binary.LittleEndian, &nslabs); err != nil {
		return err
	}
	wantSlabs := (b.count + SlabRows - 1) / SlabRows
	if int(nslabs) != wantSlabs {
		return fmt.Errorf("bat: encoded segment has %d slabs, want %d for %d rows", nslabs, wantSlabs, b.count)
	}
	isFloat := b.kind == types.KindFloat
	isStr := b.kind == types.KindStr
	e := &encColumn{slabs: make([]encSlab, wantSlabs), n: b.count}
	for s := 0; s < wantSlabs; s++ {
		es := &e.slabs[s]
		wantN := SlabRows
		if s == wantSlabs-1 {
			wantN = b.count - s*SlabRows
		}
		var (
			enc  uint8
			sn   uint32
			meta uint8
		)
		for _, p := range []any{&enc, &sn, &meta} {
			if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
				return err
			}
		}
		if Encoding(enc) >= numEncodings {
			return fmt.Errorf("bat: slab %d: unknown encoding %d", s, enc)
		}
		if int(sn) != wantN {
			return fmt.Errorf("bat: slab %d has %d rows, want %d", s, sn, wantN)
		}
		es.enc, es.n = Encoding(enc), wantN
		es.hasMM = meta&slabMetaHasMM != 0
		es.hasNaN = meta&slabMetaHasNaN != 0
		es.asc = meta&slabMetaAsc != 0
		es.desc = meta&slabMetaDesc != 0
		switch {
		case isFloat:
			for _, p := range []any{&es.minF, &es.maxF, &es.firstF, &es.lastF} {
				if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
					return err
				}
			}
		case !isStr:
			for _, p := range []any{&es.minI, &es.maxI, &es.firstI, &es.lastI} {
				if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
					return err
				}
			}
		}
		if err := readSlabPayload(cr, es, isFloat, isStr); err != nil {
			return fmt.Errorf("bat: slab %d: %w", s, err)
		}
		e.encodedBytes += es.bytes
	}
	b.enc = e
	e.logicalBytes = plainBytesOf(b)
	return nil
}

func readSlabPayload(cr *crcReader, es *encSlab, isFloat, isStr bool) error {
	n := es.n
	readStrs := func(cnt int) ([]string, int64, error) {
		out := make([]string, cnt)
		var sz int64
		for i := 0; i < cnt; i++ {
			var l uint32
			if err := binary.Read(cr, binary.LittleEndian, &l); err != nil {
				return nil, 0, err
			}
			if l > 1<<30 {
				return nil, 0, fmt.Errorf("implausible string length %d", l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, 0, err
			}
			out[i] = string(buf)
			sz += int64(l) + 16
		}
		return out, sz, nil
	}
	switch es.enc {
	case EncPlain:
		switch {
		case isFloat:
			es.floats = make([]float64, n)
			if err := binary.Read(cr, binary.LittleEndian, es.floats); err != nil {
				return err
			}
			es.bytes = int64(n) * 8
		case isStr:
			ss, sz, err := readStrs(n)
			if err != nil {
				return err
			}
			es.strs, es.bytes = ss, sz
		default:
			es.ints = make([]int64, n)
			if err := binary.Read(cr, binary.LittleEndian, es.ints); err != nil {
				return err
			}
			es.bytes = int64(n) * 8
		}
		return nil
	case EncRLE:
		if isStr {
			return fmt.Errorf("rle on string slab")
		}
		var runs uint32
		if err := binary.Read(cr, binary.LittleEndian, &runs); err != nil {
			return err
		}
		if runs == 0 || int(runs) > n {
			return fmt.Errorf("implausible run count %d for %d rows", runs, n)
		}
		if isFloat {
			es.floats = make([]float64, runs)
			if err := binary.Read(cr, binary.LittleEndian, es.floats); err != nil {
				return err
			}
		} else {
			es.ints = make([]int64, runs)
			if err := binary.Read(cr, binary.LittleEndian, es.ints); err != nil {
				return err
			}
		}
		es.lens = make([]uint32, runs)
		if err := binary.Read(cr, binary.LittleEndian, es.lens); err != nil {
			return err
		}
		var total uint64
		for _, l := range es.lens {
			if l == 0 {
				return fmt.Errorf("zero-length run")
			}
			total += uint64(l)
		}
		if total != uint64(n) {
			return fmt.Errorf("run lengths sum to %d, want %d", total, n)
		}
		es.bytes = int64(runs) * 12
		return nil
	case EncDict:
		if isFloat {
			return fmt.Errorf("dict on float slab")
		}
		var card uint32
		if err := binary.Read(cr, binary.LittleEndian, &card); err != nil {
			return err
		}
		if card == 0 || card > uint32(n) || card > 1<<16 {
			return fmt.Errorf("implausible dictionary cardinality %d for %d rows", card, n)
		}
		if isStr {
			ss, sz, err := readStrs(int(card))
			if err != nil {
				return err
			}
			es.strs = ss
			es.bytes = sz + int64(n)*2
		} else {
			es.ints = make([]int64, card)
			if err := binary.Read(cr, binary.LittleEndian, es.ints); err != nil {
				return err
			}
			es.bytes = int64(card)*8 + int64(n)*2
		}
		es.codes = make([]uint16, n)
		if err := binary.Read(cr, binary.LittleEndian, es.codes); err != nil {
			return err
		}
		for _, c := range es.codes {
			if uint32(c) >= card {
				return fmt.Errorf("dictionary code %d out of range (cardinality %d)", c, card)
			}
		}
		return nil
	case EncFOR, EncDelta:
		if isFloat || isStr {
			return fmt.Errorf("%v on non-integer slab", es.enc)
		}
		for _, p := range []any{&es.base, &es.width} {
			if err := binary.Read(cr, binary.LittleEndian, p); err != nil {
				return err
			}
		}
		if es.width > 64 {
			return fmt.Errorf("implausible bit width %d", es.width)
		}
		cnt := n
		if es.enc == EncDelta {
			cnt = n - 1
		}
		if l := packedLen(cnt, es.width); l > 0 {
			es.packed = make([]byte, l)
			if _, err := io.ReadFull(cr, es.packed); err != nil {
				return err
			}
		}
		es.bytes = 16 + int64(len(es.packed))
		return nil
	}
	return fmt.Errorf("unknown encoding %v", es.enc)
}

// Save writes the BAT to path atomically (write temp file, fsync, then
// rename). See SaveSize for the byte count.
func (b *BAT) Save(path string) error {
	_, err := b.SaveSize(path)
	return err
}

// SaveSize is Save returning the number of bytes written, which the
// checkpoint machinery reports for write-amplification accounting. The
// file is fsynced before the rename: checkpoint manifests must never
// reference segment data still sitting in the page cache.
func (b *BAT) SaveSize(path string) (int64, error) {
	return b.SaveSizeFS(vfs.OS, path)
}

// SaveSizeFS is SaveSize on an explicit filesystem, the seam the
// fault-injection suite uses to fail segment writes mid-checkpoint.
func (b *BAT) SaveSizeFS(fsys vfs.FS, path string) (int64, error) {
	tmp := path + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return 0, err
	}
	cw := &countWriter{w: f}
	w := bufio.NewWriterSize(cw, 1<<16)
	if err := b.Write(w); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return 0, err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return 0, err
	}
	return cw.n, fsys.Rename(tmp, path)
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// Load reads a BAT from path.
func Load(path string) (*BAT, error) { return LoadFS(vfs.OS, path) }

// LoadFS is Load on an explicit filesystem.
func LoadFS(fsys vfs.FS, path string) (*BAT, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadFrom(bufio.NewReader(f))
}
