package core

import (
	"bytes"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/bat"
	"repro/internal/types"
)

// Formatter turns a result into text once: every cell is formatted from
// its typed column (the decoded tail plus the NULL mask) into one byte
// arena, a column at a time. The same cell bytes feed the three places a
// result becomes text — Result.String, the text protocol and the HTTP
// JSON encoder — so they cannot drift apart. The zero Formatter is ready
// to use; Format reuses its buffers, so a long-lived Formatter formats
// without allocating once it has grown to the largest result.
type Formatter struct {
	r     *Result
	rows  int
	arena []byte
	// ends holds the arena end offset of every cell, column-major: cell
	// (row, col) is arena[ends[col*rows+row-1]:ends[col*rows+row]].
	ends   []int
	cols   []fmtCol
	widths []int // appendText's column widths
}

// fmtCol is what the JSON and padded-text forms need beyond the bytes.
type fmtCol struct {
	b      *bat.BAT // consulted for NULLs when nulls is set
	nulls  bool     // the column holds a NULL
	kind   types.Kind
	floats []float64 // dbl columns: the values, for the JSON number form
	width  int       // widest cell in bytes
	ascii  bool      // every cell is ASCII, so its rune count is its length
}

// Format formats every cell of r, replacing what the Formatter held.
func (f *Formatter) Format(r *Result) {
	f.r = r
	f.rows = r.NumRows()
	f.arena = f.arena[:0]
	f.ends = f.ends[:0]
	f.cols = f.cols[:0]
	for _, b := range r.Cols {
		f.cols = append(f.cols, f.formatCol(b))
	}
}

// Reset drops the Formatter's references to the last result (its
// columns stay reachable otherwise), keeping the buffers for reuse.
func (f *Formatter) Reset() {
	f.r = nil
	clear(f.cols)
	f.cols = f.cols[:0]
}

func (f *Formatter) formatCol(b *bat.BAT) fmtCol {
	col := fmtCol{b: b, nulls: b.HasNulls(), kind: b.Kind(), ascii: true}
	a := f.arena
	var (
		ints  []int64
		bools []bool
		strs  []string
	)
	switch col.kind {
	case types.KindOID, types.KindInt:
		ints = b.DecodedInts()
	case types.KindFloat:
		col.floats = b.DecodedFloats()
	case types.KindBool:
		bools = b.DecodedBools()
	case types.KindStr:
		strs = b.DecodedStrs()
	}
	seq := int64(b.Seqbase())
	for i := 0; i < f.rows; i++ {
		start := len(a)
		if col.nulls && b.IsNull(i) {
			a = append(a, "null"...)
		} else {
			switch col.kind {
			case types.KindVoid:
				a = strconv.AppendInt(a, seq+int64(i), 10)
			case types.KindOID, types.KindInt:
				a = strconv.AppendInt(a, ints[i], 10)
			case types.KindFloat:
				a = strconv.AppendFloat(a, col.floats[i], 'g', -1, 64)
			case types.KindBool:
				a = strconv.AppendBool(a, bools[i])
			case types.KindStr:
				a = append(a, strs[i]...)
				col.ascii = col.ascii && isASCII(strs[i])
			}
		}
		col.width = max(col.width, len(a)-start)
		f.ends = append(f.ends, len(a))
	}
	f.arena = a
	return col
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// cell returns the text of cell (row, col).
func (f *Formatter) cell(row, col int) []byte {
	i := col*f.rows + row
	start := 0
	if i > 0 {
		start = f.ends[i-1]
	}
	return f.arena[start:f.ends[i]]
}

// AppendText appends the result's canonical text rendering — the bytes
// Result.String returns — to dst.
//
// A table's column widths are counted in bytes and padding in runes, the
// way fmt's "%-*s" pads a width taken from len: a multibyte cell widens
// its column by its byte length but is padded as fewer characters.
func (f *Formatter) AppendText(dst []byte) []byte { return f.appendText(dst, false) }

// AppendTextJSON appends the rendering as a JSON string: the bytes
// AppendJSONString makes of AppendText's, written in one pass.
func (f *Formatter) AppendTextJSON(dst []byte) []byte {
	dst = append(dst, '"')
	dst = f.appendText(dst, true)
	return append(dst, '"')
}

// appendText writes the rendering, escaped for a JSON string when quote
// is set. Only text can need escaping there — a newline, a name, a string
// cell: number, bool and NULL cells are plain ASCII.
func (f *Formatter) appendText(dst []byte, quote bool) []byte {
	r := f.r
	text := func(dst []byte, s string) []byte {
		if quote {
			return appendJSONInner(dst, s)
		}
		return append(dst, s...)
	}
	newline := func(dst []byte) []byte {
		if quote {
			return append(dst, '\\', 'n')
		}
		return append(dst, '\n')
	}
	if r.Text != "" {
		return text(dst, r.Text)
	}
	// A dimension's header is its name in brackets.
	bracket := func(c int) bool { return c < len(r.Dims) && r.Dims[c] }
	f.widths = f.widths[:0]
	for c, name := range r.Names {
		w := len(name)
		if bracket(c) {
			w += 2
		}
		if c < len(f.cols) {
			w = max(w, f.cols[c].width)
		}
		f.widths = append(f.widths, w)
	}
	widths := f.widths
	for c, name := range r.Names {
		if c > 0 {
			dst = append(dst, " | "...)
		}
		pad := widths[c] - utf8.RuneCountInString(name)
		if bracket(c) {
			dst = append(text(append(dst, '['), name), ']')
			pad -= 2
		} else {
			dst = text(dst, name)
		}
		dst = appendRepeat(dst, ' ', pad)
	}
	dst = newline(dst)
	for c := range r.Names {
		if c > 0 {
			dst = append(dst, "-+-"...)
		}
		dst = appendRepeat(dst, '-', widths[c])
	}
	dst = newline(dst)
	for i := 0; i < f.rows; i++ {
		for c := range f.cols {
			if c > 0 {
				dst = append(dst, " | "...)
			}
			s := f.cell(i, c)
			pad := widths[c] - len(s)
			if !f.cols[c].ascii {
				pad = widths[c] - utf8.RuneCount(s)
			}
			if quote && f.cols[c].kind == types.KindStr {
				dst = appendJSONInner(dst, s)
			} else {
				dst = append(dst, s...)
			}
			dst = appendRepeat(dst, ' ', pad)
		}
		dst = newline(dst)
	}
	return dst
}

// appendRepeat appends n copies of c, a space or a dash.
func appendRepeat(dst []byte, c byte, n int) []byte {
	const spaces, dashes = "                                ", "--------------------------------"
	run := spaces
	if c == '-' {
		run = dashes
	}
	for ; n > 0; n -= len(run) {
		dst = append(dst, run[:min(n, len(run))]...)
	}
	return dst
}

// AppendJSONRows appends the cells as a JSON array of row arrays. Each
// cell is the JSON value encoding/json gives the cell's Go value: NULL is
// null, integers and oids are numbers, bools are true/false, strings are
// escaped as encoding/json escapes them (HTML characters included), and
// finite floats are numbers in encoding/json's format. A NaN or infinite
// float, which JSON cannot carry as a number, is the string of its
// engine spelling: "NaN", "+Inf" or "-Inf".
func (f *Formatter) AppendJSONRows(dst []byte) []byte {
	dst = append(dst, '[')
	for i := 0; i < f.rows; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, '[')
		for c := range f.cols {
			if c > 0 {
				dst = append(dst, ',')
			}
			dst = f.appendJSONCell(dst, i, c)
		}
		dst = append(dst, ']')
	}
	return append(dst, ']')
}

func (f *Formatter) appendJSONCell(dst []byte, row, c int) []byte {
	col := &f.cols[c]
	s := f.cell(row, c)
	switch {
	case col.nulls && col.b.IsNull(row):
		return append(dst, "null"...)
	case col.kind == types.KindStr:
		return AppendJSONString(dst, s)
	case col.kind == types.KindFloat:
		return appendJSONFloat(dst, s, col.floats[row])
	}
	return append(dst, s...)
}

// appendJSONFloat appends v, whose shortest 'g' form is g, as
// encoding/json writes a float64. Where 'g' has no exponent it is the
// same bytes as encoding/json's 'f' form, so only exponent forms are
// formatted again, by encoding/json's rule: 'f' for 1e-6 <= |v| < 1e21,
// else 'e' with a two-digit negative exponent cut to one digit.
func appendJSONFloat(dst, g []byte, v float64) []byte {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		dst = append(dst, '"')
		dst = append(dst, g...)
		return append(dst, '"')
	}
	if bytes.IndexByte(g, 'e') < 0 {
		return append(dst, g...)
	}
	format := byte('f')
	if abs := math.Abs(v); abs < 1e-6 || abs >= 1e21 {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, v, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst
}

// AppendJSONString appends s as a JSON string the way encoding/json
// writes it: '"', '\\' and control bytes escaped (\b, \f, \n, \r and \t
// by name), '<', '>' and '&' as \u003c, \u003e and \u0026, U+2028 and
// U+2029 escaped, and every byte of invalid UTF-8 replaced by \ufffd.
func AppendJSONString[T string | []byte](dst []byte, s T) []byte {
	dst = append(dst, '"')
	dst = appendJSONInner(dst, s)
	return append(dst, '"')
}

// appendJSONInner appends s escaped for a JSON string, without quotes.
func appendJSONInner[T string | []byte](dst []byte, s T) []byte {
	const hex = "0123456789abcdef"
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		// Decode from at most UTFMax bytes, so a []byte is converted on
		// the stack.
		n := min(len(s)-i, utf8.UTFMax)
		r, size := utf8.DecodeRuneInString(string(s[i : i+n]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// jsonSafe marks the ASCII bytes a JSON string carries unescaped.
var jsonSafe = func() (t [utf8.RuneSelf]bool) {
	for b := ' '; b < utf8.RuneSelf; b++ {
		t[b] = true
	}
	for _, b := range `"\<>&` {
		t[b] = false
	}
	return t
}()
