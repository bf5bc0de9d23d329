package client

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// Rows are a result's cells: Rows[row][col] is a float64, string, bool or
// nil, exactly what encoding/json decodes into a [][]any. Rows decode
// with a small hand-written scanner instead of reflection, and every row
// of a result is carved from one backing []any.
type Rows [][]any

// UnmarshalJSON decodes a JSON array of row arrays. A cell must be a
// string, number, bool or null; a nested array or object is an error.
func (r *Rows) UnmarshalJSON(data []byte) error {
	d := decoder{data: data}
	rows, err := d.rows()
	if err == nil {
		err = d.end()
	}
	if err != nil {
		return err
	}
	*r = rows
	return nil
}

// maxDepth bounds the nesting of the values decodeResponse skips, as
// encoding/json bounds its own.
const maxDepth = 10000

// decodeResponse decodes a /query answer. Unknown fields are skipped; a
// dbl cell the server sent as "NaN", "+Inf" or "-Inf" is turned back
// into its float64.
func decodeResponse(data []byte) (queryResponse, error) {
	d := decoder{data: data}
	var qr queryResponse
	err := d.object(func(key string) (err error) {
		switch key {
		case "results":
			return d.array(func() error {
				var r Result
				if err := d.result(&r); err != nil {
					return err
				}
				qr.Results = append(qr.Results, r)
				return nil
			})
		case "error":
			qr.Error, err = d.str()
		default:
			err = d.skip(0)
		}
		return err
	})
	if err == nil {
		err = d.end()
	}
	return qr, err
}

func (d *decoder) result(r *Result) error {
	err := d.object(func(key string) (err error) {
		switch key {
		case "names":
			r.Names, err = d.strs()
		case "kinds":
			r.Kinds, err = d.strs()
		case "rows":
			r.Rows, err = d.rows()
		case "affected":
			r.Affected, err = d.int()
		case "text":
			r.Text, err = d.str()
		case "rendered":
			r.Rendered, err = d.str()
		default:
			err = d.skip(0)
		}
		return err
	})
	if err != nil {
		return err
	}
	for c, k := range r.Kinds {
		if k != "dbl" {
			continue
		}
		for _, row := range r.Rows {
			if c >= len(row) {
				continue
			}
			if s, ok := row[c].(string); ok {
				if v, ok := nonFinite[s]; ok {
					row[c] = v
				}
			}
		}
	}
	return nil
}

// nonFinite maps the server's spelling of the floats JSON cannot carry as
// numbers back to their values.
var nonFinite = map[string]float64{"NaN": math.NaN(), "+Inf": math.Inf(1), "-Inf": math.Inf(-1)}

// decoder scans one JSON document held in memory.
type decoder struct {
	data []byte
	pos  int
}

func (d *decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("json: offset %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// peek skips whitespace and returns the next byte, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.data); d.pos++ {
		switch c := d.data[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}

// end checks that only whitespace follows the document.
func (d *decoder) end() error {
	if d.peek() != 0 || d.pos < len(d.data) {
		return d.errorf("data after the top-level value")
	}
	return nil
}

// null consumes a null literal if one is next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

func (d *decoder) literal(lit string) error {
	if len(d.data)-d.pos < len(lit) || string(d.data[d.pos:d.pos+len(lit)]) != lit {
		return d.errorf("invalid literal")
	}
	d.pos += len(lit)
	return nil
}

// object decodes an object (or null), calling field with the decoder at
// each member's value.
func (d *decoder) object(field func(key string) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '{' {
		return d.errorf("want an object")
	}
	d.pos++
	if d.peek() == '}' {
		d.pos++
		return nil
	}
	for {
		if d.peek() != '"' {
			return d.errorf("want a member name")
		}
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.peek() != ':' {
			return d.errorf("want ':'")
		}
		d.pos++
		if err := field(key); err != nil {
			return err
		}
		if done, err := d.next('}'); done || err != nil {
			return err
		}
	}
}

// array decodes an array (or null), calling elem with the decoder at
// each element.
func (d *decoder) array(elem func() error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '[' {
		return d.errorf("want an array")
	}
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if done, err := d.next(']'); done || err != nil {
			return err
		}
	}
}

// skip consumes any one value.
func (d *decoder) skip(depth int) error {
	if depth > maxDepth {
		return d.errorf("nested too deeply")
	}
	switch d.peek() {
	case '{':
		return d.object(func(string) error { return d.skip(depth + 1) })
	case '[':
		return d.array(func() error { return d.skip(depth + 1) })
	case '"':
		_, err := d.str()
		return err
	case 'n':
		return d.literal("null")
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	}
	_, err := d.numberToken()
	return err
}

func (d *decoder) strs() ([]string, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	out := []string{}
	err := d.array(func() error {
		s, err := d.str()
		out = append(out, s)
		return err
	})
	return out, err
}

// rows decodes an array of row arrays (or null). A counting pass sizes
// the one backing slice every row is carved from.
func (d *decoder) rows() (Rows, error) {
	if null, err := d.null(); null || err != nil {
		return nil, err
	}
	if d.peek() != '[' {
		return nil, d.errorf("want an array")
	}
	nrows, ncells := countRows(d.data[d.pos:])
	rows := make(Rows, 0, nrows)
	cells := make([]any, 0, ncells)
	d.pos++
	if d.peek() == ']' {
		d.pos++
		return rows, nil
	}
	for {
		switch d.peek() {
		case 'n':
			if err := d.literal("null"); err != nil {
				return nil, err
			}
			rows = append(rows, nil)
		case '[':
			d.pos++
			start := len(cells)
			if d.peek() == ']' {
				d.pos++
			} else {
				for done := false; !done; {
					v, err := d.cell()
					if err != nil {
						return nil, err
					}
					if len(cells) == cap(cells) {
						// countRows bounds the cells of any input that
						// parses; growing would detach the rows carved so far.
						return nil, d.errorf("more cells than counted")
					}
					cells = append(cells, v)
					if done, err = d.next(']'); err != nil {
						return nil, err
					}
				}
			}
			rows = append(rows, cells[start:len(cells):len(cells)])
		default:
			return nil, d.errorf("a row must be an array or null")
		}
		if done, err := d.next(']'); err != nil {
			return nil, err
		} else if done {
			return rows, nil
		}
	}
}

// next consumes the separator after an element: ',' (more follow) or
// close (the array or object ends).
func (d *decoder) next(close byte) (done bool, err error) {
	switch d.peek() {
	case ',':
		d.pos++
		return false, nil
	case close:
		d.pos++
		return true, nil
	}
	return false, d.errorf("want ',' or '%c'", close)
}

// countRows bounds the rows and cells of the array of row arrays data
// starts with: an array holds at most one element more than it has
// commas. Strings are skipped as the decoder skips them, so for input
// that decodes the bounds hold; on other input they stay below its
// length.
func countRows(data []byte) (rows, cells int) {
	depth := 0
	for i := 0; i < len(data); i++ {
		for i < len(data) && !structural[data[i]] {
			i++
		}
		if i == len(data) {
			break
		}
		switch data[i] {
		case '[':
			depth++
			if depth == 1 {
				rows++
			} else if depth == 2 {
				cells++
			}
		case ']':
			depth--
			if depth <= 0 {
				return rows, cells
			}
		case ',':
			if depth == 1 {
				rows++
			} else if depth == 2 {
				cells++
			}
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		}
	}
	return rows, cells
}

// structural marks the bytes countRows looks at.
var structural = [256]bool{'[': true, ']': true, ',': true, '"': true}

// cell decodes one scalar as encoding/json decodes it into an any.
func (d *decoder) cell() (any, error) {
	switch d.peek() {
	case '"':
		return d.str()
	case 'n':
		return nil, d.literal("null")
	case 't':
		return true, d.literal("true")
	case 'f':
		return false, d.literal("false")
	case '{', '[':
		return nil, d.errorf("a cell must be a string, number, bool or null")
	}
	tok, err := d.numberToken()
	if err != nil {
		return nil, err
	}
	if n, ok := smallInt(tok); ok {
		return smallInts[n], nil
	}
	return d.parseFloat(tok)
}

// smallInts are the cells 0 to 1023 boxed once: dimension coordinates,
// counts and pixel values are small non-negative integers, and a cell
// holding one shares the box instead of allocating its own.
var smallInts = func() (t [1024]any) {
	for i := range t {
		t[i] = float64(i)
	}
	return t
}()

// smallInt reports whether a number token is an integer that indexes
// smallInts.
func smallInt(tok []byte) (int, bool) {
	if len(tok) > 4 {
		return 0, false
	}
	n := 0
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, n < len(smallInts)
}

// numberToken consumes a number with JSON's grammar and returns its text.
func (d *decoder) numberToken() ([]byte, error) {
	data, p := d.data, d.pos
	digits := func() bool {
		start := p
		for p < len(data) && '0' <= data[p] && data[p] <= '9' {
			p++
		}
		return p > start
	}
	if p < len(data) && data[p] == '-' {
		p++
	}
	if p < len(data) && data[p] == '0' {
		p++
	} else if p >= len(data) || data[p] < '1' || data[p] > '9' || !digits() {
		return nil, d.errorf("invalid number")
	}
	if p < len(data) && data[p] == '.' {
		p++
		if !digits() {
			return nil, d.errorf("invalid number")
		}
	}
	if p < len(data) && (data[p] == 'e' || data[p] == 'E') {
		p++
		if p < len(data) && (data[p] == '+' || data[p] == '-') {
			p++
		}
		if !digits() {
			return nil, d.errorf("invalid number")
		}
	}
	tok := data[d.pos:p]
	d.pos = p
	return tok, nil
}

func (d *decoder) parseFloat(tok []byte) (float64, error) {
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		return 0, d.errorf("number %s out of range", tok)
	}
	return v, nil
}

func (d *decoder) int() (int, error) {
	tok, err := d.numberToken()
	if err != nil {
		return 0, err
	}
	v, err := strconv.Atoi(string(tok))
	if err != nil {
		return 0, d.errorf("number %s is not an int", tok)
	}
	return v, nil
}

// str decodes a string (or null, which is ""). Strings without escapes
// or non-ASCII bytes are copied straight out of the input.
func (d *decoder) str() (string, error) {
	if null, err := d.null(); null || err != nil {
		return "", err
	}
	if d.peek() != '"' {
		return "", d.errorf("want a string")
	}
	start := d.pos + 1
	p := start
	for p < len(d.data) && plain[d.data[p]] {
		p++
	}
	if p < len(d.data) && d.data[p] == '"' {
		d.pos = p + 1
		return string(d.data[start:p]), nil
	}
	return d.unquote(start)
}

// unquote decodes the string body at start the way encoding/json does:
// escapes resolved, a \u escape of a lone surrogate and every invalid
// UTF-8 byte replaced by U+FFFD, control bytes and unknown escapes
// rejected. The result is built in place at about its final size: escapes
// only shrink the text.
func (d *decoder) unquote(start int) (string, error) {
	data := d.data
	var b strings.Builder
	b.Grow(rawStringLen(data[start:]))
	for p := start; p < len(data); {
		// Copy the run of bytes that need no decoding at once.
		run := p
		for run < len(data) && plain[data[run]] {
			run++
		}
		b.Write(data[p:run])
		if p = run; p == len(data) {
			break
		}
		switch c := data[p]; {
		case c == '"':
			d.pos = p + 1
			return b.String(), nil
		case c < ' ':
			d.pos = p
			return "", d.errorf("control byte in string")
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(data[p:])
			b.WriteRune(r)
			p += size
		case p+1 == len(data):
			d.pos = p
			return "", d.errorf("unterminated string")
		default:
			switch e := data[p+1]; e {
			case '"', '\\', '/':
				b.WriteByte(e)
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 't':
				b.WriteByte('\t')
			case 'u':
				r, ok := hex4(data[p+2:])
				if !ok {
					d.pos = p
					return "", d.errorf("invalid \\u escape")
				}
				p += 6
				if utf16.IsSurrogate(r) {
					// Only a high surrogate escape followed by a low one
					// makes a rune; anything else decodes as U+FFFD and
					// leaves what follows to the loop.
					hi := r
					r = unicode.ReplacementChar
					if p+1 < len(data) && data[p] == '\\' && data[p+1] == 'u' {
						if lo, ok := hex4(data[p+2:]); ok {
							if dec := utf16.DecodeRune(hi, lo); dec != unicode.ReplacementChar {
								r = dec
								p += 6
							}
						}
					}
				}
				b.WriteRune(r)
				continue
			default:
				d.pos = p
				return "", d.errorf("invalid escape")
			}
			p += 2
		}
	}
	d.pos = len(data)
	return "", d.errorf("unterminated string")
}

// rawStringLen returns the length of the string body data starts with,
// up to its closing quote (all of data when there is none).
func rawStringLen(data []byte) int {
	for i := 0; ; i++ {
		q := bytes.IndexByte(data[i:], '"')
		if q < 0 {
			return len(data)
		}
		i += q
		bs := 0
		for j := i - 1; j >= 0 && data[j] == '\\'; j-- {
			bs++
		}
		if bs%2 == 0 {
			return i
		}
	}
}

// plain marks the bytes a JSON string holds as themselves: printable
// ASCII but the quote and the backslash.
var plain = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

func hex4(b []byte) (rune, bool) {
	if len(b) < 4 {
		return 0, false
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		r = r<<4 | rune(c)
	}
	return r, true
}
