package server

import (
	"strconv"
	"sync"

	"repro/internal/core"
)

// encoder builds the body of a /query answer. Its buffers are pooled, so
// a steady stream of answers encodes without allocating per cell.
type encoder struct {
	body []byte
	f    core.Formatter
}

// maxPooledBody bounds the buffers an encoder keeps in the pool; a rare
// huge answer does not pin its memory.
const maxPooledBody = 8 << 20

var encoders = sync.Pool{New: func() any { return new(encoder) }}

func getEncoder() *encoder { return encoders.Get().(*encoder) }

func (e *encoder) release() {
	if cap(e.body) > maxPooledBody {
		return
	}
	e.f.Reset()
	encoders.Put(e)
}

// response encodes the answer to one statement batch: its results, then
// the error that stopped it, if any. The bytes are what encoding/json
// makes of
//
//	{"results":[{"names":[...],"kinds":[...],"rows":[[...],...],
//	  "affected":n,"text":"...","rendered":"..."},...],"error":"..."}
//
// with every field but "rendered" left out when empty, and a newline. The
// returned slice is valid until the encoder is released.
func (e *encoder) response(results []*core.Result, err error) []byte {
	b := append(e.body[:0], '{')
	if len(results) > 0 {
		b = append(b, `"results":[`...)
		for i, r := range results {
			if i > 0 {
				b = append(b, ',')
			}
			b = e.result(b, r)
		}
		b = append(b, ']')
	}
	if err != nil && err.Error() != "" {
		if len(results) > 0 {
			b = append(b, ',')
		}
		b = append(b, `"error":`...)
		b = core.AppendJSONString(b, err.Error())
	}
	e.body = append(b, '}', '\n')
	return e.body
}

// result appends one statement result as a JSON object.
func (e *encoder) result(b []byte, r *core.Result) []byte {
	e.f.Format(r)
	b = append(b, '{')
	if len(r.Cols) > 0 {
		if len(r.Names) > 0 {
			b = append(b, `"names":[`...)
			for i, n := range r.Names {
				if i > 0 {
					b = append(b, ',')
				}
				b = core.AppendJSONString(b, n)
			}
			b = append(b, "],"...)
		}
		if len(r.Kinds) > 0 {
			b = append(b, `"kinds":[`...)
			for i, k := range r.Kinds {
				if i > 0 {
					b = append(b, ',')
				}
				b = core.AppendJSONString(b, k.String())
			}
			b = append(b, "],"...)
		}
		if r.NumRows() > 0 {
			b = append(b, `"rows":`...)
			b = append(e.f.AppendJSONRows(b), ',')
		}
	}
	if r.Affected != 0 {
		b = append(b, `"affected":`...)
		b = append(strconv.AppendInt(b, int64(r.Affected), 10), ',')
	}
	if r.Text != "" {
		b = append(b, `"text":`...)
		b = append(core.AppendJSONString(b, r.Text), ',')
	}
	b = append(b, `"rendered":`...)
	b = e.f.AppendTextJSON(b)
	return append(b, '}')
}
