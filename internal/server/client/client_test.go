package client

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptrace"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/server"
)

// serve starts a sciqld over a 64x64 raster, the shape of the benchmark's
// tile reads.
func serve(t *testing.T) (*core.DB, string) {
	t.Helper()
	db := core.New()
	db.MustQuery(`CREATE ARRAY grid (x INT DIMENSION[0:1:64], y INT DIMENSION[0:1:64], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE grid SET v = (x * 7 + y * 13) MOD 256`)
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return db, srv.Addr().String()
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// TestKeepAliveAcrossTileReads checks that every client path reads its
// body to the end, so one connection carries a whole sequence of
// requests: 20 tile reads of 4 096 cells, plus the session and health
// endpoints, dial once.
func TestKeepAliveAcrossTileReads(t *testing.T) {
	_, addr := serve(t)
	c := New(addr)
	var dials, reused atomic.Int64
	trace := &httptrace.ClientTrace{GotConn: func(info httptrace.GotConnInfo) {
		if info.Reused {
			reused.Add(1)
		} else {
			dials.Add(1)
		}
	}}
	tr := &http.Transport{}
	t.Cleanup(tr.CloseIdleConnections)
	c.hc.Transport = roundTripFunc(func(r *http.Request) (*http.Response, error) {
		return tr.RoundTrip(r.WithContext(httptrace.WithClientTrace(r.Context(), trace)))
	})

	for i := 0; i < 20; i++ {
		r, err := c.Query(`SELECT [x], [y], AVG(v) FROM grid GROUP BY grid[x-1:x+2][y-1:y+2]`)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Rows) != 4096 {
			t.Fatalf("tile read %d: %d cells, want 4096", i, len(r.Rows))
		}
	}
	if _, err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if err := c.NewSession(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(`SELECT nope FROM grid`); err == nil {
		t.Fatal("a failing statement succeeded")
	}
	if err := c.CloseSession(); err != nil {
		t.Fatal(err)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d dials for %d requests, want 1", got, dials.Load()+reused.Load())
	}
}

// TestNonFiniteOverServer checks that NaN, the infinities and NULL in one
// float column reach the client as the embedded engine holds them, with
// an HTTP 200 and the embedded rendering.
func TestNonFiniteOverServer(t *testing.T) {
	db, addr := serve(t)
	db.MustQuery(`CREATE TABLE f (v DOUBLE)`)
	db.MustQuery(`INSERT INTO f VALUES (1e308 * 10), (-1e308 * 10), (NULL), (1.5)`)
	c := New(addr)
	for _, q := range []string{`SELECT v FROM f`, `SELECT v * 0 FROM f`, `SELECT 1e308 * 10`} {
		want := db.MustQuery(q)
		got, err := c.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if got.Rendered != want.String() {
			t.Fatalf("%s: rendered\n%s\nembedded\n%s", q, got.Rendered, want.String())
		}
		if len(got.Rows) != want.NumRows() {
			t.Fatalf("%s: %d rows, embedded %d", q, len(got.Rows), want.NumRows())
		}
		for i, row := range got.Rows {
			v := want.Value(i, 0)
			if v.IsNull() {
				if row[0] != nil {
					t.Fatalf("%s: row %d is %v, embedded NULL", q, i, row[0])
				}
				continue
			}
			wf, _ := v.AsFloat()
			gf, ok := row[0].(float64)
			if !ok || math.Float64bits(gf) != math.Float64bits(wf) && !(math.IsNaN(gf) && math.IsNaN(wf)) {
				t.Fatalf("%s: row %d is %#v, embedded %v", q, i, row[0], wf)
			}
		}
	}
}

// FuzzClientRows holds the hand-written row decoder to encoding/json: on
// any input it must fail or produce exactly what encoding/json decodes
// into a [][]any, and its counting pass never sizes the backing slice
// past the input.
func FuzzClientRows(f *testing.F) {
	for _, s := range []string{
		`[[1,2,3.5],[4,5,6.25]]`,
		`[[0,0,127.33333333333333],[0,1,null]]`,
		`null`, `[]`, `[[]]`, `[null,[]]`, `[[null,true,false]]`,
		`[["a\"b","back\\slash","<tag>","\u2028","\ufffd","🎉","\ud800x"]]`,
		`[["é日本語","\b\f\n\r\t\/"]]`,
		`[[-0,1e-7,1E+21,-1.5e-300,123456789012345678901234567890]]`,
		`[[0,1023,1024,9999,-1,1e2,10.0,0.5]]`,
		" [ [ 1 , \"x\" ] ] \n",
		`[[1e400]]`, `[[01]]`, `[[1.]]`, `[[-]]`, `[[+1]]`, `[[.5]]`, `[["\x"]]`, `[["\u12"]]`,
		`[[{"a":1}]]`, `[[[1]]]`, `[1]`, `{}`, `[[1],]`, `[[1]] x`, `[["a`, "[[\"\x01\"]]", "[[\"\xff\"]]",
		`[["a,b]","c\"],["]]`,
		`[["\ud83c\udf89","\udc00\ud800","\ud800\u0041","\uD83C\uDF89x"]]`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rows, cells := countRows(data); rows > len(data)+1 || cells > len(data)+1 {
			t.Fatalf("countRows(%q) = %d rows, %d cells: more than the input holds", data, rows, cells)
		}
		var got Rows
		if err := got.UnmarshalJSON(data); err != nil {
			return
		}
		var want [][]any
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("decoder accepted %q, encoding/json rejects it: %v", data, err)
		}
		if !sameRows(got, want) {
			t.Fatalf("decoding %q: got %#v, encoding/json %#v", data, got, want)
		}
	})
}

// sameRows compares decoded rows exactly: floats by their bits, nil rows
// apart from empty ones.
func sameRows(got, want [][]any) bool {
	if (got == nil) != (want == nil) || len(got) != len(want) {
		return false
	}
	for i := range got {
		if (got[i] == nil) != (want[i] == nil) || len(got[i]) != len(want[i]) {
			return false
		}
		for c := range got[i] {
			g, w := got[i][c], want[i][c]
			gf, gok := g.(float64)
			wf, wok := w.(float64)
			if gok || wok {
				if !gok || !wok || math.Float64bits(gf) != math.Float64bits(wf) {
					return false
				}
			} else if g != w {
				return false
			}
		}
	}
	return true
}
