package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/server/client"
	"repro/internal/testutil"
	"repro/internal/types"
)

// The references below are the result encodings as they were before the
// one cell formatter: every cell boxed into a [][]any for encoding/json,
// and a table renderer calling Value.String and fmt's "%-*s" per cell.
// They live in this test only, to pin the formatter's bytes to theirs.

type refWireResult struct {
	Names    []string `json:"names,omitempty"`
	Kinds    []string `json:"kinds,omitempty"`
	Rows     [][]any  `json:"rows,omitempty"`
	Affected int      `json:"affected,omitempty"`
	Text     string   `json:"text,omitempty"`
	Rendered string   `json:"rendered"`
}

type refQueryResponse struct {
	Results []refWireResult `json:"results,omitempty"`
	Error   string          `json:"error,omitempty"`
}

func refToWire(r *core.Result) refWireResult {
	w := refWireResult{Affected: r.Affected, Text: r.Text, Rendered: refString(r)}
	if len(r.Cols) == 0 {
		return w
	}
	w.Names = r.Names
	for _, k := range r.Kinds {
		w.Kinds = append(w.Kinds, k.String())
	}
	n := r.NumRows()
	w.Rows = make([][]any, n)
	for i := 0; i < n; i++ {
		row := make([]any, r.NumCols())
		for c := 0; c < r.NumCols(); c++ {
			row[c] = refValueToJSON(r.Value(i, c))
		}
		w.Rows[i] = row
	}
	return w
}

func refValueToJSON(v types.Value) any {
	if v.IsNull() {
		return nil
	}
	switch v.Kind() {
	case types.KindInt, types.KindOID:
		iv, _ := v.AsInt()
		return iv
	case types.KindFloat:
		fv, _ := v.AsFloat()
		return fv
	case types.KindBool:
		return v.BoolVal()
	default:
		return v.String()
	}
}

// refEncode is the former /query body; encoding/json fails on a NaN or
// infinite cell.
func refEncode(results []*core.Result, execErr error) ([]byte, error) {
	var resp refQueryResponse
	for _, r := range results {
		resp.Results = append(resp.Results, refToWire(r))
	}
	if execErr != nil {
		resp.Error = execErr.Error()
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes(), err
}

func refString(r *core.Result) string {
	if r.Text != "" {
		return r.Text
	}
	var sb strings.Builder
	widths := make([]int, len(r.Names))
	rows := r.NumRows()
	cells := make([][]string, rows)
	for i := range widths {
		name := r.Names[i]
		if i < len(r.Dims) && r.Dims[i] {
			name = "[" + name + "]"
		}
		widths[i] = len(name)
	}
	for i := 0; i < rows; i++ {
		cells[i] = make([]string, len(r.Cols))
		for c := range r.Cols {
			s := r.Cols[c].Get(i).String()
			cells[i][c] = s
			if len(s) > widths[c] {
				widths[c] = len(s)
			}
		}
	}
	for c, name := range r.Names {
		if c > 0 {
			sb.WriteString(" | ")
		}
		if c < len(r.Dims) && r.Dims[c] {
			name = "[" + name + "]"
		}
		fmt.Fprintf(&sb, "%-*s", widths[c], name)
	}
	sb.WriteString("\n")
	for c := range r.Names {
		if c > 0 {
			sb.WriteString("-+-")
		}
		sb.WriteString(strings.Repeat("-", widths[c]))
	}
	sb.WriteString("\n")
	for i := 0; i < rows; i++ {
		for c := range r.Cols {
			if c > 0 {
				sb.WriteString(" | ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[c], cells[i][c])
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// refText is the former text-protocol answer to a batch.
func refText(results []*core.Result, execErr error) string {
	var sb strings.Builder
	for _, r := range results {
		out := refString(r)
		sb.WriteString(out)
		if !strings.HasSuffix(out, "\n") {
			sb.WriteByte('\n')
		}
	}
	if execErr != nil {
		fmt.Fprintf(&sb, "!error: %v\n", execErr)
	}
	sb.WriteString(".\n")
	return sb.String()
}

// refClientResponse is encoding/json's decoding of a /query body.
type refClientResponse struct {
	Results []struct {
		Names    []string `json:"names,omitempty"`
		Kinds    []string `json:"kinds,omitempty"`
		Rows     [][]any  `json:"rows,omitempty"`
		Affected int      `json:"affected,omitempty"`
		Text     string   `json:"text,omitempty"`
		Rendered string   `json:"rendered"`
	} `json:"results,omitempty"`
	Error string `json:"error,omitempty"`
}

// wireCheck holds one batch's answer up against the references: the
// /query body, Result.String, the text-protocol answer, and the rows the
// client decodes from the body over a real HTTP round trip.
type wireCheck struct {
	t  *testing.T
	c  *client.Client
	mu sync.Mutex
	// body is what the stand-in /query endpoint answers.
	body []byte
}

func newWireCheck(t *testing.T) *wireCheck {
	w := &wireCheck{t: t}
	hs := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, _ *http.Request) {
		w.mu.Lock()
		defer w.mu.Unlock()
		writeBody(rw, http.StatusOK, w.body)
	}))
	t.Cleanup(hs.Close)
	w.c = client.New(strings.TrimPrefix(hs.URL, "http://"))
	return w
}

// check reports a mismatch with label, which names the seed or the SQL.
func (w *wireCheck) check(label string, results []*core.Result, execErr error) {
	t := w.t
	t.Helper()
	enc := getEncoder()
	got := bytes.Clone(enc.response(results, execErr))
	enc.release()
	want, jerr := refEncode(results, execErr)
	if finite(results) {
		if jerr != nil {
			t.Fatalf("%s: reference encoding failed: %v", label, jerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: /query body differs from encoding/json's\n%s", label, firstDiff(got, want))
		}
	} else if !json.Valid(got) {
		t.Fatalf("%s: /query body with a non-finite float is not JSON: %q", label, got)
	}

	for i, r := range results {
		if got, want := r.String(), refString(r); got != want {
			t.Fatalf("%s: result %d: String() differs from the fmt renderer\n%s", label, i, firstDiff([]byte(got), []byte(want)))
		}
	}

	var text bytes.Buffer
	tw := bufio.NewWriter(&text)
	var te textEncoder
	te.answer(tw, results, execErr)
	_ = tw.Flush()
	if want := refText(results, execErr); text.String() != want {
		t.Fatalf("%s: text-protocol answer differs\n%s", label, firstDiff(text.Bytes(), []byte(want)))
	}

	w.mu.Lock()
	w.body = got
	w.mu.Unlock()
	rs, cerr := w.c.Exec("SELECT 1")
	var ref refClientResponse
	if err := json.Unmarshal(got, &ref); err != nil {
		t.Fatalf("%s: encoding/json cannot decode the body: %v", label, err)
	}
	if ref.Error != "" {
		if cerr == nil || cerr.Error() != ref.Error {
			t.Fatalf("%s: client error %v, body says %q", label, cerr, ref.Error)
		}
	} else if cerr != nil {
		t.Fatalf("%s: client: %v", label, cerr)
	}
	if len(rs) != len(ref.Results) {
		t.Fatalf("%s: client decoded %d results, encoding/json %d", label, len(rs), len(ref.Results))
	}
	for i, want := range ref.Results {
		got := rs[i]
		// The one difference on purpose: non-finite dbl cells come back as
		// floats, where encoding/json leaves their strings.
		for c, k := range want.Kinds {
			for _, row := range want.Rows {
				if s, ok := row[c].(string); ok && k == "dbl" {
					switch s {
					case "NaN":
						row[c] = math.NaN()
					case "+Inf":
						row[c] = math.Inf(1)
					case "-Inf":
						row[c] = math.Inf(-1)
					}
				}
			}
		}
		if !reflect.DeepEqual(got.Names, want.Names) || !reflect.DeepEqual(got.Kinds, want.Kinds) ||
			got.Affected != want.Affected || got.Text != want.Text || got.Rendered != want.Rendered {
			t.Fatalf("%s: result %d: client header %+v, encoding/json %+v", label, i, got, want)
		}
		if !sameRows(got.Rows, want.Rows) {
			t.Fatalf("%s: result %d: client rows %#v, encoding/json %#v", label, i, got.Rows, want.Rows)
		}
	}
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

func finite(results []*core.Result) bool {
	for _, r := range results {
		for _, col := range r.Cols {
			if col.Kind() != types.KindFloat {
				continue
			}
			for i, v := range col.DecodedFloats() {
				if !col.IsNull(i) && (math.IsNaN(v) || math.IsInf(v, 0)) {
					return false
				}
			}
		}
	}
	return true
}

func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := max(0, i-40)
	return fmt.Sprintf("first difference at byte %d:\n got  %q\n want %q", i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
}

// TestWireMatchesReferenceOnGoldenScripts runs every statement of the
// golden scripts embedded and holds each answer up against the references.
func TestWireMatchesReferenceOnGoldenScripts(t *testing.T) {
	w := newWireCheck(t)
	paths, err := testutil.GoldenScripts(filepath.Join("..", "core", "testdata", "queries"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden scripts: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		dir := ""
		var db *core.DB
		if testutil.NeedsDir(string(src)) {
			dir = filepath.Join(t.TempDir(), "db")
			if db, err = core.OpenDB(dir, core.OpenOptions{}); err != nil {
				t.Fatal(err)
			}
		} else {
			db = core.New()
		}
		for _, stmt := range testutil.SplitScript(string(src)) {
			if stmt == testutil.ReopenStmt {
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
				if db, err = core.OpenDB(dir, core.OpenOptions{}); err != nil {
					t.Fatal(err)
				}
				continue
			}
			results, err := db.Exec(stmt)
			w.check(fmt.Sprintf("%s: %s", filepath.Base(path), stmt), results, err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWireMatchesReferenceOnRandomResults covers what the scripts do not
// reach: every kind with NULLs, empty and zero-column results, floats at
// encoding/json's 'e'/'f' boundaries, strings encoding/json escapes,
// multibyte names and cells, and batches with affected counts, status
// text and an error.
func TestWireMatchesReferenceOnRandomResults(t *testing.T) {
	w := newWireCheck(t)
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var results []*core.Result
		for n := 1 + rng.Intn(3); n > 0; n-- {
			results = append(results, randomResult(rng, seed%4 == 0))
		}
		var execErr error
		if rng.Intn(4) == 0 {
			execErr = errors.New(pick(rng, randomStrings))
		}
		w.check(fmt.Sprintf("seed %d", seed), results, execErr)
	}
}

var (
	randomFloats = []float64{0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 123.456, -2.5e-3,
		1e-7, 1e-6, 9.999999e-7, 1e-5, 1e-4, 1e6, 1e20, 1e21, 9.99999999e20, -1e21, 1.5e300,
		5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 123456789012345680000}
	nonFiniteFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	randomStrings   = []string{"", "x", "null", "NaN", `a"b`, `back\slash`, "<tag>&amp;", "\x00\x01\x1f\x7f",
		"\b\f\n\r\t", "line\u2028sep\u2029", "bad\xffutf8\xfe", "\xc3", "température", "日本語",
		"emoji 🎉", "combining e\u0301", "tab\tin|pipe", strings.Repeat("w", 40)}
	randomNames = []string{"x", "y", "v", "count", "température", "日本", `q"uote`, "<b>", "", "a b"}
	randomKinds = []types.Kind{types.KindVoid, types.KindOID, types.KindInt, types.KindFloat, types.KindBool, types.KindStr}
)

func pick[T any](rng *rand.Rand, from []T) T { return from[rng.Intn(len(from))] }

// randomResult builds a result of random shape; nonFinite lets float
// columns hold NaN and infinities.
func randomResult(rng *rand.Rand, nonFinite bool) *core.Result {
	switch rng.Intn(10) {
	case 0:
		return &core.Result{Text: pick(rng, randomStrings) + "\n", Affected: rng.Intn(3)}
	case 1:
		return &core.Result{Affected: rng.Intn(3)}
	}
	r := &core.Result{Affected: rng.Intn(2) * rng.Intn(100)}
	ncols, nrows := 1+rng.Intn(4), rng.Intn(7)
	for c := 0; c < ncols; c++ {
		kind := pick(rng, randomKinds)
		var b *bat.BAT
		switch kind {
		case types.KindVoid:
			b = bat.NewVoid(types.OID(rng.Intn(1000)), nrows)
		case types.KindOID, types.KindInt:
			vals := make([]int64, nrows)
			for i := range vals {
				vals[i] = rng.Int63n(2000) - 1000
				if rng.Intn(5) == 0 {
					vals[i] = pick(rng, []int64{0, math.MaxInt64, math.MinInt64, -1})
				}
			}
			b = bat.FromIntsOfKind(vals, kind)
		case types.KindFloat:
			vals := make([]float64, nrows)
			for i := range vals {
				vals[i] = pick(rng, randomFloats)
				if rng.Intn(3) == 0 {
					vals[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
				}
				if nonFinite && rng.Intn(3) == 0 {
					vals[i] = pick(rng, nonFiniteFloats)
				}
			}
			b = bat.FromFloats(vals)
		case types.KindBool:
			vals := make([]bool, nrows)
			for i := range vals {
				vals[i] = rng.Intn(2) == 0
			}
			b = bat.FromBools(vals)
		case types.KindStr:
			vals := make([]string, nrows)
			for i := range vals {
				vals[i] = pick(rng, randomStrings)
			}
			b = bat.FromStrings(vals)
		}
		if rng.Intn(3) == 0 {
			for i := 0; i < nrows; i++ {
				if rng.Intn(3) == 0 {
					b.SetNull(i, true)
				}
			}
		}
		r.Names = append(r.Names, pick(rng, randomNames))
		r.Kinds = append(r.Kinds, kind)
		r.Dims = append(r.Dims, rng.Intn(3) == 0)
		r.Cols = append(r.Cols, b)
	}
	return r
}

// TestEncodeTileAllocs pins the server-side encode of a 4 096-cell tile
// read to a fixed handful of allocations: pooled buffers and no boxing of
// cells.
func TestEncodeTileAllocs(t *testing.T) {
	db := core.New()
	db.MustQuery(`CREATE ARRAY grid (x INT DIMENSION[0:1:64], y INT DIMENSION[0:1:64], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE grid SET v = (x * 7 + y * 13) MOD 256`)
	res := db.MustQuery(`SELECT [x], [y], AVG(v) FROM grid GROUP BY grid[x-1:x+2][y-1:y+2]`)
	if res.NumRows() != 4096 {
		t.Fatalf("tile read has %d cells, want 4096", res.NumRows())
	}
	results := []*core.Result{res}
	var enc encoder
	enc.response(results, nil) // grow the buffers once
	allocs := testing.AllocsPerRun(20, func() { enc.response(results, nil) })
	if allocs > 2 {
		t.Fatalf("encoding a 4096-cell tile read allocates %.0f times, want at most 2", allocs)
	}
}

// TestWriteJSONEncodeFailure checks that a body encoding/json rejects
// becomes a clean 500 with an error body, not a 200 cut short.
func TestWriteJSONEncodeFailure(t *testing.T) {
	rr := httptest.NewRecorder()
	writeJSON(rr, http.StatusOK, map[string]float64{"ratio": math.NaN()})
	var body errorResponse
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("error body is not JSON: %v (%q)", err, rr.Body.String())
	}
	if rr.Code != http.StatusInternalServerError || !strings.Contains(body.Error, "unsupported value") {
		t.Fatalf("HTTP %d %q, want 500 naming the unsupported value", rr.Code, body.Error)
	}
	if got, want := rr.Header().Get("Content-Length"), fmt.Sprint(rr.Body.Len()); got != want {
		t.Fatalf("Content-Length %q, body is %s bytes", got, want)
	}
}
