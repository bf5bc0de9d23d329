package main

// Every call into an engine package lives in this file, and only through
// the engine's public entry points: sciql.New/Open, Session.QueryContext,
// parser.Parse, rel.NewBinder(db.Snapshot()).BindSelect, rel.Optimize,
// rel.EstRows, mal.Compile, mal.RunCtx, wal.Create/Log.Append,
// server.New/Start/Close, client.Query/Health, the DB's CommitStats /
// WALSize / EncodingStats / Save / CheckIntegrity / ReadAttrInts / Close,
// vault.LoadImage, img.RemoteSensing and the scenarios package's query
// texts and native baselines. No process-global setter is used: the
// thread width is whatever runtime.GOMAXPROCS says. The rest of the
// benchmark sees only the small types declared here, so an engine change
// that keeps these entry points never has to touch the benchmark.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	sciql "repro"
	"repro/internal/img"
	"repro/internal/mal"
	"repro/internal/rel"
	"repro/internal/scenarios"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/vault"
	"repro/internal/wal"
)

// flushPolicy is the durability configuration of every directory-backed
// database the benchmark opens: sciql.Open's defaults, unchanged.
const flushPolicy = "sciql.Open defaults: group commit on, one WAL fsync per commit batch, checkpoint at 4 MiB of WAL"

// engine is one database with one session on it.
type engine struct {
	db   *sciql.DB
	sess *sciql.Session
}

func openMem() *engine {
	db := sciql.New()
	return &engine{db: db, sess: db.NewSession()}
}

func openDir(dir string) (*engine, error) {
	db, err := sciql.Open(dir)
	if err != nil {
		return nil, err
	}
	return &engine{db: db, sess: db.NewSession()}, nil
}

func (e *engine) close() error { return e.db.Close() }

// query runs one statement the way an embedded user does.
func (e *engine) query(sql string) (result, error) {
	r, err := e.sess.QueryContext(context.Background(), sql)
	return result{r: r}, err
}

func (e *engine) walSize() int64 { return e.db.WALSize() }

func (e *engine) commitStats() (commits, syncs int64) { return e.db.CommitStats() }

func (e *engine) save() error { return e.db.Save() }

func (e *engine) encodingRatio() float64 { return e.db.EncodingStats().Ratio }

func (e *engine) checkIntegrity() error { return e.db.CheckIntegrity() }

// readInts copies an integer array attribute in cell order (x-major).
func (e *engine) readInts(array, attr string) ([]int64, []bool, error) {
	return e.db.ReadAttrInts(array, attr)
}

// result is a statement result from either the embedded engine or the
// HTTP client, reduced to what the oracles read.
type result struct {
	r *sciql.Result
	w *client.Result
}

func (r result) rows() int {
	if r.w != nil {
		return len(r.w.Rows)
	}
	return r.r.NumRows()
}

func (r result) affected() int {
	if r.w != nil {
		return r.w.Affected
	}
	return r.r.Affected
}

// floatAt reads a numeric cell; ok is false for NULL.
func (r result) floatAt(row, col int) (v float64, ok bool) {
	if r.w != nil {
		v, ok = r.w.Rows[row][col].(float64)
		return v, ok
	}
	val := r.r.Value(row, col)
	if val.IsNull() {
		return 0, false
	}
	v, err := val.AsFloat()
	return v, err == nil
}

// intAt reads an integer cell; ok is false for NULL.
func (r result) intAt(row, col int) (int64, bool) {
	if r.w != nil {
		f, ok := r.floatAt(row, col)
		return int64(f), ok
	}
	val := r.r.Value(row, col)
	if val.IsNull() {
		return 0, false
	}
	v, err := val.AsInt()
	return v, err == nil
}

// ------------------------------------------------------------- replay

// stmtKind says which layers a statement's time can be split into from
// outside the engine; the value prefixes the kind's keys in opLayers.
type stmtKind string

const (
	kindSelect       stmtKind = "sel" // parse, bind, optimize, compile, run, assemble
	kindInsertSelect stmtKind = "ins" // the source SELECT's layers, then DML apply
	kindDML          stmtKind = "dml" // UPDATE, DELETE, INSERT VALUES: parse, then DML apply
	kindDDL          stmtKind = "ddl" // parse, then catalog work
)

// replayed is what one statement's pass through the public pipeline
// functions produced besides its spans.
type replayed struct {
	kind    stmtKind
	instrs  int     // MAL instructions executed
	estRows float64 // rel.EstRows of the optimized plan's top node
	rows    int     // rows the plan actually produced
}

// replay pushes a statement through the pipeline of the paper's Fig. 2
// one public function at a time, recording a span around each. Writes are
// never applied: for INSERT ... SELECT only the source query runs, other
// DML and DDL are parsed and nothing more.
func (e *engine) replay(sql string, tr *tracer, op, si, parent int) (replayed, error) {
	var out replayed
	id := tr.begin("parser.parse", op, si, parent)
	stmts, err := parser.Parse(sql)
	tr.end(id)
	if err != nil {
		return out, err
	}
	if len(stmts) != 1 {
		return out, fmt.Errorf("replay wants one statement, got %d", len(stmts))
	}
	var sel *ast.Select
	switch s := stmts[0].(type) {
	case *ast.Select:
		out.kind, sel = kindSelect, s
	case *ast.Insert:
		out.kind = kindDML
		if s.Query != nil {
			out.kind, sel = kindInsertSelect, s.Query
		}
	case *ast.Update, *ast.Delete:
		out.kind = kindDML
	default:
		out.kind = kindDDL
	}
	if sel == nil {
		return out, nil
	}

	id = tr.begin("rel.bind", op, si, parent)
	plan, err := rel.NewBinder(e.db.Snapshot()).BindSelect(sel)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.begin("rel.optimize", op, si, parent)
	plan = rel.Optimize(plan)
	tr.end(id)
	out.estRows = rel.EstRows(plan)

	id = tr.begin("mal.compile", op, si, parent)
	prog, err := mal.Compile(plan)
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.instrs = len(prog.Instrs)

	id = tr.begin("mal.run", op, si, parent)
	mctx, err := mal.RunCtx(context.Background(), prog)
	tr.end(id)
	if err != nil {
		return out, err
	}
	if len(prog.ResultVars) > 0 {
		if col, ok := mctx.Vars[prog.ResultVars[0]].(interface{ Len() int }); ok {
			out.rows = col.Len()
		}
	}
	return out, nil
}

// appendProbe times n raw WAL appends of one recSize-byte record into a
// fresh log in dir: this sandbox's append+fsync floor, with no engine
// above it. Returned samples are microseconds.
func appendProbe(dir string, recSize, n int) ([]float64, error) {
	path := filepath.Join(dir, "probe.wal")
	log, err := wal.Create(path, 1)
	if err != nil {
		return nil, err
	}
	rec := make([]byte, recSize)
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t := time.Now()
		if err := log.Append(rec); err != nil {
			log.Close()
			return nil, err
		}
		out = append(out, us(time.Since(t)))
	}
	if err := log.Close(); err != nil {
		return nil, err
	}
	return out, os.Remove(path)
}

// ------------------------------------------------------------- server

// served is a sciqld server over an engine, on real loopback TCP.
type served struct {
	srv  *server.Server
	addr string
}

func serve(e *engine) (*served, error) {
	srv := server.New(e.db, server.Config{Addr: "127.0.0.1:0"})
	if err := srv.Start(); err != nil {
		return nil, err
	}
	return &served{srv: srv, addr: srv.Addr().String()}, nil
}

func (s *served) close() error { return s.srv.Close() }

// remote is one HTTP/JSON client connection.
type remote struct{ c *client.Client }

func dial(addr string) *remote { return &remote{c: client.New(addr)} }

func (c *remote) query(sql string) (result, error) {
	r, err := c.c.Query(sql)
	return result{w: r}, err
}

func (c *remote) health() (queries, rejected int64, err error) {
	h, err := c.c.Health()
	if err != nil {
		return 0, 0, err
	}
	return h.Queries, h.Rejected, nil
}

// ------------------------------------------------------ scenario data

// image is a grey-scale raster stored as the array
// name(x INT DIMENSION[0:1:W], y INT DIMENSION[0:1:H], v INT).
type image struct{ m *img.Image }

func remoteSensing(w, h int, seed uint64) image {
	return image{m: img.RemoteSensing(w, h, seed)}
}

func (e *engine) loadImage(name string, im image) error {
	return vault.LoadImage(e.db, name, im.m)
}

// cells returns the pixels in array cell order: position x*H + y.
func (im image) cells() []int64 {
	out := make([]int64, im.m.W*im.m.H)
	for x := 0; x < im.m.W; x++ {
		for y := 0; y < im.m.H; y++ {
			out[x*im.m.H+y] = int64(im.m.At(x, y))
		}
	}
	return out
}

// imageOp is one read-only Scenario 2 operation with its native Go
// baseline. native computes the reference result and keeps it; verify
// compares a query result with it cell by cell.
type imageOp struct {
	class  string
	sql    string
	cells  int // cells (rows for the histogram) a correct result holds
	native func()
	verify func(result) error
}

// imageReadOps returns the six read-only operations of the image-read
// workload over the named array holding im.
func imageReadOps(array string, im image) []imageOp {
	m := im.m
	raster := func(class, sql string, w, h int, native func(*img.Image) *img.Image) imageOp {
		var want *img.Image
		return imageOp{class: class, sql: sql, cells: w * h,
			native: func() { want = native(m) },
			verify: func(res result) error {
				got, err := vault.ResultImage(res.r)
				if err != nil {
					return err
				}
				if !got.Equal(want) {
					return fmt.Errorf("%s: result differs from the native image", class)
				}
				return nil
			}}
	}
	var hist map[int64]int64
	return []imageOp{
		raster("invert", scenarios.InvertQuery(array), m.W, m.H, scenarios.NativeInvert),
		raster("edge", scenarios.EdgeDetectQuery(array), m.W, m.H, scenarios.NativeEdgeDetect),
		raster("smooth", scenarios.SmoothQuery(array), m.W, m.H, scenarios.NativeSmooth),
		raster("reduce", scenarios.ReduceQuery(array), (m.W+1)/2, (m.H+1)/2, scenarios.NativeReduce),
		raster("rotate", scenarios.RotateQuery(array, m.W), m.H, m.W, scenarios.NativeRotate),
		{class: "histogram", sql: scenarios.HistogramQuery(array),
			native: func() { hist = scenarios.NativeHistogram(m) },
			verify: func(res result) error {
				if res.rows() != len(hist) {
					return fmt.Errorf("histogram: %d bins, native has %d", res.rows(), len(hist))
				}
				for i := 0; i < res.rows(); i++ {
					v, _ := res.intAt(i, 0)
					c, _ := res.intAt(i, 1)
					if hist[v] != c {
						return fmt.Errorf("histogram: bin %d holds %d, native %d", v, c, hist[v])
					}
				}
				return nil
			}},
	}
}

// lifeGame is a Game of Life board held twice: as a SciQL array advanced
// by the paper's one-statement step, and as the native Go board.
type lifeGame struct {
	sql    *scenarios.Life
	native *scenarios.NativeLife
}

func newLifeGame(e *engine, w, h int, alive [][2]int) (*lifeGame, error) {
	l, err := scenarios.NewLife(e.db, "life", w, h)
	if err != nil {
		return nil, err
	}
	if err := l.Seed(alive); err != nil {
		return nil, err
	}
	n := scenarios.NewNativeLife(w, h)
	n.Seed(alive)
	return &lifeGame{sql: l, native: n}, nil
}

// lifeStepSQL is the paper's one-statement generation step.
func lifeStepSQL() string { return (&scenarios.Life{Name: "life"}).StepQuery() }

func (g *lifeGame) nativeStep() { g.native.Step() }

// verify compares the array with the native board, both advanced the same
// number of generations.
func (g *lifeGame) verify() error {
	got, err := g.sql.Board()
	if err != nil {
		return err
	}
	want := g.native.Board()
	for x := range want {
		for y := range want[x] {
			if got[x][y] != want[x][y] {
				return fmt.Errorf("life: cell (%d,%d) is %v, native board has %v", x, y, got[x][y], want[x][y])
			}
		}
	}
	return nil
}
