package mal

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
	"repro/internal/par"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/types"
)

func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb := catalog.NewTable("t", []catalog.Column{
		{Name: "a", Type: types.SQLInt},
		{Name: "s", Type: types.SQLVarchar},
	})
	for i := 0; i < 5; i++ {
		tb.Bats[0].AppendInt(int64(i))
		tb.Bats[1].AppendStr(strings.Repeat("x", i))
	}
	if err := cat.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	a, err := catalog.NewArray("m", shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 3},
		{Name: "y", Start: 0, Step: 1, Stop: 3},
	}, []catalog.Column{
		{Name: "v", Type: types.SQLInt, Default: types.Int(1), HasDef: true},
	}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddArray(a); err != nil {
		t.Fatal(err)
	}
	return cat
}

func compileQuery(t *testing.T, cat *catalog.Catalog, q string) *Program {
	t.Helper()
	stmt, err := parser.ParseOne(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	plan, err := rel.NewBinder(cat).BindSelect(stmt.(*ast.Select))
	if err != nil {
		t.Fatalf("%s: bind: %v", q, err)
	}
	prog, err := Compile(rel.Optimize(plan))
	if err != nil {
		t.Fatalf("%s: compile: %v", q, err)
	}
	return prog
}

func runQuery(t *testing.T, cat *catalog.Catalog, q string) (*Program, *Ctx) {
	t.Helper()
	prog := compileQuery(t, cat, q)
	ctx, err := RunCtx(context.Background(), prog)
	if err != nil {
		t.Fatalf("%s: run: %v", q, err)
	}
	return prog, ctx
}

func TestCompileAndRunScan(t *testing.T) {
	cat := testCatalog(t)
	prog, ctx := runQuery(t, cat, `SELECT a FROM t WHERE a >= 3`)
	col := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	if col.Len() != 2 || col.Ints()[0] != 3 || col.Ints()[1] != 4 {
		t.Errorf("result: %v", col.Ints())
	}
}

func TestProgramTextContainsPipeline(t *testing.T) {
	cat := testCatalog(t)
	prog := compileQuery(t, cat, `SELECT a + 1 FROM t WHERE a > 0 ORDER BY a DESC LIMIT 2`)
	text := prog.String()
	for _, frag := range []string{
		"function user.main();",
		"sql.tablecand",
		"sql.bind",
		"batcalc.bin",
		// WHERE a > 0 decomposes into a fused candidate selection instead
		// of a boolean column + boolselect.
		"algebra.thetaselect",
		"algebra.projection",
		"algebra.sort",
		"bat.slice",
		"sql.resultSet",
		"end user.main;",
	} {
		if !strings.Contains(text, frag) {
			t.Errorf("program lacks %q:\n%s", frag, text)
		}
	}
}

func TestCompileTileUsesArrayModule(t *testing.T) {
	cat := testCatalog(t)
	prog := compileQuery(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+2][y:y+2]`)
	text := prog.String()
	if !strings.Contains(text, "array.tileagg") {
		t.Errorf("missing tileagg:\n%s", text)
	}
	if !strings.Contains(text, `[+0:+2)[+0:+2)`) {
		t.Errorf("tile spec not rendered:\n%s", text)
	}
}

func TestRunGroupBy(t *testing.T) {
	cat := testCatalog(t)
	prog, ctx := runQuery(t, cat, `SELECT a % 2, COUNT(*) FROM t GROUP BY a % 2`)
	keys := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	counts := ctx.Vars[prog.ResultVars[1]].(*bat.BAT)
	if keys.Len() != 2 {
		t.Fatalf("groups: %d", keys.Len())
	}
	total := counts.Ints()[0] + counts.Ints()[1]
	if total != 5 {
		t.Errorf("total count = %d", total)
	}
}

func TestRunGlobalAggregate(t *testing.T) {
	cat := testCatalog(t)
	prog, ctx := runQuery(t, cat, `SELECT SUM(a), COUNT(*) FROM t`)
	sum := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	cnt := ctx.Vars[prog.ResultVars[1]].(*bat.BAT)
	if sum.Ints()[0] != 10 || cnt.Ints()[0] != 5 {
		t.Errorf("sum=%v count=%v", sum.Ints(), cnt.Ints())
	}
}

func TestRunCellFetch(t *testing.T) {
	cat := testCatalog(t)
	prog, ctx := runQuery(t, cat, `SELECT m[x-1][y] FROM m WHERE x = 0 AND y = 0`)
	col := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	if col.Len() != 1 || !col.IsNull(0) {
		t.Errorf("OOB fetch should be null: %v", col)
	}
}

func TestRunUnion(t *testing.T) {
	cat := testCatalog(t)
	prog, ctx := runQuery(t, cat, `SELECT a FROM t WHERE a = 0 UNION ALL SELECT a FROM t WHERE a = 4`)
	col := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	if col.Len() != 2 || col.Ints()[0] != 0 || col.Ints()[1] != 4 {
		t.Errorf("union: %v", col.Ints())
	}
}

func TestResultMetadata(t *testing.T) {
	cat := testCatalog(t)
	prog := compileQuery(t, cat, `SELECT [x], [y], v AS val FROM m`)
	if len(prog.ResultNames) != 3 || prog.ResultNames[2] != "val" {
		t.Errorf("names: %v", prog.ResultNames)
	}
	if !prog.ResultDims[0] || !prog.ResultDims[1] || prog.ResultDims[2] {
		t.Errorf("dims: %v", prog.ResultDims)
	}
	if prog.ResultKinds[2] != types.KindInt {
		t.Errorf("kinds: %v", prog.ResultKinds)
	}
}

func TestArgRendering(t *testing.T) {
	cases := map[string]Arg{
		"X_3":    V(3),
		"42":     K(types.Int(42)),
		`"hi"`:   K(types.Str("hi")),
		"nil":    K(types.NullUnknown()),
		`"sum"`:  X(gdk.AggKind("sum")),
		":lng":   X(types.KindInt),
		"[1,2]":  X([]int{1, 2}),
		"[true]": X([]bool{true}),
		`"op"`:   X("op"),
		"7":      X(7),
	}
	for want, arg := range cases {
		if got := arg.String(); got != want {
			t.Errorf("Arg %+v renders %q, want %q", arg, got, want)
		}
	}
}

func TestInterpErrors(t *testing.T) {
	p := &Program{}
	if _, err := RunCtx(context.Background(), p); err != nil {
		t.Errorf("empty program: %v", err)
	}
	p.Emit("nosuch", "op")
	if _, err := RunCtx(context.Background(), p); err == nil {
		t.Error("a program not linked must error")
	}
	link(p)
	if _, err := RunCtx(context.Background(), p); err == nil || !strings.Contains(err.Error(), "unknown MAL instruction") {
		t.Errorf("unknown instruction: err = %v", err)
	}
}

func TestSlabInPlan(t *testing.T) {
	cat := testCatalog(t)
	prog := compileQuery(t, cat, `SELECT v FROM m WHERE x = 1`)
	text := prog.String()
	if !strings.Contains(text, "array.slab") {
		t.Errorf("slab pushdown missing from MAL:\n%s", text)
	}
	ctx, err := RunCtx(context.Background(), prog)
	if err != nil {
		t.Fatal(err)
	}
	col := ctx.Vars[prog.ResultVars[0]].(*bat.BAT)
	if col.Len() != 3 {
		t.Errorf("slab returned %d cells, want 3", col.Len())
	}
}

// TestDeadCodeStarJoin: a 3-way join grouped on two columns projects
// every column of both sides of each join; the dead-code pass leaves
// only the projections and binds something reads, and the program still
// answers.
func TestDeadCodeStarJoin(t *testing.T) {
	cat := catalog.New()
	add := func(name string, cols []string, rows [][]int64) {
		defs := make([]catalog.Column, len(cols))
		for i, c := range cols {
			defs[i] = catalog.Column{Name: c, Type: types.SQLInt}
		}
		tb := catalog.NewTable(name, defs)
		for _, r := range rows {
			for i, v := range r {
				tb.Bats[i].AppendInt(v)
			}
		}
		if err := cat.AddTable(tb); err != nil {
			t.Fatal(err)
		}
	}
	add("obs", []string{"id", "station", "day", "flag"}, [][]int64{{0, 1, 0, 5}, {1, 2, 0, 6}, {2, 1, 1, 7}, {3, 3, 1, 8}})
	add("station", []string{"id", "region", "elev"}, [][]int64{{1, 10, 0}, {2, 10, 900}, {3, 11, 5}})
	add("region", []string{"id", "zone"}, [][]int64{{10, 0}, {11, 1}})
	prog, ctx := runQuery(t, cat, `SELECT r.id, s.elev, COUNT(*) FROM obs o, station s, region r `+
		`WHERE o.station = s.id AND s.region = r.id GROUP BY r.id, s.elev`)
	read := make([]bool, prog.NVars)
	for _, v := range prog.ResultVars {
		read[v] = true
	}
	for _, in := range prog.Instrs {
		for _, a := range in.Args {
			if a.IsVar() {
				read[a.Var] = true
			}
		}
	}
	for _, in := range prog.Instrs {
		if pure(&in) && !read[in.Rets[0]] {
			t.Errorf("unread %s in\n%s", in, prog)
		}
	}
	if got := ctx.Vars[prog.ResultVars[2]].(*bat.BAT); got.Len() != 3 {
		t.Errorf("%d groups, want 3:\n%s", got.Len(), prog)
	}
}

// TestRunRecyclesDeadIntermediates: Scenario 2's edge detection computes
// seven 64K-cell integer columns, each read by the next instruction or
// the one after. Run drops each at its last use and later kernels reuse
// its storage, so the run allocates about three such columns, not seven,
// and only the results are left in Vars. The answer is the plain loop's.
func TestRunRecyclesDeadIntermediates(t *testing.T) {
	const w = 256
	cat := catalog.New()
	a, err := catalog.NewArray("img", shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: w},
		{Name: "y", Start: 0, Step: 1, Stop: w},
	}, []catalog.Column{{Name: "v", Type: types.SQLInt}}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	v := make([]int64, w*w)
	for i := range v {
		v[i] = int64(i*7919) % 256
	}
	a.AttrBats[0] = bat.FromInts(v)
	if err := cat.AddArray(a); err != nil {
		t.Fatal(err)
	}
	prog := compileQuery(t, cat, `SELECT [x], [y], ABS(v - img[x-1][y].v) + ABS(v - img[x][y-1].v) FROM img`)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ctx, err := Run(context.Background(), prog, par.NewJob(1, 0), nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, col := after.TotalAlloc-before.TotalAlloc, uint64(8*w*w); got > 5*col {
		t.Errorf("run allocated %d bytes, %.1f columns; want about 3", got, float64(got)/float64(col))
	}
	results := map[int]bool{}
	for _, r := range prog.ResultVars {
		results[r] = true
	}
	for i, x := range ctx.Vars {
		if x != nil && !results[i] {
			t.Errorf("X_%d is still in Vars after its last use", i)
		}
	}
	got := ctx.Vars[prog.ResultVars[2]].(*bat.BAT)
	abs := func(d int64) int64 { return max(d, -d) }
	for x := 0; x < w; x++ {
		for y := 0; y < w; y++ {
			p := x*w + y
			if x == 0 || y == 0 {
				if !got.IsNull(p) {
					t.Fatalf("cell (%d,%d) = %v, want NULL", x, y, got.Get(p))
				}
				continue
			}
			if want := abs(v[p]-v[p-w]) + abs(v[p]-v[p-1]); got.IsNull(p) || got.Ints()[p] != want {
				t.Fatalf("cell (%d,%d) = %v, want %d", x, y, got.Get(p), want)
			}
		}
	}
}

// TestRecycleKeepsSharedStorage: a projection through a dense candidate
// list returns its input column (the whole range) or a slice of it (a
// run), so the input dies while a result still reads its storage. Run
// must not recycle that storage; built with -tags malpoison, recycling it
// would overwrite the result.
func TestRecycleKeepsSharedStorage(t *testing.T) {
	cat := testCatalog(t)
	for _, c := range []struct {
		q    string
		rows int
		want int64
	}{
		{`SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+2][y:y+2] HAVING x >= 0`, 9, -1},
		{`SELECT [x], [y], s FROM (SELECT x, y, v + 1 AS s FROM m) AS q WHERE x = 2`, 3, 2},
	} {
		prog, ctx := runQuery(t, cat, c.q)
		if !strings.Contains(prog.String(), "algebra.projection") {
			t.Fatalf("%s: no projection in\n%s", c.q, prog)
		}
		col := ctx.Vars[prog.ResultVars[2]].(*bat.BAT)
		if col.Len() != c.rows {
			t.Fatalf("%s: %d rows, want %d", c.q, col.Len(), c.rows)
		}
		for i, got := range col.Ints() {
			want := c.want
			if want < 0 { // a 2x2 tile of ones, clipped at the far edges
				x, y := i/3, i%3
				want = int64(min(2, 3-x) * min(2, 3-y))
			}
			if got != want {
				t.Errorf("%s: row %d = %d, want %d", c.q, i, got, want)
			}
		}
	}
}
