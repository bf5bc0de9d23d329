package mal

import (
	"context"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/gdk"
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
	v := p.Emit("nosuch", "op")
	_ = v
	if _, err := RunCtx(context.Background(), p); err == nil {
		t.Error("unknown instruction must error")
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
