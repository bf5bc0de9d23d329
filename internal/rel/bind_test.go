package rel

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/types"
)

// testCatalog builds a catalog with one table and one array.
func testCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	tb := catalog.NewTable("items", []catalog.Column{
		{Name: "id", Type: types.SQLInt},
		{Name: "name", Type: types.SQLVarchar},
		{Name: "price", Type: types.SQLDouble},
	})
	if err := cat.AddTable(tb); err != nil {
		t.Fatal(err)
	}
	a, err := catalog.NewArray("m", shape.Shape{
		{Name: "x", Start: 0, Step: 1, Stop: 4},
		{Name: "y", Start: 0, Step: 1, Stop: 4},
	}, []catalog.Column{
		{Name: "v", Type: types.SQLInt, Default: types.Int(0), HasDef: true},
	}, []bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if err := cat.AddArray(a); err != nil {
		t.Fatal(err)
	}
	return cat
}

func bindQuery(t *testing.T, cat *catalog.Catalog, q string) Node {
	t.Helper()
	stmt, err := parser.ParseOne(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	n, err := NewBinder(cat).BindSelect(stmt.(*ast.Select))
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return n
}

func bindErr(t *testing.T, cat *catalog.Catalog, q, frag string) {
	t.Helper()
	stmt, err := parser.ParseOne(q)
	if err != nil {
		t.Fatalf("%s: parse: %v", q, err)
	}
	_, err = NewBinder(cat).BindSelect(stmt.(*ast.Select))
	if err == nil {
		t.Fatalf("%s: expected bind error containing %q", q, frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Errorf("%s: error %q lacks %q", q, err, frag)
	}
}

func TestBindPlainProjection(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT name, price * 2 AS p2 FROM items`)
	proj, ok := n.(*Project)
	if !ok {
		t.Fatalf("got %T", n)
	}
	if len(proj.Exprs) != 2 || proj.OutNames[1] != "p2" {
		t.Errorf("proj = %v names %v", proj.Exprs, proj.OutNames)
	}
	if proj.Exprs[0].Kind() != types.KindStr || proj.Exprs[1].Kind() != types.KindFloat {
		t.Errorf("kinds: %v %v", proj.Exprs[0].Kind(), proj.Exprs[1].Kind())
	}
}

func TestBindTypeInference(t *testing.T) {
	cat := testCatalog(t)
	cases := map[string]types.Kind{
		`SELECT id + 1 FROM items`:                               types.KindInt,
		`SELECT id + 1.5 FROM items`:                             types.KindFloat,
		`SELECT id > 1 FROM items`:                               types.KindBool,
		`SELECT name || 'x' FROM items`:                          types.KindStr,
		`SELECT CASE WHEN id > 1 THEN 1.5 ELSE 0 END FROM items`: types.KindFloat,
		`SELECT CAST(price AS INT) FROM items`:                   types.KindInt,
		`SELECT COUNT(*) FROM items`:                             types.KindInt,
		`SELECT AVG(id) FROM items`:                              types.KindFloat,
		`SELECT SUM(price) FROM items`:                           types.KindFloat,
	}
	for q, want := range cases {
		n := bindQuery(t, cat, q)
		if got := n.Schema()[0].Kind; got != want {
			t.Errorf("%s: kind %v, want %v", q, got, want)
		}
	}
}

func TestBindConstantFolding(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT 1 + 2 * 3 FROM items`)
	proj := n.(*Project)
	c, ok := proj.Exprs[0].(*Const)
	if !ok || c.Val.Int64() != 7 {
		t.Errorf("not folded: %v", proj.Exprs[0])
	}
	// Folding AND with constant sides.
	n = bindQuery(t, cat, `SELECT id FROM items WHERE TRUE AND id > 1`)
	f := n.(*Project).Child.(*Filter)
	if strings.Contains(f.Pred.String(), "true") {
		t.Errorf("TRUE not folded out of: %s", f.Pred)
	}
	// Division by zero must NOT fold at bind time (runtime error).
	n = bindQuery(t, cat, `SELECT 1/0 FROM items`)
	if _, isConst := n.(*Project).Exprs[0].(*Const); isConst {
		t.Error("1/0 folded into a constant")
	}
}

func TestBindTilePlan(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT [x], [y], AVG(v) FROM m GROUP BY m[x-1:x+2][y:y+2] HAVING x > 0`)
	proj := n.(*Project)
	filt, ok := proj.Child.(*Filter)
	if !ok {
		t.Fatalf("expected Filter above TileAgg, got %T", proj.Child)
	}
	ta, ok := filt.Child.(*TileAgg)
	if !ok {
		t.Fatalf("got %T", filt.Child)
	}
	if ta.Tile[0].Lo != -1 || ta.Tile[0].Hi != 2 || ta.Tile[1].Lo != 0 || ta.Tile[1].Hi != 2 {
		t.Errorf("tile = %+v", ta.Tile)
	}
	if len(ta.Aggs) != 1 || ta.Aggs[0].Agg != "avg" {
		t.Errorf("aggs = %+v", ta.Aggs)
	}
	if proj.ShapeHint == nil {
		t.Error("tiling projection must preserve the array shape")
	}
}

func TestBindTileErrors(t *testing.T) {
	cat := testCatalog(t)
	bindErr(t, cat, `SELECT [x], SUM(v) FROM m GROUP BY m[x:x+2]`, "dimensions")
	bindErr(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:y+2][y:y+2]`, "anchor variable")
	bindErr(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[0:2][y:y+2]`, "anchor variable")
	bindErr(t, cat, `SELECT [x], [y], SUM(v) FROM m WHERE v > 0 GROUP BY m[x:x+2][y:y+2]`, "WHERE")
	bindErr(t, cat, `SELECT [x], [y], SUM(v) FROM items GROUP BY items[x:x+2][y:y+2]`, "single array")
	bindErr(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[2*x:x+2][y:y+2]`, "scaled")
}

func TestBindGroupRules(t *testing.T) {
	cat := testCatalog(t)
	// Non-aggregated column outside GROUP BY is an error.
	bindErr(t, cat, `SELECT name, SUM(price) FROM items GROUP BY id`, "GROUP BY")
	// Expressions over keys are fine.
	bindQuery(t, cat, `SELECT id * 2, SUM(price) FROM items GROUP BY id`)
	// HAVING may introduce new aggregates.
	n := bindQuery(t, cat, `SELECT id FROM items GROUP BY id HAVING COUNT(*) > 1`)
	proj := n.(*Project)
	filt := proj.Child.(*Filter)
	ga := filt.Child.(*GroupAgg)
	if len(ga.Aggs) != 1 {
		t.Errorf("aggs = %+v", ga.Aggs)
	}
	// Aggregates deduplicate by signature.
	n = bindQuery(t, cat, `SELECT SUM(price), SUM(price) + 1 FROM items GROUP BY id`)
	ga = findGroupAgg(n)
	if len(ga.Aggs) != 1 {
		t.Errorf("duplicate aggregates not merged: %+v", ga.Aggs)
	}
	// Post-aggregation expressions bind like any other: LIKE and cell
	// references over keys and aggregates ...
	bindQuery(t, cat, `SELECT name, COUNT(*) FROM items GROUP BY name HAVING name LIKE 'a%'`)
	bindQuery(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+2][y:y+2] HAVING CAST(SUM(v) AS VARCHAR) LIKE '1%'`)
	bindQuery(t, cat, `SELECT id, SUM(price) + m[1][1] FROM items GROUP BY id`)
	// ... and with the same type checks.
	bindErr(t, cat, `SELECT name, NOT name FROM items GROUP BY name`, "NOT needs a boolean operand")
	bindErr(t, cat, `SELECT name, -name FROM items GROUP BY name`, "unary minus needs a numeric operand")
	bindErr(t, cat, `SELECT id, CASE WHEN SUM(price) THEN 1 END FROM items GROUP BY id`, "CASE condition must be boolean")
	bindErr(t, cat, `SELECT [x], [y], NOT v FROM m GROUP BY m[x:x+2][y:y+2]`, "NOT needs a boolean operand")
	bindErr(t, cat, `SELECT [x], [y], -(v > 0) FROM m GROUP BY m[x:x+2][y:y+2]`, "unary minus needs a numeric operand")
	bindErr(t, cat, `SELECT [x], [y], CASE WHEN SUM(v) THEN 1 END FROM m GROUP BY m[x:x+2][y:y+2]`, "CASE condition must be boolean")
	// An ORDER BY aggregate that is not projected becomes a hidden one.
	n = bindQuery(t, cat, `SELECT id, SUM(price) FROM items GROUP BY id ORDER BY MAX(price)`)
	ga = findGroupAgg(n)
	if len(ga.Aggs) != 2 || ga.Aggs[1].Agg != "max" {
		t.Errorf("ORDER BY MAX(price): aggs = %+v", ga.Aggs)
	}
}

func findGroupAgg(n Node) *GroupAgg {
	for {
		switch x := n.(type) {
		case *GroupAgg:
			return x
		case *Project:
			n = x.Child
		case *Filter:
			n = x.Child
		case *Sort:
			n = x.Child
		case *Limit:
			n = x.Child
		default:
			return nil
		}
	}
}

func TestOptimizerCrossToHash(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT i.name FROM items i, items j WHERE i.id = j.id AND i.price > 1`)
	n = Optimize(n)
	txt := Explain(n)
	if !strings.Contains(txt, "join on") {
		t.Errorf("cross join not converted:\n%s", txt)
	}
	if strings.Contains(txt, "cross join") {
		t.Errorf("cross join survived:\n%s", txt)
	}
	// The single-side predicate is pushed below the join.
	if !strings.Contains(txt, "select") {
		t.Errorf("pushed filter missing:\n%s", txt)
	}
}

func TestOptimizerSlabPushdown(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT x, y, v FROM m WHERE x >= 1 AND x < 3 AND y = 2 AND v > 0`)
	n = Optimize(n)
	txt := Explain(n)
	if !strings.Contains(txt, "slab [1 2]..[2 2]") {
		t.Errorf("slab bounds wrong:\n%s", txt)
	}
	// The value predicate stays as a residual filter.
	if !strings.Contains(txt, "select") {
		t.Errorf("residual filter missing:\n%s", txt)
	}
}

func TestOptimizerSATSelection(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[x-3:x+4][y-3:y+4]`)
	n = Optimize(n)
	if !strings.Contains(Explain(n), "summed-area-table") {
		t.Errorf("large tile should use SAT:\n%s", Explain(n))
	}
	n = bindQuery(t, cat, `SELECT [x], [y], SUM(v) FROM m GROUP BY m[x:x+2][y:y+2]`)
	n = Optimize(n)
	if !strings.Contains(Explain(n), "kernel=generic") {
		t.Errorf("small tile should stay generic:\n%s", Explain(n))
	}
	// MIN cannot use SAT.
	n = bindQuery(t, cat, `SELECT [x], [y], MIN(v) FROM m GROUP BY m[x-3:x+4][y-3:y+4]`)
	n = Optimize(n)
	if strings.Contains(Explain(n), "summed-area-table") {
		t.Errorf("MIN must not use SAT:\n%s", Explain(n))
	}
}

func TestEvalRowMatchesKernels(t *testing.T) {
	// Scalar evaluation of a CASE expression with three-valued logic.
	e := &IfElse{
		Cond: &Bin{Op: ">", L: &Col{Idx: 0, Info: ColInfo{Kind: types.KindInt}}, R: &Const{Val: types.Int(0)}, K: types.KindBool},
		Then: &Const{Val: types.Str("pos")},
		Else: &Const{Val: types.Str("nonpos")},
		K:    types.KindStr,
	}
	get := func(v types.Value) func(int) (types.Value, error) {
		return func(int) (types.Value, error) { return v, nil }
	}
	if v, err := EvalRow(e, get(types.Int(3))); err != nil || v.StrVal() != "pos" {
		t.Errorf("pos: %v %v", v, err)
	}
	if v, err := EvalRow(e, get(types.Int(-3))); err != nil || v.StrVal() != "nonpos" {
		t.Errorf("nonpos: %v %v", v, err)
	}
	// NULL condition takes the else branch.
	if v, err := EvalRow(e, get(types.Null(types.KindInt))); err != nil || v.StrVal() != "nonpos" {
		t.Errorf("null: %v %v", v, err)
	}
}

func TestMapColsAndColsUsed(t *testing.T) {
	e := &Bin{Op: "+",
		L: &Col{Idx: 1, Info: ColInfo{Kind: types.KindInt}},
		R: &Col{Idx: 3, Info: ColInfo{Kind: types.KindInt}},
		K: types.KindInt}
	used := ColsUsed(e)
	if !used[1] || !used[3] || len(used) != 2 {
		t.Errorf("used = %v", used)
	}
	shifted := MapCols(e, func(i int) int { return i - 1 })
	used = ColsUsed(shifted)
	if !used[0] || !used[2] {
		t.Errorf("shifted = %v", used)
	}
}

func TestBindSubqueryScopes(t *testing.T) {
	cat := testCatalog(t)
	bindQuery(t, cat, `SELECT t.a FROM (SELECT id AS a FROM items) AS t WHERE t.a > 1`)
	bindErr(t, cat, `SELECT id FROM (SELECT name FROM items) AS t`, "no such column")
}

func TestBindStar(t *testing.T) {
	cat := testCatalog(t)
	n := bindQuery(t, cat, `SELECT * FROM items`)
	if len(n.Schema()) != 3 {
		t.Errorf("star expanded to %d columns", len(n.Schema()))
	}
	n = bindQuery(t, cat, `SELECT * FROM m`)
	if len(n.Schema()) != 3 { // x, y, v
		t.Errorf("array star expanded to %d columns", len(n.Schema()))
	}
}
