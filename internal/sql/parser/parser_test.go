package parser

import (
	"strings"
	"testing"

	"repro/internal/sql/ast"
	"repro/internal/types"
)

// The paper's own statements must all parse.
func TestPaperStatements(t *testing.T) {
	stmts := []string{
		`CREATE ARRAY matrix (
		   x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4],
		   v INT DEFAULT 0)`,
		`SELECT x, y, v FROM matrix`,
		`SELECT [x], [y], v FROM mtable`,
		`UPDATE matrix SET v = CASE
		   WHEN x > y THEN x + y WHEN x < y THEN x - y ELSE 0 END`,
		`INSERT INTO matrix SELECT [x], [y], x * y FROM matrix WHERE x = y`,
		`DELETE FROM matrix WHERE x > y`,
		`ALTER ARRAY matrix ALTER DIMENSION x SET RANGE [-1:1:5]`,
		`SELECT [x], [y], AVG(v) FROM matrix
		   GROUP BY matrix[x:x+2][y:y+2]
		   HAVING x MOD 2 = 1 AND y MOD 2 = 1`,
	}
	for _, s := range stmts {
		if _, err := ParseOne(s); err != nil {
			t.Errorf("%q: %v", s, err)
		}
	}
}

func TestCreateArrayShape(t *testing.T) {
	s, err := ParseOne(`CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:2:8], v DOUBLE DEFAULT 1.5)`)
	if err != nil {
		t.Fatal(err)
	}
	ca, ok := s.(*ast.CreateArray)
	if !ok {
		t.Fatalf("got %T", s)
	}
	if ca.Name != "m" || len(ca.Cols) != 3 {
		t.Fatalf("name=%q cols=%d", ca.Name, len(ca.Cols))
	}
	if !ca.Cols[0].Dimension || ca.Cols[0].Range == nil || ca.Cols[0].Range.Step == nil {
		t.Error("x should be a ranged dimension")
	}
	if ca.Cols[2].Dimension || ca.Cols[2].Default == nil {
		t.Error("v should be an attribute with default")
	}
}

func TestUnboundedDimension(t *testing.T) {
	s, err := ParseOne(`CREATE ARRAY m (x INT DIMENSION, v INT)`)
	if err != nil {
		t.Fatal(err)
	}
	ca := s.(*ast.CreateArray)
	if !ca.Cols[0].Dimension || ca.Cols[0].Range != nil {
		t.Error("x should be an unbounded dimension")
	}
	if ca.Cols[1].Default != nil {
		t.Error("v default should be nil (NULL)")
	}
}

func TestTileSpec(t *testing.T) {
	s, err := ParseOne(`SELECT [x], [y], SUM(v) FROM life GROUP BY life[x-1:x+2][y-1:y+2]`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if sel.Tile == nil {
		t.Fatal("expected tile spec")
	}
	if sel.Tile.Array != "life" || len(sel.Tile.Dims) != 2 {
		t.Fatalf("tile = %+v", sel.Tile)
	}
	if sel.Tile.Dims[0].Hi == nil {
		t.Error("range tile dim should have Hi")
	}
	if sel.GroupBy != nil {
		t.Error("structural and value grouping are exclusive")
	}
}

func TestTileSingleCell(t *testing.T) {
	s, err := ParseOne(`SELECT [x], MAX(v) FROM a GROUP BY a[x]`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if sel.Tile == nil || len(sel.Tile.Dims) != 1 || sel.Tile.Dims[0].Hi != nil {
		t.Fatalf("tile = %+v", sel.Tile)
	}
}

func TestValueGroupBy(t *testing.T) {
	s, err := ParseOne(`SELECT v, COUNT(*) FROM img GROUP BY v`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if sel.Tile != nil || len(sel.GroupBy) != 1 {
		t.Fatalf("groupby = %+v tile = %+v", sel.GroupBy, sel.Tile)
	}
	if !sel.Items[1].Expr.(*ast.FuncCall).Star {
		t.Error("COUNT(*) should set Star")
	}
}

func TestCellRef(t *testing.T) {
	e, err := ParseExpr(`abs(v - img[x-1][y].v) + abs(v - img[x][y-1].v)`)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	ast.Walk(e, func(x ast.Expr) bool {
		if cr, ok := x.(*ast.CellRef); ok {
			found++
			if cr.Array != "img" || cr.Attr != "v" || len(cr.Coords) != 2 {
				t.Errorf("bad cellref %v", cr)
			}
		}
		return true
	})
	if found != 2 {
		t.Errorf("found %d cell refs, want 2", found)
	}
}

func TestCellRefNoAttr(t *testing.T) {
	e, err := ParseExpr(`m[x+1][y]`)
	if err != nil {
		t.Fatal(err)
	}
	cr, ok := e.(*ast.CellRef)
	if !ok || cr.Attr != "" {
		t.Fatalf("got %T %v", e, e)
	}
}

func TestOperatorPrecedence(t *testing.T) {
	e, err := ParseExpr(`1 + 2 * 3`)
	if err != nil {
		t.Fatal(err)
	}
	if e.String() != "(1 + (2 * 3))" {
		t.Errorf("got %s", e)
	}
	e, _ = ParseExpr(`a OR b AND c`)
	if e.String() != "(a OR (b AND c))" {
		t.Errorf("got %s", e)
	}
	e, _ = ParseExpr(`NOT a = b`)
	if e.String() != "(NOT (a = b))" {
		t.Errorf("got %s", e)
	}
	e, _ = ParseExpr(`x MOD 2 = 1 AND y MOD 2 = 1`)
	if e.String() != "(((x % 2) = 1) AND ((y % 2) = 1))" {
		t.Errorf("got %s", e)
	}
}

func TestLiterals(t *testing.T) {
	cases := map[string]types.Value{
		"42":      types.Int(42),
		"-7":      types.Int(-7),
		"1.5":     types.Float(1.5),
		"1e3":     types.Float(1000),
		"'it''s'": types.Str("it's"),
		"TRUE":    types.Bool(true),
		"NULL":    types.NullUnknown(),
	}
	for src, want := range cases {
		e, err := ParseExpr(src)
		if err != nil {
			t.Errorf("%q: %v", src, err)
			continue
		}
		lit, ok := e.(*ast.Literal)
		if !ok {
			t.Errorf("%q: got %T", src, e)
			continue
		}
		if !lit.Val.Equal(want) {
			t.Errorf("%q: got %v want %v", src, lit.Val, want)
		}
	}
}

func TestPredicates(t *testing.T) {
	for _, src := range []string{
		`x BETWEEN 1 AND 10`,
		`x NOT BETWEEN 1 AND 10`,
		`x IN (1, 2, 3)`,
		`x NOT IN (1, 2)`,
		`name LIKE 'a%'`,
		`name NOT LIKE '_b'`,
		`v IS NULL`,
		`v IS NOT NULL`,
	} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestJoins(t *testing.T) {
	s, err := ParseOne(`SELECT a.x, b.y FROM img a JOIN maskt b ON a.x = b.x1 WHERE a.v > 0`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	j, ok := sel.From[0].(*ast.JoinRef)
	if !ok {
		t.Fatalf("got %T", sel.From[0])
	}
	if j.LeftOuter {
		t.Error("inner join marked outer")
	}
	s, err = ParseOne(`SELECT x FROM a LEFT OUTER JOIN b ON a.x = b.x`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.(*ast.Select).From[0].(*ast.JoinRef).LeftOuter {
		t.Error("left join not marked outer")
	}
}

func TestSubquery(t *testing.T) {
	s, err := ParseOne(`SELECT s FROM (SELECT SUM(v) AS s FROM m GROUP BY x) AS t WHERE s > 0`)
	if err != nil {
		t.Fatal(err)
	}
	sq, ok := s.(*ast.Select).From[0].(*ast.SubqueryRef)
	if !ok || sq.Alias != "t" {
		t.Fatalf("got %T alias=%v", s.(*ast.Select).From[0], sq)
	}
}

func TestInsertForms(t *testing.T) {
	s, err := ParseOne(`INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	ins := s.(*ast.Insert)
	if len(ins.Columns) != 2 || len(ins.Rows) != 2 {
		t.Fatalf("cols=%d rows=%d", len(ins.Columns), len(ins.Rows))
	}
	s, err = ParseOne(`INSERT INTO life (SELECT [x], [y], 1 FROM life WHERE x = y)`)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*ast.Insert).Query == nil {
		t.Error("expected query insert")
	}
}

func TestOrderLimitUnion(t *testing.T) {
	// A trailing ORDER BY/LIMIT/OFFSET orders and cuts the whole union:
	// the head carries it, the last arm does not.
	s, err := ParseOne(`SELECT v FROM t UNION ALL SELECT w FROM u UNION ALL SELECT v FROM u ORDER BY v DESC, x LIMIT 10 OFFSET 5`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if len(sel.OrderBy) != 2 || !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc {
		t.Errorf("orderby = %+v", sel.OrderBy)
	}
	if sel.Limit == nil || sel.Offset == nil || sel.UnionAll == nil {
		t.Error("limit/offset/union missing")
	}
	for arm := sel.UnionAll; arm != nil; arm = arm.UnionAll {
		if arm.OrderBy != nil || arm.Limit != nil || arm.Offset != nil {
			t.Errorf("arm kept its tail: %+v", arm)
		}
	}
	// ORDER BY or LIMIT on an arm before UNION ALL is an error.
	for _, q := range []string{
		`SELECT v FROM t ORDER BY v UNION ALL SELECT v FROM u`,
		`SELECT v FROM t LIMIT 1 UNION ALL SELECT v FROM u`,
		`SELECT v FROM t UNION ALL SELECT v FROM u OFFSET 1 UNION ALL SELECT v FROM u`,
	} {
		if _, err := ParseOne(q); err == nil || !strings.Contains(err.Error(), "last arm") {
			t.Errorf("%s: error %v, want one about the last arm", q, err)
		}
	}
}

func TestTxnAndExplain(t *testing.T) {
	for src, want := range map[string]ast.TxnKind{
		"START TRANSACTION": ast.TxnBegin,
		"BEGIN":             ast.TxnBegin,
		"COMMIT":            ast.TxnCommit,
		"ROLLBACK":          ast.TxnRollback,
	} {
		s, err := ParseOne(src)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		if s.(*ast.Txn).Kind != want {
			t.Errorf("%q: kind %v", src, s.(*ast.Txn).Kind)
		}
	}
	s, err := ParseOne(`EXPLAIN SELECT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if s.(*ast.Explain).MAL {
		t.Error("EXPLAIN should not be MAL mode")
	}
	s, err = ParseOne(`PLAN SELECT v FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if !s.(*ast.Explain).MAL {
		t.Error("PLAN should be MAL mode")
	}
}

func TestMultiStatement(t *testing.T) {
	stmts, err := Parse(`CREATE TABLE t (a INT); INSERT INTO t VALUES (1); SELECT a FROM t;`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 3 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`SELECT`,
		`SELECT FROM t`,
		`CREATE TABLE (a INT)`,
		`CREATE TABLE t (a DIMENSION[0:1:4] INT)`,
		`SELECT a FROM t WHERE`,
		`INSERT INTO t`,
		`SELECT a FROM t GROUP BY t[x:y`,
		`UPDATE t SET`,
		`SELECT 'unterminated FROM t`,
		`CREATE TABLE t (x INT DIMENSION[0:1:4])`, // DIMENSION outside array
		`SELECT a FROM t UNION SELECT a FROM u`,   // only UNION ALL
	}
	for _, src := range cases {
		if _, err := ParseOne(src); err == nil {
			t.Errorf("%q: expected error", src)
		}
	}
}

func TestErrorHasPosition(t *testing.T) {
	_, err := ParseOne("SELECT a\nFROM t WHERE ???")
	if err == nil {
		t.Fatal("expected error")
	}
	if !strings.Contains(err.Error(), "line 2") {
		t.Errorf("error lacks position: %v", err)
	}
}

func TestSimpleCaseDesugars(t *testing.T) {
	e, err := ParseExpr(`CASE v WHEN 1 THEN 'a' WHEN 2 THEN 'b' ELSE 'c' END`)
	if err != nil {
		t.Fatal(err)
	}
	c := e.(*ast.CaseExpr)
	if len(c.Whens) != 2 || c.Else == nil {
		t.Fatalf("case = %+v", c)
	}
	if c.Whens[0].Cond.String() != "(v = 1)" {
		t.Errorf("cond = %s", c.Whens[0].Cond)
	}
}

func TestFunctionsParse(t *testing.T) {
	for _, src := range []string{
		`ABS(-3)`, `SQRT(v)`, `FLOOR(1.5)`, `CEIL(x / 2)`,
		`CAST(v AS DOUBLE)`, `COALESCE(a, b, 0)`, `NULLIF(a, 0)`,
		`GREATEST(a, b)`, `LEAST(1, 2, 3)`, `LENGTH(s)`, `UPPER(s)`,
		`SUBSTRING(s FROM 2 FOR 3)`, `SUBSTRING(s, 2, 3)`, `s || 'x'`,
		`COUNT(DISTINCT v)`,
	} {
		if _, err := ParseExpr(src); err != nil {
			t.Errorf("%q: %v", src, err)
		}
	}
}

func TestDimensionalItems(t *testing.T) {
	s, err := ParseOne(`SELECT [x/2], [y/2], AVG(v) FROM img GROUP BY img[x:x+2][y:y+2]`)
	if err != nil {
		t.Fatal(err)
	}
	sel := s.(*ast.Select)
	if !sel.Items[0].Dimensional || !sel.Items[1].Dimensional || sel.Items[2].Dimensional {
		t.Errorf("dimensional flags wrong: %+v", sel.Items)
	}
}

func TestDropForms(t *testing.T) {
	s, err := ParseOne(`DROP ARRAY IF EXISTS m`)
	if err != nil {
		t.Fatal(err)
	}
	d := s.(*ast.Drop)
	if !d.Array || !d.IfExists || d.Name != "m" {
		t.Errorf("drop = %+v", d)
	}
}

func TestComments(t *testing.T) {
	if _, err := ParseOne("SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE a > 0"); err != nil {
		t.Error(err)
	}
}
