package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/types"
)

// setupSales builds a small relational schema used across tests.
func setupSales(t *testing.T) *DB {
	t.Helper()
	db := New()
	for _, q := range []string{
		`CREATE TABLE items (id INT, name VARCHAR, price DOUBLE, qty INT)`,
		`INSERT INTO items VALUES
			(1, 'apple', 0.5, 100),
			(2, 'banana', 0.25, 150),
			(3, 'cherry', 3.0, 20),
			(4, 'date', 5.5, NULL),
			(5, 'elderberry', 8.0, 5)`,
		`CREATE TABLE orders (item_id INT, n INT)`,
		`INSERT INTO orders VALUES (1, 10), (1, 5), (2, 20), (3, 1), (9, 7)`,
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	return db
}

// row converts a result row to a compact string for comparison.
func rowStr(r *Result, i int) string {
	parts := make([]string, r.NumCols())
	for c := range parts {
		parts[c] = r.Value(i, c).String()
	}
	return strings.Join(parts, "|")
}

func allRows(r *Result) []string {
	out := make([]string, r.NumRows())
	for i := range out {
		out[i] = rowStr(r, i)
	}
	return out
}

func expectRows(t *testing.T, db *DB, q string, want []string) {
	t.Helper()
	res, err := db.Query(q)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	got := allRows(res)
	if len(got) != len(want) {
		t.Fatalf("%s:\ngot  %v\nwant %v", q, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("%s: row %d = %q, want %q", q, i, got[i], want[i])
		}
	}
}

func expectError(t *testing.T, db *DB, q, fragment string) {
	t.Helper()
	_, err := db.Query(q)
	if err == nil {
		t.Fatalf("%s: expected error containing %q", q, fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("%s: error %q does not contain %q", q, err, fragment)
	}
}

func TestSelectBasics(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT name FROM items WHERE price > 1 ORDER BY name`,
		[]string{"cherry", "date", "elderberry"})
	expectRows(t, db, `SELECT name, price * 2 AS double_price FROM items WHERE id = 1`,
		[]string{"apple|1"})
	expectRows(t, db, `SELECT COUNT(*) FROM items`, []string{"5"})
	expectRows(t, db, `SELECT COUNT(qty) FROM items`, []string{"4"})
	expectRows(t, db, `SELECT SUM(qty), MIN(price), MAX(price) FROM items`,
		[]string{"275|0.25|8"})
	expectRows(t, db, `SELECT name FROM items WHERE qty IS NULL`, []string{"date"})
	expectRows(t, db, `SELECT name FROM items WHERE qty IS NOT NULL AND qty < 50 ORDER BY qty`,
		[]string{"elderberry", "cherry"})
}

func TestWhereNullSemantics(t *testing.T) {
	db := setupSales(t)
	// NULL qty is neither < 50 nor >= 50.
	expectRows(t, db, `SELECT COUNT(*) FROM items WHERE qty < 50 OR qty >= 50`, []string{"4"})
	expectRows(t, db, `SELECT name FROM items WHERE NOT (qty < 50) ORDER BY id`,
		[]string{"apple", "banana"})
}

func TestOrderLimitOffset(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT name FROM items ORDER BY price DESC LIMIT 2`,
		[]string{"elderberry", "date"})
	expectRows(t, db, `SELECT name FROM items ORDER BY price DESC LIMIT 2 OFFSET 2`,
		[]string{"cherry", "apple"})
	expectRows(t, db, `SELECT name, price FROM items ORDER BY 2 DESC, 1 LIMIT 1`, []string{"elderberry|8"})
	expectRows(t, db, `SELECT name FROM items ORDER BY price LIMIT 0`, nil)
}

func TestGroupBy(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT item_id, SUM(n) FROM orders GROUP BY item_id ORDER BY item_id`,
		[]string{"1|15", "2|20", "3|1", "9|7"})
	expectRows(t, db, `SELECT item_id, COUNT(*), AVG(n) FROM orders GROUP BY item_id HAVING COUNT(*) > 1`,
		[]string{"1|2|7.5"})
	// Expression over aggregates.
	expectRows(t, db, `SELECT item_id, SUM(n) * 2 FROM orders GROUP BY item_id HAVING SUM(n) >= 20`,
		[]string{"2|40"})
	// Grouping by an expression.
	expectRows(t, db, `SELECT id % 2, COUNT(*) FROM items GROUP BY id % 2 ORDER BY 1`,
		[]string{"0|2", "1|3"})
	// Ordering by an aggregate that is not projected.
	expectRows(t, db, `SELECT item_id, COUNT(*) FROM orders GROUP BY item_id ORDER BY MAX(n) DESC`,
		[]string{"2|1", "1|2", "9|1", "3|1"})
	// LIKE over a group key.
	expectRows(t, db, `SELECT name, SUM(qty) FROM items GROUP BY name HAVING name LIKE 'a%' OR name LIKE 'b%' ORDER BY name`,
		[]string{"apple|100", "banana|150"})
}

func TestJoins(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db,
		`SELECT i.name, o.n FROM items i JOIN orders o ON i.id = o.item_id ORDER BY i.name, o.n`,
		[]string{"apple|5", "apple|10", "banana|20", "cherry|1"})
	// Comma join + WHERE equi predicate becomes a hash join (optimizer).
	expectRows(t, db,
		`SELECT i.name, o.n FROM items i, orders o WHERE i.id = o.item_id AND o.n > 5 ORDER BY o.n`,
		[]string{"apple|10", "banana|20"})
	// Left outer join keeps unmatched rows.
	expectRows(t, db,
		`SELECT i.name, o.n FROM items i LEFT JOIN orders o ON i.id = o.item_id WHERE i.id >= 4 ORDER BY i.id`,
		[]string{"date|null", "elderberry|null"})
	// An int key meets a float key in their common kind.
	expectRows(t, db, `SELECT i.name, o.n FROM items i, orders o WHERE i.price = o.item_id`,
		[]string{"cherry|1"})
	expectRows(t, db,
		`SELECT i.name, o.n FROM items i LEFT JOIN orders o ON i.price = o.item_id WHERE i.id >= 3 ORDER BY i.id`,
		[]string{"cherry|1", "date|null", "elderberry|null"})
	// Join with aggregation.
	expectRows(t, db,
		`SELECT i.name, SUM(o.n * i.price) AS revenue
		 FROM items i JOIN orders o ON i.id = o.item_id
		 GROUP BY i.name ORDER BY revenue DESC`,
		[]string{"apple|7.5", "banana|5", "cherry|3"})
}

func TestSubqueries(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db,
		`SELECT t.s FROM (SELECT item_id, SUM(n) AS s FROM orders GROUP BY item_id) AS t
		 WHERE t.s > 5 ORDER BY t.s`,
		[]string{"7", "15", "20"})
	expectRows(t, db,
		`SELECT name FROM (SELECT name, price FROM items WHERE price > 1) AS expensive
		 ORDER BY price LIMIT 1`,
		[]string{"cherry"})
}

func TestUnionAll(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db,
		`SELECT name FROM items WHERE id = 1 UNION ALL SELECT name FROM items WHERE id = 3`,
		[]string{"apple", "cherry"})
	// Int/float columns unify to float.
	expectRows(t, db, `SELECT 1 UNION ALL SELECT 2.5`, []string{"1", "2.5"})
}

// TestUnionAllTrailingOrderLimit: an ORDER BY/LIMIT written after the
// last arm orders and cuts the whole union, and its keys name the
// union's output columns.
func TestUnionAllTrailingOrderLimit(t *testing.T) {
	db := New()
	for _, q := range []string{
		`CREATE TABLE t (g INT, v INT)`,
		`INSERT INTO t VALUES (1, 2), (2, 0)`,
		`CREATE TABLE u (k INT)`,
		`INSERT INTO u VALUES (5), (-1)`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	expectRows(t, db, `SELECT g FROM t UNION ALL SELECT v FROM t ORDER BY 1 DESC LIMIT 1`, []string{"2"})
	expectRows(t, db, `SELECT g FROM t UNION ALL SELECT k FROM u ORDER BY g DESC`, []string{"5", "2", "1", "-1"})
	expectRows(t, db, `SELECT g FROM t UNION ALL SELECT v FROM t UNION ALL SELECT k FROM u ORDER BY g LIMIT 2 OFFSET 1`, []string{"0", "1"})
	expectError(t, db, `SELECT g FROM t ORDER BY g UNION ALL SELECT k FROM u`, "last arm")
}

// TestFloatKeysSignedZero: -0.0 = 0.0 holds for a hash join and a
// grouping as it does for a filter.
func TestFloatKeysSignedZero(t *testing.T) {
	db := New()
	for _, q := range []string{
		`CREATE TABLE a (f DOUBLE)`,
		`INSERT INTO a VALUES (-0.0), (1.0)`,
		`CREATE TABLE b (g DOUBLE)`,
		`INSERT INTO b VALUES (0.0), (1.0)`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	join := `SELECT a.f, b.g FROM a, b WHERE a.f = b.g ORDER BY b.g`
	if plan := db.MustQuery("EXPLAIN " + join).String(); !strings.Contains(plan, "join on a.f#0 = b.g#0") {
		t.Fatalf("%s is not a hash join:\n%s", join, plan)
	}
	expectRows(t, db, join, []string{"-0|0", "1|1"})
	expectRows(t, db, `SELECT a.f, b.g FROM a, b WHERE a.f <= b.g AND a.f >= b.g ORDER BY b.g`, []string{"-0|0", "1|1"})
	both := `(SELECT f FROM a UNION ALL SELECT g FROM b) AS z`
	expectRows(t, db, `SELECT f, COUNT(*) FROM `+both+` GROUP BY f ORDER BY f`, []string{"-0|2", "1|2"})
	expectRows(t, db, `SELECT COUNT(*) FROM (SELECT DISTINCT f FROM `+both+`) AS d`, []string{"2"})
}

func TestDistinct(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT DISTINCT item_id FROM orders ORDER BY item_id`,
		[]string{"1", "2", "3", "9"})
}

func TestScalarFunctions(t *testing.T) {
	db := New()
	cases := map[string]string{
		`SELECT ABS(-7)`:                               "7",
		`SELECT ABS(-1.5)`:                             "1.5",
		`SELECT SQRT(16)`:                              "4",
		`SELECT FLOOR(2.7), CEIL(2.1)`:                 "2|3",
		`SELECT 7 % 3, MOD(7, 3)`:                      "1|1",
		`SELECT CAST(3.9 AS INT)`:                      "3",
		`SELECT CAST('42' AS INT) + 1`:                 "43",
		`SELECT COALESCE(NULL, NULL, 5)`:               "5",
		`SELECT NULLIF(3, 3)`:                          "null",
		`SELECT NULLIF(4, 3)`:                          "4",
		`SELECT GREATEST(1, 9, 4), LEAST(5, 2)`:        "9|2",
		`SELECT LENGTH('hello')`:                       "5",
		`SELECT UPPER('abc') || LOWER('DEF')`:          "ABCdef",
		`SELECT SUBSTRING('hello' FROM 2 FOR 3)`:       "ell",
		`SELECT CASE WHEN 1 > 2 THEN 'a' ELSE 'b' END`: "b",
		`SELECT 1 + 2 * 3`:                             "7",
		`SELECT 10 / 4`:                                "2",
		`SELECT 10.0 / 4`:                              "2.5",
		`SELECT TRUE AND FALSE, TRUE OR FALSE`:         "false|true",
		`SELECT 'it''s'`:                               "it's",
		`SELECT ROUND(2.4), ROUND(2.5)`:                "2|3",
		`SELECT POWER(2, 10)`:                          "1024",
		`SELECT SIGN(-7), SIGN(0), SIGN(3.5)`:          "-1|0|1",
	}
	for q, want := range cases {
		res, err := db.Query(q)
		if err != nil {
			t.Errorf("%s: %v", q, err)
			continue
		}
		if got := rowStr(res, 0); got != want {
			t.Errorf("%s = %q, want %q", q, got, want)
		}
	}
}

// CAST(double AS INT) accepts exactly [-2^63, 2^63): 2^63 itself used to
// wrap to -2^63, because math.MaxInt64 rounds up to 2^63 as a float64.
// Constants cast at bind time, columns in the cast kernel; both must agree.
func TestCastIntegerBounds(t *testing.T) {
	db := New()
	// -2^63 is the one in range; then 2^63, the next double below -2^63,
	// and NaN.
	lits := []string{`-9223372036854775808.0`, `9223372036854775808.0`, `-9223372036854777856.0`, `CAST('NaN' AS DOUBLE)`}
	db.MustQuery(`CREATE TABLE f (id INT, v DOUBLE)`)
	for i, lit := range lits {
		db.MustQuery(fmt.Sprintf(`INSERT INTO f VALUES (%d, %s)`, i, lit))
	}
	for i, lit := range lits {
		for _, q := range []string{
			fmt.Sprintf(`SELECT CAST(%s AS INT)`, lit),
			fmt.Sprintf(`SELECT CAST(v AS INT) FROM f WHERE id = %d`, i),
		} {
			res, err := db.Query(q)
			if i == 0 {
				if err != nil {
					t.Errorf("%s: %v", q, err)
				} else if got := rowStr(res, 0); got != "-9223372036854775808" {
					t.Errorf("%s = %s, want -9223372036854775808", q, got)
				}
				continue
			}
			if err == nil || !strings.Contains(err.Error(), "out of integer range") {
				t.Errorf("%s: err = %v, want out of integer range", q, err)
			}
		}
	}
}

func TestLike(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT name FROM items WHERE name LIKE '%rry' ORDER BY name`,
		[]string{"cherry", "elderberry"})
	expectRows(t, db, `SELECT name FROM items WHERE name LIKE '_a%' ORDER BY name`,
		[]string{"banana", "date"})
	expectRows(t, db, `SELECT name FROM items WHERE name NOT LIKE '%e%' ORDER BY name`,
		[]string{"banana"})
}

func TestInAndBetween(t *testing.T) {
	db := setupSales(t)
	expectRows(t, db, `SELECT name FROM items WHERE id IN (1, 3, 5) ORDER BY id`,
		[]string{"apple", "cherry", "elderberry"})
	expectRows(t, db, `SELECT name FROM items WHERE price BETWEEN 0.5 AND 3 ORDER BY price`,
		[]string{"apple", "cherry"})
	expectRows(t, db, `SELECT name FROM items WHERE id NOT BETWEEN 2 AND 4 ORDER BY id`,
		[]string{"apple", "elderberry"})
}

func TestUpdateDelete(t *testing.T) {
	db := setupSales(t)
	res, err := db.Query(`UPDATE items SET price = price * 2 WHERE id <= 2`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	expectRows(t, db, `SELECT price FROM items WHERE id <= 2 ORDER BY id`, []string{"1", "0.5"})

	res, err = db.Query(`DELETE FROM items WHERE qty IS NULL`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Affected != 1 {
		t.Fatal("expected 1 deleted")
	}
	expectRows(t, db, `SELECT COUNT(*) FROM items`, []string{"4"})
	// Deleted rows stay invisible to joins and scans.
	expectRows(t, db, `SELECT name FROM items WHERE price > 4 ORDER BY name`, []string{"elderberry"})
	// Re-insert appends after the deletion mask.
	db.MustQuery(`INSERT INTO items VALUES (6, 'fig', 2.0, 30)`)
	expectRows(t, db, `SELECT COUNT(*) FROM items`, []string{"5"})
}

// TestTableCandLiveRows: a scan of a table with deleted rows reads the
// positions its deletion mask leaves clear, a 64-row word of the mask at
// a time. On 200 rows (three full words and a partial one) it returns
// exactly the rows a per-row test of the mask keeps, for masks whose
// words are full, empty and partial, and for a mask shorter than the
// table (rows inserted after the DELETE).
func TestTableCandLiveRows(t *testing.T) {
	for name, del := range map[string]string{
		"one full word":      `id >= 64 AND id < 128`,
		"partial words":      `id % 3 = 0`,
		"word edges":         `id % 64 = 0 OR id % 64 = 63`,
		"partial last word":  `id >= 190`,
		"all but one":        `id <> 129`,
		"every row":          `id >= 0`,
		"then insert behind": `id < 70`,
	} {
		t.Run(name, func(t *testing.T) {
			db := New()
			db.MustQuery(`CREATE TABLE t (id INT)`)
			var vals []string
			for i := 0; i < 200; i++ {
				vals = append(vals, fmt.Sprintf("(%d)", i))
			}
			db.MustQuery(`INSERT INTO t VALUES ` + strings.Join(vals, ", "))
			db.MustQuery(`DELETE FROM t WHERE ` + del)
			if name == "then insert behind" {
				db.MustQuery(`INSERT INTO t VALUES (200), (201), (202)`)
			}
			tb, _ := db.cat.Table("t")
			want := []string{}
			for i := 0; i < tb.PhysRows(); i++ {
				if !tb.Deleted.Get(i) {
					want = append(want, fmt.Sprint(i))
				}
			}
			expectRows(t, db, `SELECT id FROM t`, want)
		})
	}
}

func TestMultiSet(t *testing.T) {
	db := setupSales(t)
	// All SET expressions evaluate against the pre-update state.
	db.MustQuery(`UPDATE items SET price = qty, qty = CAST(price AS INT) WHERE id = 1`)
	expectRows(t, db, `SELECT price, qty FROM items WHERE id = 1`, []string{"100|0"})
}

func TestTransactions(t *testing.T) {
	db := setupSales(t)
	db.MustQuery(`START TRANSACTION`)
	db.MustQuery(`UPDATE items SET price = 999 WHERE id = 1`)
	db.MustQuery(`DELETE FROM items WHERE id = 2`)
	db.MustQuery(`CREATE TABLE scratch (a INT)`)
	expectRows(t, db, `SELECT price FROM items WHERE id = 1`, []string{"999"})
	db.MustQuery(`ROLLBACK`)
	expectRows(t, db, `SELECT price FROM items WHERE id = 1`, []string{"0.5"})
	expectRows(t, db, `SELECT COUNT(*) FROM items`, []string{"5"})
	expectError(t, db, `SELECT a FROM scratch`, "no such table")

	db.MustQuery(`BEGIN`)
	db.MustQuery(`UPDATE items SET price = 7 WHERE id = 1`)
	db.MustQuery(`COMMIT`)
	expectRows(t, db, `SELECT price FROM items WHERE id = 1`, []string{"7"})
	expectError(t, db, `COMMIT`, "no transaction")
}

func TestTransactionArrayRollback(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 1)`)
	db.MustQuery(`BEGIN`)
	db.MustQuery(`UPDATE a SET v = 9`)
	db.MustQuery(`ALTER ARRAY a ALTER DIMENSION x SET RANGE [0:1:8]`)
	db.MustQuery(`ROLLBACK`)
	expectRows(t, db, `SELECT SUM(v), COUNT(*) FROM a`, []string{"4|4"})
}

func TestErrors(t *testing.T) {
	db := setupSales(t)
	expectError(t, db, `SELECT nosuch FROM items`, "no such column")
	expectError(t, db, `SELECT name FROM nosuch`, "no such table")
	expectError(t, db, `SELECT name FROM items WHERE price`, "WHERE must be boolean")
	expectError(t, db, `SELECT name, SUM(qty) FROM items`, "GROUP BY")
	expectError(t, db, `SELECT 1/0`, "division by zero")
	expectError(t, db, `SELECT name + 1 FROM items`, "incompatible types")
	expectError(t, db, `CREATE TABLE items (a INT)`, "already exists")
	expectError(t, db, `INSERT INTO items VALUES (1)`, "expects 4 values")
	expectError(t, db, `UPDATE items SET nosuch = 1`, "no column")
	expectError(t, db, `SELECT i.name FROM items i, items i`, "duplicate table alias")
	expectError(t, db, `SELECT name FROM items HAVING price > 1`, "HAVING requires GROUP BY")
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	expectRows(t, db, `SELECT 1 + 1, 'x'`, []string{"2|x"})
	expectRows(t, db, `SELECT NULL`, []string{"null"})
}

func TestExplainAndPlan(t *testing.T) {
	db := setupSales(t)
	res := db.MustQuery(`EXPLAIN SELECT i.name FROM items i JOIN orders o ON i.id = o.item_id WHERE o.n > 1`)
	if !strings.Contains(res.Text, "join") || !strings.Contains(res.Text, "scan table items") {
		t.Errorf("explain output:\n%s", res.Text)
	}
	res = db.MustQuery(`PLAN SELECT name FROM items WHERE price > 1`)
	// The WHERE decomposes into a candidate-list theta selection; the
	// projection materialises the output column through the candidates.
	for _, frag := range []string{"function user.main", "sql.bind", "algebra.projection", "algebra.thetaselect", "sql.resultSet"} {
		if !strings.Contains(res.Text, frag) {
			t.Errorf("plan output lacks %q:\n%s", frag, res.Text)
		}
	}
}

// TestPlanShowsSeriesFiller verifies the paper's Fig. 3 claim at the MAL
// level: creating an array uses array.series / array.filler, visible in
// the PLAN output of a query over it.
func TestPlanShowsArrayOps(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	res := db.MustQuery(`PLAN SELECT [x], [y], AVG(v) FROM m GROUP BY m[x:x+2][y:y+2]`)
	for _, frag := range []string{"array.binddim", "array.bindattr", "array.tileagg"} {
		if !strings.Contains(res.Text, frag) {
			t.Errorf("plan lacks %q:\n%s", frag, res.Text)
		}
	}
}

func TestPersistence(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE t (a INT, s VARCHAR DEFAULT 'd')`)
	db.MustQuery(`INSERT INTO t VALUES (1, 'x'), (2, NULL)`)
	db.MustQuery(`DELETE FROM t WHERE a = 1`)
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:3], v DOUBLE DEFAULT 0.5)`)
	db.MustQuery(`UPDATE m SET v = 1.5 WHERE x = 1`)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	expectRows(t, db2, `SELECT a, s FROM t`, []string{"2|null"})
	expectRows(t, db2, `SELECT v FROM m ORDER BY x`, []string{"0.5", "1.5", "0.5"})
	// Defaults survive: ALTER grows with the persisted default.
	db2.MustQuery(`ALTER ARRAY m ALTER DIMENSION x SET RANGE [0:1:4]`)
	expectRows(t, db2, `SELECT v FROM m WHERE x = 3`, []string{"0.5"})
}

func TestUnboundedArrayGrowth(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY ts (t INT DIMENSION, v DOUBLE DEFAULT 0)`)
	db.MustQuery(`INSERT INTO ts VALUES (10, 1.5)`)
	db.MustQuery(`INSERT INTO ts VALUES (12, 2.5)`)
	expectRows(t, db, `SELECT COUNT(*) FROM ts`, []string{"3"}) // cells 10,11,12
	expectRows(t, db, `SELECT v FROM ts ORDER BY t`, []string{"1.5", "0", "2.5"})
	db.MustQuery(`INSERT INTO ts VALUES (8, 0.5)`)
	expectRows(t, db, `SELECT COUNT(*) FROM ts`, []string{"5"})
	expectRows(t, db, `SELECT SUM(v) FROM ts`, []string{"4.5"})
}

func TestCellReferences(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY img (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:3], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE img SET v = 3 * x + y`)
	// EdgeDetection-style relative addressing (§4): left neighbour.
	res := db.MustQuery(`SELECT x, y, img[x-1][y] AS leftv FROM img WHERE x = 0 OR x = 1 ORDER BY x, y`)
	got := allRows(res)
	want := []string{
		"0|0|null", "0|1|null", "0|2|null",
		"1|0|0", "1|1|1", "1|2|2",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d: %q, want %q", i, got[i], want[i])
		}
	}
	// Qualified attribute form and arithmetic.
	expectRows(t, db, `SELECT ABS(v - img[x-1][y].v) FROM img WHERE x = 1 AND y = 0`, []string{"3"})
}

func TestArrayJoinTable(t *testing.T) {
	// §4 AreasOfInterest: join an array with a bounding-box table.
	db := New()
	db.MustQuery(`CREATE ARRAY img (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 7)`)
	db.MustQuery(`CREATE TABLE maskt (x1 INT, y1 INT, x2 INT, y2 INT)`)
	db.MustQuery(`INSERT INTO maskt VALUES (0, 0, 1, 1), (3, 3, 3, 3)`)
	res := db.MustQuery(`SELECT img.x, img.y, img.v FROM img, maskt
		WHERE img.x BETWEEN maskt.x1 AND maskt.x2 AND img.y BETWEEN maskt.y1 AND maskt.y2
		ORDER BY img.x, img.y`)
	if res.NumRows() != 5 {
		t.Fatalf("got %d rows, want 5 (2x2 box + 1x1 box)", res.NumRows())
	}
}

func TestValueGroupingOnArray(t *testing.T) {
	// Histogram (§4): value-based GROUP BY over an array's attribute.
	db := New()
	db.MustQuery(`CREATE ARRAY img (x INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE img SET v = x % 2`)
	expectRows(t, db, `SELECT v, COUNT(*) FROM img GROUP BY v ORDER BY v`,
		[]string{"0|2", "1|2"})
}

func TestHolesIgnoredByAggregates(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:4], v INT DEFAULT 2)`)
	db.MustQuery(`DELETE FROM a WHERE x = 1`)
	expectRows(t, db, `SELECT SUM(v), COUNT(v), COUNT(*) FROM a`, []string{"6|3|4"})
}

func TestDimensionStep(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY s (x INT DIMENSION[0:2:10], v INT DEFAULT 1)`)
	expectRows(t, db, `SELECT COUNT(*) FROM s`, []string{"5"})
	expectRows(t, db, `SELECT x FROM s ORDER BY x`, []string{"0", "2", "4", "6", "8"})
	db.MustQuery(`UPDATE s SET v = x`)
	// Tiling respects the step grid: [x:x+4) covers two cells.
	res := db.MustQuery(`SELECT [x], SUM(v) FROM s GROUP BY s[x:x+4]`)
	g := res.Cols[1]
	if g.Get(0).Int64() != 2 || g.Get(4).Int64() != 8 {
		t.Errorf("stepped tiling wrong: %v %v", g.Get(0), g.Get(4))
	}
}

func TestNegativeStepDimension(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY d (x INT DIMENSION[4:-1:0], v INT DEFAULT 0)`)
	expectRows(t, db, `SELECT COUNT(*) FROM d`, []string{"4"})
	expectRows(t, db, `SELECT x FROM d ORDER BY x`, []string{"1", "2", "3", "4"})
}

func TestMultiAttributeArray(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY rgb (x INT DIMENSION[0:1:2], r INT DEFAULT 0, g INT DEFAULT 0, b INT DEFAULT 0)`)
	db.MustQuery(`UPDATE rgb SET r = 255, g = x WHERE x = 1`)
	expectRows(t, db, `SELECT r, g, b FROM rgb ORDER BY x`, []string{"0|0|0", "255|1|0"})
	// Cell references must name the attribute.
	expectError(t, db, `SELECT rgb[x] FROM rgb`, "qualify")
	expectRows(t, db, `SELECT rgb[0].r FROM rgb WHERE x = 0`, []string{"0"})
}

func TestInsertIntoArrayWithColumnList(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:3], p INT DEFAULT 1, q INT DEFAULT 2)`)
	db.MustQuery(`INSERT INTO a (x, q) VALUES (1, 99)`)
	expectRows(t, db, `SELECT p, q FROM a WHERE x = 1`, []string{"1|99"})
	expectError(t, db, `INSERT INTO a (q) VALUES (5)`, "must provide dimension")
	expectError(t, db, `INSERT INTO a VALUES (9, 1, 1)`, "outside the dimension ranges")
}

func TestStatusText(t *testing.T) {
	db := New()
	res := db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:4], v INT)`)
	if !strings.Contains(res.Text, "4 cells") {
		t.Errorf("status = %q", res.Text)
	}
}

func TestGridRender(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:2], y INT DIMENSION[0:1:2], v INT DEFAULT 0)`)
	db.MustQuery(`UPDATE m SET v = 2 * x + y`)
	res := db.MustQuery(`SELECT [x], [y], v FROM m`)
	grid, err := res.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(grid, "y=1") || !strings.Contains(grid, "y=0") {
		t.Errorf("grid:\n%s", grid)
	}
}

func TestResultString(t *testing.T) {
	db := setupSales(t)
	res := db.MustQuery(`SELECT id, name FROM items WHERE id <= 2 ORDER BY id`)
	s := res.String()
	if !strings.Contains(s, "apple") || !strings.Contains(s, "id") {
		t.Errorf("render:\n%s", s)
	}
}

func TestValuesNullAndDefaults(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, b VARCHAR DEFAULT 'dflt', c DOUBLE)`)
	db.MustQuery(`INSERT INTO t (a) VALUES (1)`)
	expectRows(t, db, `SELECT a, b, c FROM t`, []string{"1|dflt|null"})
}

func TestTypeCoercionOnInsert(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a DOUBLE, b INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1, 2.9)`)
	expectRows(t, db, `SELECT a, b FROM t`, []string{"1|2"})
}

func TestCaseWithNullCondition(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (NULL), (5)`)
	// NULL condition falls through to ELSE.
	expectRows(t, db, `SELECT CASE WHEN a > 1 THEN 'big' ELSE 'small' END FROM t`,
		[]string{"small", "big"})
}

func TestAggregatesEmptyInput(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	expectRows(t, db, `SELECT COUNT(*), SUM(a), MIN(a), AVG(a) FROM t`,
		[]string{"0|null|null|null"})
	// GROUP BY over empty input yields no rows.
	expectRows(t, db, `SELECT a, COUNT(*) FROM t GROUP BY a`, nil)
}

func TestGroupByNulls(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	db.MustQuery(`INSERT INTO t VALUES (NULL, 1), (NULL, 2), (1, 3), (1, 4), (2, 5)`)
	expectRows(t, db, `SELECT a, SUM(b) FROM t GROUP BY a ORDER BY a`,
		[]string{"null|3", "1|7", "2|5"})
}

func TestSumTypeResult(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, f DOUBLE)`)
	db.MustQuery(`INSERT INTO t VALUES (1, 1.5), (2, 2.5)`)
	res := db.MustQuery(`SELECT SUM(a), SUM(f), AVG(a) FROM t`)
	if res.Kinds[0] != types.KindInt || res.Kinds[1] != types.KindFloat || res.Kinds[2] != types.KindFloat {
		t.Errorf("kinds = %v", res.Kinds)
	}
}

// TestCandidateExecutionEndToEnd drives the candidate-threading paths
// through the whole engine: theta/range chains over tables with deleted
// rows, OR-unions of candidate lists, residual predicates over survivors,
// LIMIT slicing the candidate list, and the fused group-by path.
func TestCandidateExecutionEndToEnd(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE ev (id INT, grp INT, val DOUBLE, tag VARCHAR)`)
	for i := 0; i < 500; i++ {
		db.MustQuery(fmt.Sprintf(`INSERT INTO ev VALUES (%d, %d, %g, 't%d')`,
			i, i%7, float64(i)*0.5, i%3))
	}
	// Punch holes so tablecand is a real oid list, not a dense range.
	db.MustQuery(`DELETE FROM ev WHERE id % 10 = 3`)

	// Theta + range chain with a residual over the survivors.
	expectRows(t, db, `SELECT id FROM ev WHERE id >= 100 AND id < 110 AND grp = 2 AND id + grp > 0`,
		[]string{"100", "107"})
	// OR branches union candidate lists (id 3 is deleted, 496 survives).
	expectRows(t, db, `SELECT id FROM ev WHERE id < 4 OR id > 495`,
		[]string{"0", "1", "2", "496", "497", "498", "499"})
	// LIMIT slices the candidate list before any column materialises.
	expectRows(t, db, `SELECT id FROM ev WHERE id > 400 LIMIT 3 OFFSET 2`,
		[]string{"404", "405", "406"})
	// Fused group path: bare-column keys and aggregate args over a
	// candidate list, COUNT(*) via the gid column.
	expectRows(t, db, `SELECT grp, COUNT(*), SUM(val) FROM ev WHERE id < 20 AND grp < 2 GROUP BY grp`,
		[]string{"0|3|10.5", "1|3|12"})
	// Column-vs-column residual evaluated over the atom's survivors:
	// id - grp is id rounded down to a multiple of 7, > 490 only for 497+.
	expectRows(t, db, `SELECT id FROM ev WHERE id - grp > 490 AND id > 400`,
		[]string{"497", "498", "499"})
}

// TestOrderByNaN pins the place of NaN in an ORDER BY: after every number
// ascending and before them descending, with NULL first ascending and last
// descending, and equal keys (the two NaNs, -0.0 and 0.0) in input order. One NaN must
// not disorder the other rows, with or without LIMIT.
func TestOrderByNaN(t *testing.T) {
	db := New()
	for _, q := range []string{
		`CREATE TABLE t (id INT, f DOUBLE)`,
		`INSERT INTO t VALUES (1, 1.0), (2, CAST('NaN' AS DOUBLE)), (3, NULL), (4, -2.0),
			(5, 3.5), (6, CAST('NaN' AS DOUBLE)), (7, 0.5), (8, -0.0), (9, 0.0)`,
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	asc := []string{"3|null", "4|-2", "8|-0", "9|0", "7|0.5", "1|1", "5|3.5", "2|NaN", "6|NaN"}
	desc := []string{"2|NaN", "6|NaN", "5|3.5", "1|1", "7|0.5", "8|-0", "9|0", "4|-2", "3|null"}
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f`, asc)
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f DESC`, desc)
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f LIMIT 3`, asc[:3])
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f DESC LIMIT 3`, desc[:3])
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f LIMIT 3 OFFSET 6`, asc[6:9])
	expectRows(t, db, `SELECT id, f FROM t ORDER BY f DESC LIMIT 2 OFFSET 1`, desc[1:3])
}

// TestMinMaxFollowOrderBy: a float MIN is the first non-NULL row of ORDER
// BY v and MAX the last, NaN included (it sorts above every number), for
// the grouped and the global aggregate at every thread count.
func TestMinMaxFollowOrderBy(t *testing.T) {
	db := New()
	for _, q := range []string{
		`CREATE ARRAY seq (i INT DIMENSION[0:1:20000], v INT DEFAULT 0)`,
		`CREATE TABLE m (g INT, v DOUBLE)`,
		`INSERT INTO m SELECT i % 3, CAST((i * 7919) % 1009 AS DOUBLE) / 4 FROM seq`,
		`INSERT INTO m VALUES (0, CAST('NaN' AS DOUBLE)), (1, NULL), (3, CAST('NaN' AS DOUBLE)), (3, NULL), (4, NULL)`,
		`INSERT INTO m SELECT i % 3, CAST(i % 977 AS DOUBLE) - 500 FROM seq`,
		`INSERT INTO m VALUES (3, CAST('NaN' AS DOUBLE))`,
	} {
		db.MustQuery(q)
	}
	defer setWidth(db, 0)()
	for _, threads := range []int{1, 2, 8} {
		setWidth(db, threads)
		got := allRows(db.MustQuery(`SELECT g, MIN(v), MAX(v) FROM m GROUP BY g ORDER BY g`))
		var want []string
		for g := 0; g <= 4; g++ {
			ordered := allRows(db.MustQuery(fmt.Sprintf(`SELECT v FROM m WHERE g = %d AND v IS NOT NULL ORDER BY v`, g)))
			if len(ordered) == 0 {
				want = append(want, fmt.Sprintf("%d|null|null", g))
				continue
			}
			want = append(want, fmt.Sprintf("%d|%s|%s", g, ordered[0], ordered[len(ordered)-1]))
		}
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("threads %d: grouped MIN/MAX %v, want %v", threads, got, want)
		}
		ordered := allRows(db.MustQuery(`SELECT v FROM m WHERE v IS NOT NULL ORDER BY v`))
		global := allRows(db.MustQuery(`SELECT MIN(v), MAX(v) FROM m`))
		if w := ordered[0] + "|" + ordered[len(ordered)-1]; global[0] != w {
			t.Errorf("threads %d: MIN/MAX %s, want %s", threads, global[0], w)
		}
	}
}
