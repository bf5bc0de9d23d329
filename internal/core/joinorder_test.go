package core

import (
	"fmt"
	"strings"
	"testing"
)

// The equivalence gate of the join ordering pass: every query must return
// the rows the reference evaluator (oracle_test.go) computes from the
// unoptimized plan, at every kernel width. The pass only ever changes the
// shape of the join tree, so any divergence here is a key/residual
// remapping bug.

// buildJoinOrderDB creates the workload shapes the ordering pass must
// handle: a large fact table, run-length and low-cardinality keys, a
// sorted unique column, string keys, heavy key skew, a tiny table and an
// empty one. All data is deterministic.
func buildJoinOrderDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	ddl := []string{
		`CREATE TABLE big (id INT, ka INT, kb INT, ks STRING, v INT)`,
		`CREATE TABLE runs (k INT, w INT)`,
		`CREATE TABLE lowcard (k INT, w INT)`,
		`CREATE TABLE sorted (id INT, w INT)`,
		`CREATE TABLE strs (s STRING, t INT)`,
		`CREATE TABLE skew (k INT, u INT, w INT)`,
		`CREATE TABLE tiny (k INT, w INT)`,
		`CREATE TABLE mt (k INT, w INT)`,
	}
	for _, q := range ddl {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	insert := func(table string, rows []string) {
		t.Helper()
		q := fmt.Sprintf("INSERT INTO %s VALUES %s", table, strings.Join(rows, ", "))
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("insert into %s: %v", table, err)
		}
	}
	var rows []string
	for i := 0; i < 200; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d, %d, 's%d', %d)", i, i%20, i/40, i%7, (i*37)%1000))
	}
	insert("big", rows)
	rows = rows[:0]
	for i := 0; i < 60; i++ { // k comes out sorted in runs of 10
		rows = append(rows, fmt.Sprintf("(%d, %d)", i/10, i%5))
	}
	insert("runs", rows)
	rows = rows[:0]
	for i := 0; i < 20; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i%5, i%3))
	}
	insert("lowcard", rows)
	rows = rows[:0]
	for i := 0; i < 100; i++ { // id is sorted and unique
		rows = append(rows, fmt.Sprintf("(%d, %d)", i, (i*13)%7))
	}
	insert("sorted", rows)
	rows = rows[:0]
	for i := 0; i < 21; i++ {
		rows = append(rows, fmt.Sprintf("('s%d', %d)", i%7, i))
	}
	insert("strs", rows)
	rows = rows[:0]
	for i := 0; i < 60; i++ { // 90% of keys collide on 0; u is unique
		k := 0
		if i >= 54 {
			k = i % 5
		}
		rows = append(rows, fmt.Sprintf("(%d, %d, %d)", k, i, i%4))
	}
	insert("skew", rows)
	rows = rows[:0]
	for i := 0; i < 8; i++ {
		rows = append(rows, fmt.Sprintf("(%d, %d)", i, i%2))
	}
	insert("tiny", rows)
	return db
}

// joinOrderQueries spans 3- to 8-way joins over the workload shapes,
// including cross-relation residuals, self-join aliases, skewed keys, an
// empty relation and an outer-join boundary.
var joinOrderQueries = []struct{ name, sql string }{
	{"star3", `SELECT b.id, l.w, s.w FROM big b, lowcard l, sorted s
		WHERE b.ka = l.k AND b.id = s.id`},
	{"star3_filtered", `SELECT b.id, l.w, s.w FROM big b, lowcard l, sorted s
		WHERE b.ka = l.k AND b.id = s.id AND s.w < 3 AND b.v >= 100`},
	{"chain4", `SELECT b.id, r.w, l.w, tn.w FROM big b, runs r, lowcard l, tiny tn
		WHERE b.kb = r.k AND r.w = l.k AND l.w = tn.k`},
	{"string4", `SELECT b.id, st.t, l.w FROM big b, strs st, lowcard l, tiny tn
		WHERE b.ks = st.s AND b.ka = l.k AND l.w = tn.k`},
	{"selfjoin3", `SELECT l1.w, l2.w, tn.k FROM lowcard l1, lowcard l2, tiny tn
		WHERE l1.k = l2.k AND l1.w = tn.k`},
	{"residual4", `SELECT b.id, r.w, l.w FROM big b, runs r, lowcard l, tiny tn
		WHERE b.kb = r.k AND r.w = l.k AND l.w = tn.k AND b.v > l.w * 10`},
	{"skew5", `SELECT b.id, sk.w, l.w FROM big b, skew sk, lowcard l, sorted s, tiny tn
		WHERE b.ka = sk.k AND sk.k = l.k AND b.id = s.id AND l.w = tn.k`},
	{"empty5", `SELECT b.id FROM big b, runs r, lowcard l, mt m, sorted s
		WHERE b.kb = r.k AND r.w = l.k AND l.w = m.k AND b.id = s.id`},
	{"outer_boundary", `SELECT b.id, l.w, tn.w, s.w, r.w
		FROM big b JOIN lowcard l ON b.ka = l.k
		LEFT JOIN tiny tn ON l.w = tn.k
		JOIN sorted s ON b.id = s.id
		JOIN runs r ON b.kb = r.k`},
	{"8way", `SELECT b.id, r.w, l.w, s.w, st.t, sk.k, tn.w, tn2.w
		FROM big b, runs r, lowcard l, sorted s, strs st, skew sk, tiny tn, tiny tn2
		WHERE b.kb = r.k AND r.w = l.k AND b.id = s.id AND b.ks = st.s
		AND s.id = sk.u AND l.w = tn.k AND tn.w = tn2.k`},
}

// fixedRefBudget lets the reference enumerate every fixed query of this
// file in FROM order; the largest, 8way, visits about 1.8 million rows.
const fixedRefBudget = 2_000_000

// fixedRef evaluates a fixed query with the reference. A fixed query must
// never go unchecked, so one the reference cannot enumerate fails the test.
func fixedRef(t *testing.T, db *DB, sql string) refAnswer {
	t.Helper()
	want := refQuery(db, sql, fixedRefBudget)
	if want.err != nil {
		t.Fatalf("reference: %v\n%s", want.err, sql)
	}
	return want
}

// TestJoinOrderEquiv checks each query serially and at eight threads,
// against one reference answer per query.
func TestJoinOrderEquiv(t *testing.T) {
	db := buildJoinOrderDB(t)
	wants := make([]refAnswer, len(joinOrderQueries))
	for i, q := range joinOrderQueries {
		wants[i] = fixedRef(t, db, q.sql)
	}
	for _, threads := range []int{1, 8} {
		t.Run(fmt.Sprintf("stats=true/threads=%d", threads), func(t *testing.T) {
			for i, q := range joinOrderQueries {
				t.Run(q.name, func(t *testing.T) {
					if err := checkEngine(db, q.sql, wants[i], threads); err != nil {
						t.Fatalf("%v\n%s", err, q.sql)
					}
					if n := len(wants[i].rows); q.name == "empty5" && n != 0 {
						t.Fatalf("empty5 returned %d rows, want 0", n)
					}
				})
			}
		})
	}
}

// TestJoinOrderOrderByIdentical pins the stronger contract for ordered
// queries: with a full-row ORDER BY the result must equal the reference
// row for row, at every width.
func TestJoinOrderOrderByIdentical(t *testing.T) {
	db := buildJoinOrderDB(t)
	q := `SELECT b.id, l.w, s.w FROM big b, lowcard l, sorted s
		WHERE b.ka = l.k AND b.id = s.id ORDER BY b.id, l.w, s.w`
	if err := checkEngine(db, q, fixedRef(t, db, q)); err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
}

// TestJoinOrderEmptyShortCircuit is the regression test for the
// provably-empty estimate: an impossible predicate on the largest
// relation must (a) return no rows, and (b) place that relation first
// with the emptycand fold intact, so the whole join tree short-circuits.
func TestJoinOrderEmptyShortCircuit(t *testing.T) {
	db := buildJoinOrderDB(t)
	// big.v ranges over [0, 999]: the bound is provably unsatisfiable.
	q := `SELECT b.id FROM big b, runs r, lowcard l
		WHERE b.kb = r.k AND r.w = l.k AND b.v > 100000`
	if got := db.MustQuery(q).NumRows(); got != 0 {
		t.Fatalf("impossible predicate returned %d rows", got)
	}
	plan := db.MustQuery("EXPLAIN " + q).String()
	if !strings.Contains(plan, "select candidates none") {
		t.Fatalf("emptycand fold missing from plan:\n%s", plan)
	}
	if !strings.Contains(plan, "(order greedy: b,") {
		t.Fatalf("provably-empty big relation not ordered first:\n%s", plan)
	}
}

// TestJoinOrderGreedyWideJoin covers join trees of more than ten leaves:
// an 11-relation self-join must return the reference count.
func TestJoinOrderGreedyWideJoin(t *testing.T) {
	db := buildJoinOrderDB(t)
	var from, where []string
	for i := 1; i <= 11; i++ {
		from = append(from, fmt.Sprintf("tiny t%d", i))
		if i > 1 {
			where = append(where, fmt.Sprintf("t%d.k = t%d.k", i-1, i))
		}
	}
	q := fmt.Sprintf("SELECT COUNT(*) FROM %s WHERE %s",
		strings.Join(from, ", "), strings.Join(where, " AND "))
	if got := db.MustQuery(q).Value(0, 0).String(); got != "8" {
		t.Fatalf("11-way self-join count = %s, want 8", got)
	}
	if err := checkEngine(db, q, fixedRef(t, db, q)); err != nil {
		t.Fatalf("%v\n%s", err, q)
	}
}
