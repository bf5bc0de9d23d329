package core

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bat"
)

// Column-statistics persistence: the property claims a table accumulates
// must survive checkpoints (serialized in the manifest) and WAL crash
// recovery (replay maintains them through the ordinary DML paths), and
// must stay *sound* — never claim order or bounds the recovered data does
// not have.

// assertColSound re-derives ground truth for one loaded column and checks
// every claim against it.
func assertColSound(t *testing.T, label string, b *bat.BAT) {
	t.Helper()
	oracle := b.Clone()
	oracle.DeriveProps()
	if b.Sorted && !oracle.Sorted {
		t.Fatalf("%s: Sorted claimed but data unsorted", label)
	}
	if b.SortedDesc && !oracle.SortedDesc {
		t.Fatalf("%s: SortedDesc claimed but data not descending", label)
	}
	if b.Key {
		// DeriveProps only claims Key for monotonic data, but incremental
		// maintenance can prove more (every append outside the bounds is
		// fresh): check real uniqueness, not the weaker derivation.
		seen := map[string]bool{}
		for i := 0; i < b.Len(); i++ {
			if b.IsNull(i) {
				t.Fatalf("%s: Key claimed on NULL data", label)
			}
			s := b.Get(i).String()
			if seen[s] {
				t.Fatalf("%s: Key claimed but %s duplicated", label, s)
			}
			seen[s] = true
		}
	}
	lo, hi, ok := b.MinMax()
	olo, ohi, ook := oracle.MinMax()
	if ok && ook && (olo.Compare(lo) < 0 || ohi.Compare(hi) > 0) {
		t.Fatalf("%s: bounds [%v,%v] do not cover data [%v,%v]", label, lo, hi, olo, ohi)
	}
	if ok && !ook && oracle.Len() > oracle.NullCount() {
		t.Fatalf("%s: bounds claimed but underivable", label)
	}
}

func tableCol(t *testing.T, db *DB, table string, col int) *bat.BAT {
	t.Helper()
	tb, okT := db.Catalog().Table(table)
	if !okT {
		t.Fatalf("table %s missing", table)
	}
	return tb.Bats[col]
}

func TestStatsSurviveCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE m (k INT, v DOUBLE)`)
	db.MustQuery(`INSERT INTO m VALUES (1, 0.5), (2, 1.5), (3, 0.25), (7, 9.0)`)
	k := tableCol(t, db, "m", 0)
	if !k.Sorted || !k.Key {
		t.Fatalf("ascending unique load: Sorted=%v Key=%v", k.Sorted, k.Key)
	}
	if err := db.Close(); err != nil { // checkpoint: stats enter the manifest
		t.Fatal(err)
	}

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	k2 := tableCol(t, db2, "m", 0)
	if !k2.Sorted || !k2.Key {
		t.Fatalf("reloaded claims lost: Sorted=%v Key=%v", k2.Sorted, k2.Key)
	}
	if lo, hi, ok := k2.MinMaxInts(); !ok || lo != 1 || hi != 7 {
		t.Fatalf("reloaded bounds [%d,%d] ok=%v, want [1,7]", lo, hi, ok)
	}
	v2 := tableCol(t, db2, "m", 1)
	if lo, hi, ok := v2.MinMaxFloats(); !ok || lo != 0.25 || hi != 9.0 {
		t.Fatalf("reloaded float bounds [%g,%g] ok=%v, want [0.25,9]", lo, hi, ok)
	}
	assertColSound(t, "m.k", k2)
	assertColSound(t, "m.v", v2)
}

// TestStatsSurviveWALReplay reopens without Close: the segment store lags
// behind and the WAL tail replays inserts, updates and deletes. Replay
// goes through the ordinary DML paths, so claims that mutations broke
// before the crash must also be broken after recovery — and the ones that
// held must still hold.
func TestStatsSurviveWALReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	db.MustQuery(`CREATE TABLE w (k INT, s VARCHAR)`)
	db.MustQuery(`INSERT INTO w VALUES (10, 'a'), (20, 'b'), (30, 'c')`)
	if err := db.Save(); err != nil { // checkpoint the sorted prefix
		t.Fatal(err)
	}
	// Post-checkpoint tail: an in-order append (claims hold), then an
	// overwrite that breaks Sorted and widens the bounds, then a delete.
	db.MustQuery(`INSERT INTO w VALUES (40, 'd')`)
	db.MustQuery(`UPDATE w SET k = 99 WHERE k = 20`)
	db.MustQuery(`DELETE FROM w WHERE k = 30`)
	// No Close: crash. The reopened database replays the tail.

	db2, err := OpenDB(dir, OpenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	k := tableCol(t, db2, "w", 0)
	if k.Sorted {
		t.Fatal("replayed UPDATE must clear Sorted")
	}
	if lo, hi, ok := k.MinMaxInts(); !ok || lo > 10 || hi < 99 {
		t.Fatalf("replayed bounds [%d,%d] ok=%v must cover [10,99]", lo, hi, ok)
	}
	assertColSound(t, "w.k", k)

	// And the recovered stats must not mislead a query: exactly the
	// appended 40 and the overwritten 99 survive the bound.
	r := db2.MustQuery(`SELECT k FROM w WHERE k >= 40 ORDER BY k`)
	if got := resultRows(r); len(got) != 2 || got[0][0].Int64() != 40 || got[1][0].Int64() != 99 {
		t.Fatalf("recovered query returned %v, want [40 99]", got)
	}
}

// TestStatsFoldEmptyPredicate pins the planner-level constant fold: a
// predicate outside the column bounds compiles to an empty candidate list
// (visible in the MAL plan) and returns no rows, while a bound-internal
// predicate still scans.
func TestStatsFoldEmptyPredicate(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE f (a INT)`)
	db.MustQuery(`INSERT INTO f VALUES (1), (2), (3)`)
	r := db.MustQuery(`PLAN SELECT a FROM f WHERE a > 100`)
	if !strings.Contains(r.Text, "algebra.emptycand") {
		t.Fatalf("out-of-bounds predicate should fold to emptycand:\n%s", r.Text)
	}
	if rows := db.MustQuery(`SELECT a FROM f WHERE a > 100`); rows.NumRows() != 0 {
		t.Fatalf("folded predicate returned %d rows", rows.NumRows())
	}
	r = db.MustQuery(`PLAN SELECT a FROM f WHERE a > 2`)
	if strings.Contains(r.Text, "algebra.emptycand") {
		t.Fatalf("in-bounds predicate must not fold:\n%s", r.Text)
	}
	// After widening the bounds the same text must stop folding (plans are
	// re-optimized per execution; only parsing is cached).
	db.MustQuery(`INSERT INTO f VALUES (200)`)
	if rows := db.MustQuery(`SELECT a FROM f WHERE a > 100`); rows.NumRows() != 1 {
		t.Fatalf("stale fold: got %d rows after insert", rows.NumRows())
	}
}

// TestStatsNoFoldAboveLeftJoin is the regression test for the outer-join
// folding hole: a WHERE predicate the right column's bounds prove "matches
// every base row" must still drop the join's NULL-padded rows, so the
// statistics pass may not fold it away.
func TestStatsNoFoldAboveLeftJoin(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE lo (a INT)`)
	db.MustQuery(`CREATE TABLE ro (b INT)`)
	db.MustQuery(`INSERT INTO lo VALUES (1), (2), (3)`)
	db.MustQuery(`INSERT INTO ro VALUES (1), (2)`)
	rows := db.MustQuery(`SELECT lo.a, ro.b FROM lo LEFT JOIN ro ON lo.a = ro.b WHERE ro.b >= 1 ORDER BY lo.a`)
	if rows.NumRows() != 2 {
		t.Fatalf("WHERE above LEFT JOIN returned %d rows, want 2 (bound-full fold must not drop the NULL filter)", rows.NumRows())
	}
	// The unmatched row survives without the WHERE.
	rows = db.MustQuery(`SELECT lo.a FROM lo LEFT JOIN ro ON lo.a = ro.b ORDER BY lo.a`)
	if rows.NumRows() != 3 {
		t.Fatalf("LEFT JOIN returned %d rows, want 3", rows.NumRows())
	}
}

// TestStatsMergeJoinPlan pins the optimizer's join pick: sorted unique
// keys on both sides compile to algebra.mergejoin.
func TestStatsMergeJoinPlan(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE l (id INT, x INT)`)
	db.MustQuery(`CREATE TABLE r (id INT, y INT)`)
	db.MustQuery(`INSERT INTO l VALUES (1, 10), (2, 20), (3, 30)`)
	db.MustQuery(`INSERT INTO r VALUES (2, 200), (3, 300), (4, 400)`)
	p := db.MustQuery(`PLAN SELECT l.x, r.y FROM l JOIN r ON l.id = r.id`)
	if !strings.Contains(p.Text, "algebra.mergejoin") {
		t.Fatalf("sorted keys should pick the merge join:\n%s", p.Text)
	}
	rows := db.MustQuery(`SELECT l.x, r.y FROM l JOIN r ON l.id = r.id ORDER BY l.x`)
	if rows.NumRows() != 2 {
		t.Fatalf("merge join returned %d rows, want 2", rows.NumRows())
	}
	// Breaking the order on one side must flip the pick back to hash.
	db.MustQuery(`UPDATE l SET id = 9 WHERE id = 1`)
	p = db.MustQuery(`PLAN SELECT l.x, r.y FROM l JOIN r ON l.id = r.id`)
	if strings.Contains(p.Text, "algebra.mergejoin") {
		t.Fatalf("unsorted side must fall back to hash join:\n%s", p.Text)
	}
}
