package core

import (
	"fmt"
	"strings"
	"testing"
)

func TestParseCacheHitsRepeatedStatements(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (a INT, b INT)`); err != nil {
		t.Fatal(err)
	}
	db.pcache.purge()
	q := `SELECT a + b FROM t`
	for i := 0; i < 3; i++ {
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.pcache.len(); got != 1 {
		t.Fatalf("cache has %d entries, want 1", got)
	}
	if _, ok := db.pcache.get(q); !ok {
		t.Fatalf("expected %q to be cached under its text", q)
	}
}

// TestParseCacheRebindsAfterDDL: DDL leaves the cache alone, and a cached
// statement binds against the catalog of each execution: after the table
// it names is dropped and created again with other columns, the same text
// reads the new table.
func TestParseCacheRebindsAfterDDL(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, b VARCHAR)`)
	db.MustQuery(`INSERT INTO t VALUES (1, 'x')`)
	q := `SELECT * FROM t`
	if got := db.MustQuery(q).String(); !strings.Contains(got, "x") {
		t.Fatalf("before DDL: %s", got)
	}
	db.MustQuery(`DROP TABLE t`)
	db.MustQuery(`CREATE TABLE t (c DOUBLE)`)
	db.MustQuery(`INSERT INTO t VALUES (2.5), (3.5)`)
	if _, ok := db.pcache.get(q); !ok {
		t.Fatal("DDL dropped the cached statement")
	}
	r := db.MustQuery(q)
	if r.NumCols() != 1 || r.NumRows() != 2 || r.Value(1, 0).String() != "3.5" {
		t.Fatalf("after DROP + CREATE: %s", r)
	}
	// The same name as an array: the cached text now reads its cells.
	db.MustQuery(`DROP TABLE t`)
	db.MustQuery(`CREATE ARRAY t (x INT DIMENSION[0:1:3], v INT DEFAULT 7)`)
	r = db.MustQuery(q)
	if r.NumCols() != 2 || r.NumRows() != 3 || r.Value(2, 1).String() != "7" {
		t.Fatalf("after DROP + CREATE ARRAY: %s", r)
	}
}

func TestParseCacheReusedASTExecutesCorrectly(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1), (2), (3)`); err != nil {
		t.Fatal(err)
	}
	q := `SELECT SUM(a) FROM t`
	for i := 0; i < 3; i++ {
		r, err := db.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Value(0, 0).String(); got != "6" {
			t.Fatalf("run %d: SUM(a) = %s, want 6", i, got)
		}
	}
	// Mutate the data and re-run the cached statement: results must track
	// the storage, proving the AST is not holding stale state.
	if _, err := db.Exec(`INSERT INTO t VALUES (10)`); err != nil {
		t.Fatal(err)
	}
	r, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Value(0, 0).String(); got != "16" {
		t.Fatalf("after insert: SUM(a) = %s, want 16", got)
	}
}

func TestParseCacheEviction(t *testing.T) {
	c := newParseCache()
	for i := 0; i < parseCacheSize+10; i++ {
		c.put(fmt.Sprintf("SELECT %d", i), nil)
	}
	if got := c.len(); got != parseCacheSize {
		t.Fatalf("cache has %d entries, want cap %d", got, parseCacheSize)
	}
	if _, ok := c.get("SELECT 0"); ok {
		t.Fatal("oldest entry should have been evicted")
	}
	if _, ok := c.get(fmt.Sprintf("SELECT %d", parseCacheSize+9)); !ok {
		t.Fatal("newest entry should be cached")
	}
}

// TestParseCacheSkipsLongTexts: a bulk INSERT longer than the text limit
// runs but is not cached, so its AST does not stay live; a short text is.
func TestParseCacheSkipsLongTexts(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT, b INT)`)
	db.pcache.purge()
	var sb strings.Builder
	sb.WriteString("INSERT INTO t VALUES ")
	rows := 0
	for sb.Len() <= parseCacheMaxText {
		if rows > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d)", rows, 2*rows)
		rows++
	}
	long := sb.String()
	if _, err := db.NewSession().Query(long); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(long); err != nil {
		t.Fatal(err)
	}
	if got := db.pcache.len(); got != 0 {
		t.Fatalf("cache has %d entries after a %d-byte INSERT, want 0", got, len(long))
	}
	q := `SELECT COUNT(*) FROM t`
	if got := db.MustQuery(q).Value(0, 0).String(); got != fmt.Sprint(2*rows) {
		t.Fatalf("COUNT(*) = %s, want %d", got, 2*rows)
	}
	if _, ok := db.pcache.get(q); !ok {
		t.Fatalf("expected %q to be cached", q)
	}
}
