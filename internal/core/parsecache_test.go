package core

import (
	"fmt"
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
	if _, ok := db.pcache.get(cacheKey(q)); !ok {
		t.Fatalf("expected %q to be cached under the current join order mode", q)
	}
	// The key includes the join order mode: the raw text alone must miss.
	if _, ok := db.pcache.get(q); ok {
		t.Fatalf("raw query text should not be a cache key")
	}
}

func TestParseCachePurgedOnDDL(t *testing.T) {
	db := New()
	if _, err := db.Exec(`CREATE TABLE t (a INT)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT a FROM t`); err != nil {
		t.Fatal(err)
	}
	if db.pcache.len() == 0 {
		t.Fatal("expected cached SELECT before DDL")
	}
	if _, err := db.Exec(`CREATE TABLE u (b INT)`); err != nil {
		t.Fatal(err)
	}
	if got := db.pcache.len(); got != 0 {
		t.Fatalf("cache has %d entries after DDL, want 0", got)
	}
	// Dropping an object must also invalidate.
	if _, err := db.Query(`SELECT a FROM t`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`DROP TABLE u`); err != nil {
		t.Fatal(err)
	}
	if got := db.pcache.len(); got != 0 {
		t.Fatalf("cache has %d entries after DROP, want 0", got)
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
