package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/mal"
	"repro/internal/rel"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/testutil"
)

// FuzzBind runs any text through parse, bind, optimize and MAL compile
// against a fixed catalog: a table with int, float and string columns and
// a 2-D array. Each statement must come back as an error or a program;
// nothing recovers a panic. The seeds are the statements of the golden
// scripts, whose tables and arrays mostly carry the catalog's names.
func FuzzBind(f *testing.F) {
	paths, err := testutil.GoldenScripts(filepath.Join("testdata", "queries"))
	if err != nil {
		f.Fatal(err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		for _, stmt := range testutil.SplitScript(string(src)) {
			f.Add(stmt)
		}
	}
	// An ORDER BY aggregate that the items do not project.
	f.Add(`SELECT id, SUM(qty) FROM items GROUP BY id ORDER BY MAX(qty)`)

	db := New()
	db.MustQuery(`CREATE TABLE items (id INT, name STRING, price DOUBLE, qty INT)`)
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)`)
	f.Fuzz(func(t *testing.T, src string) {
		stmts, err := parser.Parse(src)
		if err != nil {
			return
		}
		for _, stmt := range stmts {
			if e, ok := stmt.(*ast.Explain); ok {
				stmt = e.Stmt
			}
			plan, err := bindPlan(rel.NewBinder(db.cat), stmt)
			if err != nil {
				continue
			}
			if prog, err := mal.Compile(plan); err == nil && prog == nil {
				t.Fatalf("%q: neither a program nor an error", src)
			}
		}
	})
}
