package sciql_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// processWide is the package-level state allowed in non-test code: the
// worker pool's budget, shared by every query by design.
var processWide = map[string]bool{"internal/par/par.go:live": true}

// TestNoProcessWideState: an engine instance is configured by OpenDB's
// OpenOptions and a statement by its run state, so no non-test file under
// internal/ or in the root package declares a package-level Set* function
// or a package-level variable of a sync/atomic type (a process-wide
// counter or flag), processWide excepted.
func TestNoProcessWideState(t *testing.T) {
	files := []string{"sciql.go"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		atomicName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "sync/atomic" {
				atomicName = "atomic"
				if imp.Name != nil {
					atomicName = imp.Name.Name
				}
			}
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && strings.HasPrefix(d.Name.Name, "Set") {
					t.Errorf("%s: package-level setter %s", fset.Position(d.Pos()), d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Tok != token.VAR || atomicName == "" {
					continue
				}
				for _, spec := range d.Specs {
					vs := spec.(*ast.ValueSpec)
					if !isAtomic(vs, atomicName) {
						continue
					}
					for _, name := range vs.Names {
						if !processWide[filepath.ToSlash(path)+":"+name.Name] {
							t.Errorf("%s: package-level sync/atomic variable %s", fset.Position(name.Pos()), name.Name)
						}
					}
				}
			}
		}
	}
}

// isAtomic reports whether a variable declaration's type, or the type of
// a composite literal it is initialised with, names a sync/atomic type
// (imported as pkg).
func isAtomic(vs *ast.ValueSpec, pkg string) bool {
	exprs := []ast.Expr{vs.Type}
	for _, v := range vs.Values {
		if cl, ok := v.(*ast.CompositeLit); ok {
			exprs = append(exprs, cl.Type)
		}
	}
	found := false
	for _, e := range exprs {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
					found = true
				}
			}
			return !found
		})
	}
	return found
}
