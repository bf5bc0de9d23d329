package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
)

// The golden end-to-end suite: every testdata/queries/*.sql script runs
// statement by statement against a fresh database, and the concatenated
// renderings must match the checked-in *.golden byte for byte. The same
// scripts and goldens are replayed through a live sciqld server in
// internal/server (TestGoldenOverServer), pinning the embedded and the
// network paths to identical output.
//
// Regenerate with: go test ./internal/core -run TestGolden -update-golden

var updateGolden = flag.Bool("update-golden", false, "rewrite golden files")

func TestGoldenQueries(t *testing.T) {
	paths, err := testutil.GoldenScripts(filepath.Join("testdata", "queries"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no golden scripts found: %v", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".sql")
		t.Run(name, func(t *testing.T) {
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Persistence scripts run against a directory-backed engine and
			// may close and reopen it mid-script via the .reopen directive;
			// everything else runs in-memory.
			var db *DB
			dir := ""
			if testutil.NeedsDir(string(src)) {
				dir = filepath.Join(t.TempDir(), "db")
				if db, err = OpenDB(dir, OpenOptions{}); err != nil {
					t.Fatal(err)
				}
			} else {
				db = New()
			}
			defer func() {
				if db != nil {
					_ = db.Close()
				}
			}()
			got := testutil.RenderScript(string(src), func(stmt string) (string, error) {
				if stmt == testutil.ReopenStmt {
					if dir == "" {
						return "", fmt.Errorf(".reopen requires a directory-backed script")
					}
					if db != nil {
						if err := db.Close(); err != nil {
							db = nil
							return "", err
						}
					}
					if db, err = OpenDB(dir, OpenOptions{}); err != nil {
						return "", err
					}
					return "reopened", nil
				}
				if db == nil {
					return "", fmt.Errorf("database unavailable after failed reopen")
				}
				results, err := db.Exec(stmt)
				var sb strings.Builder
				for _, r := range results {
					sb.WriteString(r.String())
				}
				return sb.String(), err
			})
			goldenPath := strings.TrimSuffix(path, ".sql") + ".golden"
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden): %v", err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}
