// Package sciql is a from-scratch Go implementation of SciQL — the
// SQL-based array query language of Zhang, Kersten and Manegold ("SciQL:
// Array Data Processing Inside an RDBMS", SIGMOD 2013) — together with the
// columnar relational engine it lives in.
//
// Arrays are first-class citizens next to tables: they are created with
// CREATE ARRAY, carry named dimensions with [start:step:stop) range
// constraints, coerce to and from tables, support positional DML
// (INSERT overwrites cells, DELETE punches NULL holes) and are queried
// with structural grouping — GROUP BY A[x:x+2][y:y+2] — and relative cell
// addressing — A[x-1][y].
//
// Quickstart:
//
//	db := sciql.New()
//	db.Exec(`CREATE ARRAY matrix (
//	    x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4],
//	    v INT DEFAULT 0)`)
//	db.Exec(`UPDATE matrix SET v = CASE
//	    WHEN x > y THEN x + y WHEN x < y THEN x - y ELSE 0 END`)
//	res, _ := db.Query(`SELECT [x], [y], AVG(v) FROM matrix
//	    GROUP BY matrix[x:x+2][y:y+2]
//	    HAVING x MOD 2 = 1 AND y MOD 2 = 1`)
//	fmt.Println(res)
//
// The engine reproduces the architecture of the paper's Fig. 2: SQL/SciQL
// parser → relational algebra → MAL program → MAL interpreter → BAT
// storage kernel. Use the PLAN prefix on any SELECT to inspect the
// generated MAL (including the paper's array.series / array.filler
// primitives), and EXPLAIN for the logical plan.
package sciql

import (
	"repro/internal/bat"
	"repro/internal/core"
	"repro/internal/par"
	"repro/internal/shape"
	"repro/internal/types"
)

// DB is a SciQL database handle. See core.DB for the full method set:
// Exec, Query, MustQuery, Save, Close, Catalog.
type DB = core.DB

// Result is the outcome of a statement; array-valued results carry a
// Shape and cell-aligned columns.
type Result = core.Result

// Session is one client's handle on the database: reads execute lock-free
// against the last published snapshot (so any number of sessions read in
// parallel), writes serialise, and BEGIN binds the engine's explicit
// transaction to the session. Obtain one with db.NewSession().
type Session = core.Session

// Value is a scalar SQL value (integer, double, boolean, string or NULL).
type Value = types.Value

// Dim is one array dimension with its [start:step:stop) range.
type Dim = shape.Dim

// Shape is an ordered list of dimensions with row-major cell layout.
type Shape = shape.Shape

// New creates an empty in-memory database.
func New() *DB { return core.New() }

// Open loads (or initialises) a database persisted in dir. Every
// committed write is durable immediately (fsynced write-ahead log
// record); a crash mid-write recovers to the last committed state on the
// next Open. Close flushes a final checkpoint. See DB.SetWALCheckpointBytes
// for the log-folding threshold.
func Open(dir string) (*DB, error) { return core.Open(dir) }

// SetThreads sets the worker count the GDK kernels use for morsel-parallel
// execution (process-wide); n <= 0 restores the default, GOMAXPROCS. It
// returns the previous setting (0 = default). Inputs below the morsel
// threshold always run serially regardless of this setting.
func SetThreads(n int) int { return par.SetThreads(n) }

// Threads returns the current kernel worker count.
func Threads() int { return par.Threads() }

// SetEncodingsEnabled toggles automatic per-slab column compression
// (RLE/dictionary/frame-of-reference/delta) process-wide and returns the
// previous setting. Encoding happens at checkpoint time and is fully
// transparent — results are bit-identical either way — so this is a
// performance/footprint switch, mirroring gdk.SetStatsEnabled. Columns
// already encoded stay encoded (and readable) after disabling; they
// revert to plain at their next rewrite.
func SetEncodingsEnabled(on bool) bool { return bat.SetEncodingsEnabled(on) }

// EncodingsEnabled reports whether automatic slab encoding is active.
func EncodingsEnabled() bool { return bat.EncodingsEnabled() }
