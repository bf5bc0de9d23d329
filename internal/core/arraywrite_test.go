package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bat"
	"repro/internal/catalog"
	"repro/internal/mal"
	"repro/internal/rel"
	"repro/internal/shape"
	"repro/internal/sql/ast"
	"repro/internal/sql/parser"
	"repro/internal/types"
)

// Array writes and array-valued results go through typed columns: cell
// positions from gdk.CellPos, one BAT.ReplaceAt per attribute. The
// differential test below holds both halves to the row-at-a-time
// algorithms they replaced, kept here as the oracle: every cell, the
// shape and every NULL must come out identical, and every statement the
// oracle refuses must fail leaving the array and the WAL untouched.

// ---------------------------------------------------------------- oracle

// arrayModel is the oracle's copy of an array: its shape and, per
// attribute, one boxed value per cell.
type arrayModel struct {
	shape     shape.Shape
	unbounded []bool
	attrs     []catalog.Column
	cells     [][]types.Value
}

func modelOf(a *catalog.Array) *arrayModel {
	m := &arrayModel{shape: append(shape.Shape{}, a.Shape...),
		unbounded: append([]bool{}, a.Unbounded...), attrs: a.Attrs}
	for _, b := range a.AttrBats {
		vals := make([]types.Value, b.Len())
		for p := range vals {
			vals[p] = b.Get(p)
		}
		m.cells = append(m.cells, vals)
	}
	return m
}

// reshape re-grids every attribute onto sh: overlapping cells keep their
// values, fresh cells get the attribute default.
func (m *arrayModel) reshape(sh shape.Shape) {
	for i, col := range m.attrs {
		def := types.Null(col.Type.Kind)
		if col.HasDef {
			def = col.Default
		}
		vals := make([]types.Value, sh.Cells())
		for p := range vals {
			vals[p] = def
			if q, ok := m.shape.Pos(sh.Coords(p, nil)); ok {
				vals[p] = m.cells[i][q]
			}
		}
		m.cells[i] = vals
	}
	m.shape = sh
}

// oracleInsert is array INSERT as one row at a time: coordinates per row,
// growth per coordinate, then per row a position and a cast per value.
func oracleInsert(m *arrayModel, targets []arrayTarget, rows [][]types.Value) error {
	coordsPerRow := make([][]int64, len(rows))
	for ri, row := range rows {
		coords := make([]int64, len(m.shape))
		for ti, tg := range targets {
			if !tg.isDim {
				continue
			}
			v := row[ti]
			if v.IsNull() {
				return fmt.Errorf("NULL value for dimension %q", m.shape[tg.idx].Name)
			}
			iv, err := v.AsInt()
			if err != nil {
				return fmt.Errorf("dimension %q: %v", m.shape[tg.idx].Name, err)
			}
			coords[tg.idx] = iv
		}
		coordsPerRow[ri] = coords
	}
	newShape := append(shape.Shape{}, m.shape...)
	for k := range newShape {
		if !m.unbounded[k] {
			continue
		}
		d := &newShape[k]
		for _, c := range coordsPerRow {
			v := c[k]
			if d.N() == 0 {
				d.Start, d.Stop = v, v+d.Step
				continue
			}
			if ((v-d.Start)%d.Step+d.Step)%d.Step != 0 {
				return fmt.Errorf("coordinate %d is off the step grid of dimension %q", v, d.Name)
			}
			if d.Step > 0 {
				if v < d.Start {
					d.Start = v
				}
				if v >= d.Stop {
					d.Stop = v + d.Step
				}
			} else {
				if v > d.Start {
					d.Start = v
				}
				if v <= d.Stop {
					d.Stop = v + d.Step
				}
			}
		}
	}
	type write struct {
		pos  int
		attr int
		val  types.Value
	}
	var writes []write
	for ri, row := range rows {
		p, ok := newShape.Pos(coordsPerRow[ri])
		if !ok {
			return fmt.Errorf("cell %v is outside the dimension ranges", coordsPerRow[ri])
		}
		for ti, tg := range targets {
			if tg.isDim {
				continue
			}
			v, err := row[ti].Cast(m.attrs[tg.idx].Type.Kind)
			if err != nil {
				return fmt.Errorf("attribute %q: %v", m.attrs[tg.idx].Name, err)
			}
			writes = append(writes, write{p, tg.idx, v})
		}
	}
	if !newShape.Equal(m.shape) {
		m.reshape(newShape)
	}
	for _, w := range writes {
		m.cells[w.attr][w.pos] = w.val
	}
	return nil
}

// oracleCoerce is the table→array coercion of a result one row at a
// time: bounds by scanning, the step by a GCD over offsets from the
// minimum, each row's cell by Shape.Pos, each value by Replace.
func oracleCoerce(r *Result, hint shape.Shape) (*Result, error) {
	var dimIdx, attrIdx []int
	for i, d := range r.Dims {
		if d {
			dimIdx = append(dimIdx, i)
		} else {
			attrIdx = append(attrIdx, i)
		}
	}
	n := r.NumRows()
	var sh shape.Shape
	if hint != nil && len(hint) == len(dimIdx) {
		sh = hint
	} else {
		sh = make(shape.Shape, len(dimIdx))
		for k, ci := range dimIdx {
			col := r.Cols[ci]
			if col.ValueKind() != types.KindInt && col.ValueKind() != types.KindOID {
				return nil, fmt.Errorf("dimension column %q must be integer", r.Names[ci])
			}
			var lo, hi int64
			for i := 0; i < n; i++ {
				if col.IsNull(i) {
					return nil, fmt.Errorf("NULL value in dimension column %q", r.Names[ci])
				}
				v := col.Get(i).Int64()
				if i == 0 || v < lo {
					lo = v
				}
				if i == 0 || v > hi {
					hi = v
				}
			}
			if n == 0 {
				lo, hi = 0, -1
			}
			g := int64(0)
			for i := 0; i < n; i++ {
				g = gcd(g, col.Get(i).Int64()-lo)
			}
			if g == 0 {
				g = 1
			}
			sh[k] = shape.Dim{Name: r.Names[ci], Start: lo, Step: g, Stop: hi + g}
		}
	}
	out := &Result{IsArray: true, Shape: sh}
	for k, ci := range dimIdx {
		nn, mm := sh.Reps(k)
		col, err := bat.Series(sh[k].Start, sh[k].Step, sh[k].Stop, nn, mm)
		if err != nil {
			return nil, err
		}
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, types.KindInt)
		out.Dims = append(out.Dims, true)
		out.Cols = append(out.Cols, col)
	}
	coords := make([]int64, len(dimIdx))
	for _, ci := range attrIdx {
		col := r.Cols[ci]
		cell, err := bat.Filler(nil, sh.Cells(), types.NullUnknown(), col.ValueKind())
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for k, di := range dimIdx {
				coords[k] = r.Cols[di].Get(i).Int64()
			}
			p, ok := sh.Pos(coords)
			if !ok {
				continue
			}
			if col.IsNull(i) {
				cell.SetNull(p, true)
			} else if err := cell.Replace(p, col.Get(i)); err != nil {
				return nil, err
			}
		}
		out.Names = append(out.Names, r.Names[ci])
		out.Kinds = append(out.Kinds, col.ValueKind())
		out.Dims = append(out.Dims, false)
		out.Cols = append(out.Cols, cell)
	}
	return out, nil
}

// ------------------------------------------------------------ comparison

func sameValue(a, b types.Value) bool {
	if a.IsNull() || b.IsNull() {
		return a.IsNull() == b.IsNull()
	}
	return a.Kind() == b.Kind() && a.Equal(b)
}

// diffModel reports the first difference between a live array and its
// oracle model ("" when they agree).
func diffModel(a *catalog.Array, m *arrayModel) string {
	if !a.Shape.Equal(m.shape) {
		return fmt.Sprintf("shape %v, oracle %v", a.Shape, m.shape)
	}
	for i, b := range a.AttrBats {
		if b.Len() != len(m.cells[i]) {
			return fmt.Sprintf("attribute %s has %d cells, oracle %d", a.Attrs[i].Name, b.Len(), len(m.cells[i]))
		}
		for p, want := range m.cells[i] {
			if got := b.Get(p); !sameValue(got, want) {
				return fmt.Sprintf("attribute %s cell %v is %v, oracle %v",
					a.Attrs[i].Name, m.shape.Coords(p, nil), got, want)
			}
		}
	}
	return ""
}

// diffResults reports the first difference between two array results.
func diffResults(got, want *Result) string {
	if got.IsArray != want.IsArray || !got.Shape.Equal(want.Shape) {
		return fmt.Sprintf("shape %v (array %v), oracle %v (array %v)", got.Shape, got.IsArray, want.Shape, want.IsArray)
	}
	for k := range want.Shape {
		if got.Shape[k].Name != want.Shape[k].Name {
			return fmt.Sprintf("dimension %d named %q, oracle %q", k, got.Shape[k].Name, want.Shape[k].Name)
		}
	}
	if fmt.Sprint(got.Names, got.Kinds, got.Dims) != fmt.Sprint(want.Names, want.Kinds, want.Dims) {
		return fmt.Sprintf("columns %v %v %v, oracle %v %v %v", got.Names, got.Kinds, got.Dims, want.Names, want.Kinds, want.Dims)
	}
	for c := range want.Cols {
		if got.Cols[c].Len() != want.Cols[c].Len() {
			return fmt.Sprintf("column %s has %d rows, oracle %d", want.Names[c], got.Cols[c].Len(), want.Cols[c].Len())
		}
		for i := 0; i < want.Cols[c].Len(); i++ {
			if g, w := got.Cols[c].Get(i), want.Cols[c].Get(i); !sameValue(g, w) {
				return fmt.Sprintf("column %s row %d is %v, oracle %v", want.Names[c], i, g, w)
			}
		}
	}
	return ""
}

// ------------------------------------------------------------ generator

// diffTarget is one array under differential test: its live name and the
// oracle model that must track it.
type diffTarget struct {
	name string
	m    *arrayModel
}

// diffArrays creates the arrays the random statements write: a bounded
// one with a strided and a negative-step dimension and an attribute of
// each kind, and an unbounded one whose dimension is re-gridded to step 3
// so that growth can also meet off-grid coordinates.
func diffArrays(t *testing.T, db *DB, suffix string) []*diffTarget {
	t.Helper()
	stmts := []string{
		`CREATE ARRAY g` + suffix + ` (x INT DIMENSION[0:2:8], y INT DIMENSION[3:-1:-1], v INT DEFAULT 7, f DOUBLE, s VARCHAR, ok BOOLEAN DEFAULT true)`,
		`CREATE ARRAY u` + suffix + ` (t INT DIMENSION, v INT DEFAULT 0, f DOUBLE)`,
		`INSERT INTO u` + suffix + ` VALUES (1, 1, 0.5)`,
		`ALTER ARRAY u` + suffix + ` ALTER DIMENSION t SET RANGE [1:3:7]`,
	}
	for _, s := range stmts {
		db.MustQuery(s)
	}
	var out []*diffTarget
	for _, name := range []string{"g" + suffix, "u" + suffix} {
		a, ok := db.cat.Array(name)
		if !ok || a.Unbounded[0] != strings.HasPrefix(name, "u") {
			t.Fatalf("array %s not set up as intended", name)
		}
		out = append(out, &diffTarget{name: name, m: modelOf(a)})
	}
	return out
}

// randCoord picks a coordinate for dimension d: mostly a cell of it,
// sometimes just past its range, off its grid, or far away.
func randCoord(rng *rand.Rand, d shape.Dim) int64 {
	switch r := rng.Intn(20); {
	case r < 14 && d.N() > 0:
		return d.Value(rng.Intn(d.N()))
	case r < 16:
		return d.Stop + int64(rng.Intn(3))*d.Step
	case r < 18:
		return d.Start + 1
	default:
		return int64(rng.Intn(40) - 20)
	}
}

// randLiteral renders a value for a column of kind k: mostly one that
// casts, sometimes NULL, a float, or a string that does not.
func randLiteral(rng *rand.Rand, k types.Kind) string {
	switch r := rng.Intn(40); {
	case r == 0:
		return "NULL"
	case r == 1:
		return "'x'"
	case r < 4:
		return fmt.Sprintf("%d.5", rng.Intn(9))
	case r < 6:
		return fmt.Sprintf("'%d'", rng.Intn(9))
	}
	switch k {
	case types.KindStr:
		return fmt.Sprintf("'s%d'", rng.Intn(50))
	case types.KindBool:
		return [...]string{"true", "false"}[rng.Intn(2)]
	case types.KindFloat:
		return fmt.Sprintf("%d.25", rng.Intn(100)-50)
	}
	return fmt.Sprint(rng.Intn(200) - 100)
}

// randInsert generates one INSERT into tg: literal rows, a query over the
// src table, or a query over the array itself; sometimes with an explicit
// column list in shuffled order.
func randInsert(rng *rand.Rand, tg *diffTarget) string {
	m := tg.m
	type col struct {
		name string
		dim  int // dimension ordinal, -1 for an attribute
		kind types.Kind
	}
	var cols []col
	for k, d := range m.shape {
		cols = append(cols, col{d.Name, k, types.KindInt})
	}
	for _, a := range m.attrs {
		cols = append(cols, col{a.Name, -1, a.Type.Kind})
	}
	list := ""
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		keep := cols[:0]
		for _, c := range cols {
			if c.dim >= 0 || rng.Intn(3) > 0 {
				keep = append(keep, c)
			}
		}
		cols = keep
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.name
		}
		list = " (" + strings.Join(names, ", ") + ")"
	}
	switch rng.Intn(3) {
	case 0:
		rows := make([]string, 1+rng.Intn(6))
		for r := range rows {
			vals := make([]string, len(cols))
			for i, c := range cols {
				if c.dim >= 0 {
					switch rng.Intn(25) {
					case 0:
						vals[i] = "NULL"
					case 1:
						vals[i] = fmt.Sprintf("%d.7", randCoord(rng, m.shape[c.dim]))
					default:
						vals[i] = fmt.Sprint(randCoord(rng, m.shape[c.dim]))
					}
					continue
				}
				vals[i] = randLiteral(rng, c.kind)
			}
			rows[r] = "(" + strings.Join(vals, ", ") + ")"
		}
		return fmt.Sprintf("INSERT INTO %s%s VALUES %s", tg.name, list, strings.Join(rows, ", "))
	case 1:
		// src(i INT, j INT, w INT, h DOUBLE, z VARCHAR) holds small
		// integers, some NULL, and strings that mostly read as integers.
		exprs := make([]string, len(cols))
		for i, c := range cols {
			if c.dim >= 0 {
				d := m.shape[c.dim]
				exprs[i] = [...]string{
					fmt.Sprintf("%d + i * %d", d.Start, d.Step),
					fmt.Sprintf("%d + j * %d", d.Start, d.Step),
					"i", "j - 1", "h",
				}[rng.Intn(5)]
				continue
			}
			exprs[i] = [...]string{"w", "i + j", "h", "z", "w * 2", "i"}[rng.Intn(6)]
		}
		where := ""
		if rng.Intn(2) == 0 {
			where = fmt.Sprintf(" WHERE i < %d", rng.Intn(6))
		}
		return fmt.Sprintf("INSERT INTO %s%s SELECT %s FROM src%s", tg.name, list, strings.Join(exprs, ", "), where)
	default:
		exprs := make([]string, len(cols))
		for i, c := range cols {
			if c.dim >= 0 {
				exprs[i] = "[" + c.name + "]"
				continue
			}
			exprs[i] = c.name
			if c.kind == types.KindInt {
				exprs[i] = c.name + " + 1"
			}
		}
		return fmt.Sprintf("INSERT INTO %s%s SELECT %s FROM %s WHERE %s %% 2 = 0",
			tg.name, list, strings.Join(exprs, ", "), tg.name, m.shape[0].Name)
	}
}

// randArraySelect generates an array-valued SELECT over tg: whole-array
// and filtered coercions (identity and scatter), permuted and re-addressed
// dimensions (duplicate cells, GCD steps), and a tiling that keeps the
// source shape as its hint.
func randArraySelect(rng *rand.Rand, tg *diffTarget) string {
	n := tg.name
	if len(tg.m.shape) == 1 {
		return [...]string{
			fmt.Sprintf("SELECT [t], v, f FROM %s", n),
			fmt.Sprintf("SELECT [t * 2], v FROM %s WHERE v > 0", n),
			fmt.Sprintf("SELECT [t / 2], f FROM %s", n),
			fmt.Sprintf("SELECT [t], SUM(v) FROM %s GROUP BY %s[t-3:t+4]", n, n),
		}[rng.Intn(4)]
	}
	return [...]string{
		fmt.Sprintf("SELECT [x], [y], v, f, s, ok FROM %s", n),
		fmt.Sprintf("SELECT [x], [y], v FROM %s WHERE v > %d", n, rng.Intn(60)-30),
		fmt.Sprintf("SELECT [y], [x], s FROM %s", n),
		fmt.Sprintf("SELECT [x / 4], [y], v FROM %s", n),
		fmt.Sprintf("SELECT [x * 3 + 1], [y - 5], f FROM %s WHERE ok", n),
		fmt.Sprintf("SELECT [x], [y], SUM(v) FROM %s GROUP BY %s[x:x+4][y-1:y+1]", n, n),
	}[rng.Intn(6)]
}

func mustParseOne(t *testing.T, q string) ast.Statement {
	t.Helper()
	stmts, err := parser.Parse(q)
	if err != nil || len(stmts) != 1 {
		t.Fatalf("%s: %v", q, err)
	}
	return stmts[0]
}

// oracleRows is what the oracle consumes for an INSERT: its literal rows,
// or its query's rows before any coercion.
func oracleRows(t *testing.T, db *DB, a *catalog.Array, s *ast.Insert, targets []arrayTarget) ([][]types.Value, error) {
	t.Helper()
	if s.Query == nil {
		return insertSource(rel.NewBinder(db.cat), s, len(targets))
	}
	db.mu.RLock()
	_, res, err := db.runRaw(context.Background(), nil, rel.NewBinder(db.cat), s.Query)
	db.mu.RUnlock()
	if err != nil {
		return nil, err
	}
	return resultRows(res), nil
}

// checkArraySelect runs q both ways from the same executed plan.
func checkArraySelect(t *testing.T, db *DB, q string) string {
	t.Helper()
	sel := mustParseOne(t, q).(*ast.Select)
	db.mu.RLock()
	defer db.mu.RUnlock()
	prog, err := compile(rel.NewBinder(db.cat), sel)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	mctx, err := mal.RunCtx(context.Background(), prog)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	got, gerr := assembleResult(nil, prog, mctx)
	raw, err := rawResult(prog, mctx)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	want, werr := oracleCoerce(raw, prog.ShapeHint)
	if d := diffCoerce(raw, got, gerr, want, werr); d != "" {
		return q + ": " + d
	}
	return ""
}

// diffCoerce compares a coercion of r with the oracle's. The one intended
// difference: a result with no rows and more than one dimension used to
// fail in array.series (a zero repetition count) and is now an empty
// array.
func diffCoerce(r *Result, got *Result, gerr error, want *Result, werr error) string {
	if r.NumRows() == 0 && gerr == nil && werr != nil && got.Shape.Cells() == 0 {
		return ""
	}
	if (gerr == nil) != (werr == nil) {
		return fmt.Sprintf("error %v, oracle error %v", gerr, werr)
	}
	if gerr != nil {
		return ""
	}
	return diffResults(got, want)
}

func TestArrayWriteDifferential(t *testing.T) {
	const seeds, stmtsPerSeed = 6, 60
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE TABLE src (i INT, j INT, w INT, h DOUBLE, z VARCHAR)`)
		db.MustQuery(`INSERT INTO src VALUES (0, 0, 5, 0.5, '3'), (1, 2, NULL, 1.0, '4'),
			(2, 1, -7, NULL, '1'), (3, 3, 9, 2.75, NULL), (1, 2, 11, 3.0, '2'), (4, 0, 2, 4.5, '0'),
			(5, 5, 1, 5.0, 'seven'), (2, 1, 3, -1.0, '6')`)
		var all []*diffTarget
		for seed := int64(1); seed <= seeds; seed++ {
			rng := rand.New(rand.NewSource(seed))
			arrays := diffArrays(t, db, fmt.Sprint(seed))
			all = append(all, arrays...)
			for i := 0; i < stmtsPerSeed; i++ {
				tg := arrays[rng.Intn(len(arrays))]
				q := randInsert(rng, tg)
				a, _ := db.cat.Array(tg.name)
				s := mustParseOne(t, q).(*ast.Insert)
				targets, err := arrayTargets(a, s)
				if err != nil {
					t.Fatalf("seed %d: %s: %v", seed, q, err)
				}
				rows, rerr := oracleRows(t, db, a, s, targets)
				oerr := rerr
				if oerr == nil {
					oerr = oracleInsert(tg.m, targets, rows)
				}
				walBefore := db.WALSize()
				_, err = db.Query(q)
				if (err == nil) != (oerr == nil) {
					t.Fatalf("seed %d: %s: error %v, oracle error %v", seed, q, err, oerr)
				}
				if err != nil && db.WALSize() != walBefore {
					t.Fatalf("seed %d: %s: failed statement grew the WAL", seed, q)
				}
				a, _ = db.cat.Array(tg.name)
				if d := diffModel(a, tg.m); d != "" {
					t.Fatalf("seed %d: after %s: %s", seed, q, d)
				}
				if d := checkArraySelect(t, db, randArraySelect(rng, tg)); d != "" {
					t.Fatalf("seed %d: %s", seed, d)
				}
			}
		}
		db = reopen()
		for _, tg := range all {
			a, _ := db.cat.Array(tg.name)
			if d := diffModel(a, tg.m); d != "" {
				t.Fatalf("recovered %s: %s", tg.name, d)
			}
		}
	})
}

// TestArrayWriteFromItsOwnTarget: INSERT INTO a SELECT ... FROM a reads
// every source row as it was before the statement, also when an open
// transaction has made the target columns private, so that they are
// overwritten in place — here transposing the cells and swapping two
// attributes in one statement.
func TestArrayWriteFromItsOwnTarget(t *testing.T) {
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE ARRAY a (x INT DIMENSION[0:1:3], y INT DIMENSION[0:1:3], v INT DEFAULT 0, w INT DEFAULT 0)`)
		db.MustQuery(`UPDATE a SET v = x * 3 + y, w = 100 + x * 3 + y`)
		db.MustQuery(`BEGIN`)
		db.MustQuery(`UPDATE a SET v = v + 1000`)
		const swap = `INSERT INTO a (x, y, v, w) SELECT y, x, w, v FROM a`
		a, _ := db.cat.Array("a")
		m := modelOf(a)
		s := mustParseOne(t, swap).(*ast.Insert)
		targets, err := arrayTargets(a, s)
		if err != nil {
			t.Fatal(err)
		}
		rows, err := oracleRows(t, db, a, s, targets)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleInsert(m, targets, rows); err != nil {
			t.Fatal(err)
		}
		db.MustQuery(swap)
		db.MustQuery(`COMMIT`)
		a, _ = db.cat.Array("a")
		if d := diffModel(a, m); d != "" {
			t.Fatal(d)
		}
		db = reopen()
		a, _ = db.cat.Array("a")
		if d := diffModel(a, m); d != "" {
			t.Fatalf("recovered: %s", d)
		}
	})
}

// TestTxnReadKeepsItsResult: a result read inside a transaction may be
// made of the catalog's own columns (a whole-array coercion returns them
// as they are); later writes in the same transaction must not change it.
func TestTxnReadKeepsItsResult(t *testing.T) {
	db := New()
	db.MustQuery(`CREATE TABLE t (a INT)`)
	db.MustQuery(`INSERT INTO t VALUES (1), (2)`)
	db.MustQuery(`CREATE ARRAY m (x INT DIMENSION[0:1:2], v INT DEFAULT 0)`)
	db.MustQuery(`BEGIN`)
	db.MustQuery(`UPDATE t SET a = a + 10`)
	db.MustQuery(`UPDATE m SET v = 5`)
	rt := db.MustQuery(`SELECT a FROM t`)
	rm := db.MustQuery(`SELECT [x], v FROM m`)
	want := rt.String() + rm.String()
	db.MustQuery(`UPDATE t SET a = 0`)
	db.MustQuery(`UPDATE m SET v = 0`)
	db.MustQuery(`INSERT INTO m VALUES (1, 7)`)
	db.MustQuery(`COMMIT`)
	if got := rt.String() + rm.String(); got != want {
		t.Fatalf("results changed after later writes:\n%s\nwant:\n%s", got, want)
	}
}

// TestArrayWriteRefusals: each statement the columnar path must refuse —
// a NULL dimension, an out-of-range or off-grid cell (bounded and
// unbounded), a failed str→int cast, from literals and from a query —
// fails leaving the array and the WAL as they were.
func TestArrayWriteRefusals(t *testing.T) {
	bad := []string{
		`INSERT INTO g VALUES (NULL, 3, 1, 1.0, 'a', true)`,
		`INSERT INTO g VALUES (0, 3, 1, 1.0, 'a', true), (8, 3, 1, 1.0, 'a', true)`,
		`INSERT INTO g VALUES (1, 3, 1, 1.0, 'a', true)`,
		`INSERT INTO g (x, y, v) VALUES (2, 2, 'x')`,
		`INSERT INTO g (x, y, v) SELECT i * 2, j, z FROM src`,
		`INSERT INTO g (x, y, v) SELECT i, j, w FROM src`,
		`INSERT INTO g (x, y, v) SELECT w, j, i FROM src`,
		`INSERT INTO u VALUES (5, 1, 1.0)`,
		`INSERT INTO u (t, v) SELECT i * 3 + 2, z FROM src`,
	}
	forEachBacking(t, func(t *testing.T, db *DB, reopen func() *DB) {
		db.MustQuery(`CREATE TABLE src (i INT, j INT, w INT, z VARCHAR)`)
		db.MustQuery(`INSERT INTO src VALUES (0, 0, NULL, '1'), (1, 2, 3, 'x')`)
		db.MustQuery(`CREATE ARRAY g (x INT DIMENSION[0:2:8], y INT DIMENSION[3:-1:-1], v INT DEFAULT 7, f DOUBLE, s VARCHAR, ok BOOLEAN)`)
		db.MustQuery(`INSERT INTO g VALUES (2, 1, 5, 0.5, 'b', false)`)
		db.MustQuery(`CREATE ARRAY u (t INT DIMENSION, v INT DEFAULT 0, f DOUBLE)`)
		db.MustQuery(`INSERT INTO u VALUES (1, 1, 0.5)`)
		db.MustQuery(`ALTER ARRAY u ALTER DIMENSION t SET RANGE [1:3:7]`)
		for _, stmt := range bad {
			probe := `SELECT [x], [y], v, f, s, ok FROM g`
			if strings.HasPrefix(stmt, "INSERT INTO u") {
				probe = `SELECT [t], v, f FROM u`
			}
			db = expectNoEffect(t, db, reopen, stmt, probe)
		}
	})
}

// TestCoerceDifferential drives coercion with hand-built results the
// SQL surface rarely produces: hinted shapes with a negative step, rows
// outside the hint or off its grid, duplicate cells, oid and void
// coordinates, GCD-inferred steps, and attributes of every kind with
// NULLs.
func TestCoerceDifferential(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := randResult(rng)
		var hint shape.Shape
		if rng.Intn(2) == 0 {
			hint = shape.Shape{{Name: "a", Start: 6, Step: -2, Stop: -4}, {Name: "b", Start: 0, Step: 1, Stop: 5}}
		}
		got, gerr := coerceToArray(nil, r, hint)
		want, werr := oracleCoerce(r, hint)
		if d := diffCoerce(r, got, gerr, want, werr); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
	}
}

// randResult builds a two-dimension query result with two attributes.
func randResult(rng *rand.Rand) *Result {
	n := rng.Intn(40)
	step := int64(1 + rng.Intn(3))
	base := int64(rng.Intn(7) - 3)
	xs, ys := make([]int64, n), make([]int64, n)
	for i := range xs {
		xs[i] = base + step*int64(rng.Intn(6)-1)
		ys[i] = int64(rng.Intn(7) - 1)
	}
	r := &Result{Names: []string{"a", "b", "p", "q"}, Dims: []bool{true, true, false, false}}
	dx := bat.FromInts(xs)
	switch rng.Intn(4) {
	case 0:
		dx = bat.FromOIDs(xs)
		for i := range xs {
			xs[i] = int64(i) // oid coordinates are non-negative
		}
	case 1:
		dx = bat.NewVoid(types.OID(rng.Intn(3)), n)
	}
	r.Cols = append(r.Cols, dx, bat.FromInts(ys))
	for _, k := range []types.Kind{[...]types.Kind{types.KindInt, types.KindFloat}[rng.Intn(2)],
		[...]types.Kind{types.KindStr, types.KindBool}[rng.Intn(2)]} {
		col := bat.New(k, n)
		for i := 0; i < n; i++ {
			if rng.Intn(5) == 0 {
				col.AppendNull()
				continue
			}
			switch k {
			case types.KindInt:
				col.AppendInt(int64(rng.Intn(100)))
			case types.KindFloat:
				col.AppendFloat(float64(rng.Intn(100)) / 4)
			case types.KindStr:
				col.AppendStr(fmt.Sprint("s", rng.Intn(10)))
			case types.KindBool:
				col.AppendBool(rng.Intn(2) == 0)
			}
		}
		r.Cols = append(r.Cols, col)
	}
	for _, c := range r.Cols {
		r.Kinds = append(r.Kinds, c.ValueKind())
	}
	return r
}

// TestCoerceHintDropsNullCoordinates: under a shape hint a row with a
// NULL coordinate addresses no cell and is dropped, like a row outside
// the hint.
func TestCoerceHintDropsNullCoordinates(t *testing.T) {
	d := bat.FromInts([]int64{0, 1, 2})
	d.SetNull(1, true)
	r := &Result{Names: []string{"x", "v"}, Kinds: []types.Kind{types.KindInt, types.KindInt},
		Dims: []bool{true, false}, Cols: []*bat.BAT{d, bat.FromInts([]int64{10, 20, 30})}}
	out, err := coerceToArray(nil, r, shape.Shape{{Name: "x", Start: 0, Step: 1, Stop: 3}})
	if err != nil {
		t.Fatal(err)
	}
	got := fmt.Sprint(out.Cols[1].Get(0), out.Cols[1].Get(1), out.Cols[1].Get(2))
	if got != "10 null 30" {
		t.Fatalf("cells = %s, want 10 null 30", got)
	}
}

// lifeStepAllocs counts the allocations of one Game of Life generation
// (the paper's one-statement INSERT ... SELECT) on an n×n board.
func lifeStepAllocs(t *testing.T, n int) float64 {
	t.Helper()
	db := New()
	db.MustQuery(fmt.Sprintf(`CREATE ARRAY life (x INT DIMENSION[0:1:%d], y INT DIMENSION[0:1:%d], v INT DEFAULT 0)`, n, n))
	db.MustQuery(`INSERT INTO life VALUES (1, 0, 1), (2, 1, 1), (0, 2, 1), (1, 2, 1), (2, 2, 1)`)
	const step = `INSERT INTO life
		SELECT [x], [y], CASE WHEN SUM(v) = 3 OR (SUM(v) = 4 AND v = 1) THEN 1 ELSE 0 END
		FROM life GROUP BY life[x-1:x+2][y-1:y+2]`
	db.MustQuery(step) // warm the statement cache
	return testing.AllocsPerRun(10, func() { db.MustQuery(step) })
}

// TestLifeStepAllocsPerColumn: a generation allocates per column, not
// per cell — 16× the cells may cost only a small constant more.
func TestLifeStepAllocsPerColumn(t *testing.T) {
	small, large := lifeStepAllocs(t, 32), lifeStepAllocs(t, 128)
	t.Logf("allocations per step: %.0f at 32x32, %.0f at 128x128", small, large)
	if large-small >= 32 {
		t.Fatalf("allocations grow with the board: %.0f at 32x32, %.0f at 128x128", small, large)
	}
}
