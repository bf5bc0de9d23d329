package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// stmt is one SQL statement of an op, with what the runner needs to
// execute, check and attribute it.
type stmt struct {
	sql   string
	class string // latency class for the per-class diagnostics
	fresh bool   // the text cannot be in the parse cache when it runs
	cells int    // cells or rows the statement reads or writes
	check func(result) error
}

// config is everything a workload instance is generated from.
type config struct {
	seed  int64
	width int    // pinned GOMAXPROCS; no workload uses more clients
	smoke bool   // small inputs, for the test suite
	twin  bool   // keep an in-memory twin of a durable database (traced pass)
	dir   string // fresh directory for a durable database
}

// instance is one generated workload. newX builds it from the seed alone,
// touching no engine; load opens the database and loads the inputs.
type instance interface {
	// inputs writes the generated inputs, for the determinism test.
	inputs(w io.Writer)
	load() error
	clients() int
	// next returns the statements of a client's next op. It is called
	// once per op and advances the generator and the oracle's model.
	next(client int) []stmt
	exec(client int, sql string) (result, error)
	// remote reports whether exec crosses the server socket.
	remote() bool
	// native runs the native Go equivalent of one op and reports whether
	// the workload has one.
	native() bool
	// finish runs the end-of-run oracles and releases everything.
	finish() error
	engines() (main, twin *engine)
	// probe takes the per-layer measurements that need the instance's own
	// resources, after the traced ops; commitBytes is the median WAL
	// record size they saw. Results land in extras.
	probe(commitBytes int) error
	extras() map[string]float64
}

// workload describes one benchmark workload. warmOps and traceOps are
// fixed counts, so the set-up cost is measured work and the traced pass's
// counters repeat exactly; traceOps is sized to a few seconds per block.
type workload struct {
	name     string
	why      string
	warmOps  int
	traceOps int
	make     func(config) instance
}

var workloads = []workload{
	{"fig1-cycle", "the paper's Fig. 1 + Fig. 3 statements on a 4x4 array: only front-end, dispatch and DDL cost, no kernel work",
		1000, 2000, newFig1},
	{"life-step", "one Game of Life generation on 128x128 by tile aggregation into an array write: core DML apply dominates",
		20, 150, newLife},
	{"image-read", "six read-only Scenario 2 image queries on 256x256: the same kernels as life-step with no DML",
		2, 24, newImageRead},
	{"image-write-durable", "array UPDATE/DELETE/INSERT rounds on a directory-backed 256x256 image: WAL, fsync and checkpoints",
		4, 48, newImageWrite},
	{"table-analytics", "grouped float aggregates, range and candidate scans, a star join and a top-10 over 2^19 rows: gdk kernels, no DML",
		2, 16, newTable},
	{"sciqld-mix", "point reads, tile and histogram reads and durable inserts over HTTP on loopback: server, JSON and group commit",
		10, 40, newMix},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// base is the state every instance shares.
type base struct {
	cfg   config
	eng   *engine
	twin  *engine
	extra map[string]float64
}

func (b *base) clients() int                           { return 1 }
func (b *base) native() bool                           { return false }
func (b *base) remote() bool                           { return false }
func (b *base) engines() (*engine, *engine)            { return b.eng, b.twin }
func (b *base) extras() map[string]float64             { return b.extra }
func (b *base) exec(_ int, sql string) (result, error) { return b.eng.query(sql) }

func (b *base) setExtra(name string, v float64) {
	if b.extra == nil {
		b.extra = map[string]float64{}
	}
	b.extra[name] = v
}

// openDurable opens the directory-backed database and, for the traced
// pass, its in-memory twin.
func (b *base) openDurable() error {
	e, err := openDir(b.cfg.dir)
	if err != nil {
		return err
	}
	b.eng = e
	if b.cfg.twin {
		b.twin = openMem()
	}
	return nil
}

// closeDurable closes the database, records what it left on disk and
// reopens it for the durability oracle.
func (b *base) closeDurable(cells int) (*engine, error) {
	if err := b.eng.close(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	b.setExtra("bat.store_bytes_per_cell", float64(dirBytes(b.cfg.dir))/float64(cells))
	e, err := openDir(b.cfg.dir)
	if err != nil {
		return nil, fmt.Errorf("reopen: %w", err)
	}
	if err := e.checkIntegrity(); err != nil {
		e.close()
		return nil, fmt.Errorf("reopened database: %w", err)
	}
	return e, nil
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func clip(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// cellModel is the plain-slice model of an integer array attribute:
// position x*h + y, with holes.
type cellModel struct {
	h     int // cells per x
	vals  []int64
	valid []bool
}

func newCellModel(h int, cells []int64) *cellModel {
	m := &cellModel{h: h, vals: append([]int64(nil), cells...), valid: make([]bool, len(cells))}
	for i := range m.valid {
		m.valid[i] = true
	}
	return m
}

func (m *cellModel) set(x, y int, v int64) {
	m.vals[x*m.h+y], m.valid[x*m.h+y] = v, true
}

// equal compares the model with an attribute read back from a database.
func (m *cellModel) equal(e *engine, array string) error {
	vals, valid, err := e.readInts(array, "v")
	if err != nil {
		return err
	}
	if len(vals) != len(m.vals) {
		return fmt.Errorf("%s: %d cells, model has %d", array, len(vals), len(m.vals))
	}
	for p := range vals {
		if valid[p] != m.valid[p] || (valid[p] && vals[p] != m.vals[p]) {
			return fmt.Errorf("%s: cell (%d,%d) is %d (set %v), model has %d (set %v)",
				array, p/m.h, p%m.h, vals[p], valid[p], m.vals[p], m.valid[p])
		}
	}
	return nil
}

// ------------------------------------------------------------ fig1-cycle

// fig1 replays the paper's Fig. 1 and Fig. 3 statement sequence on the
// 4x4 matrix, from CREATE to DROP. The only seeded input is the addend k
// of the diagonal INSERT, which keeps every cycle's text new to the parse
// cache (the DDL purges it anyway) and makes the expected cells depend on
// the seed.
type fig1 struct {
	base
	rng *rand.Rand
}

func newFig1(cfg config) instance {
	return &fig1{base: base{cfg: cfg}, rng: rand.New(rand.NewSource(cfg.seed))}
}

// inputs writes nothing: the statements are fig1's only input.
func (f *fig1) inputs(io.Writer) {}

func (f *fig1) load() error {
	f.eng = openMem()
	return nil
}

func (f *fig1) finish() error { return f.eng.close() }

func (f *fig1) next(int) []stmt {
	k := f.rng.Int63n(1000)
	// The model: v after the guarded UPDATE, the diagonal INSERT and the
	// DELETE above the diagonal, on x, y in 0..3.
	cell := func(x, y int64) (int64, bool) {
		switch {
		case x < 0 || x > 3 || y < 0 || y > 3:
			return 0, false
		case x > y:
			return 0, false // deleted: a hole
		case x == y:
			return x*y + k, true
		}
		return x - y, true
	}
	checkArray := func(res result) error {
		if res.rows() != 16 {
			return fmt.Errorf("fig1 array select: %d cells, want 16", res.rows())
		}
		for i := 0; i < 16; i++ {
			x, _ := res.intAt(i, 0)
			y, _ := res.intAt(i, 1)
			got, ok := res.intAt(i, 2)
			want, wok := cell(x, y)
			if ok != wok || got != want {
				return fmt.Errorf("fig1 cell (%d,%d): %d (set %v), want %d (set %v)", x, y, got, ok, want, wok)
			}
		}
		return nil
	}
	checkTiles := func(res result) error {
		seen := 0
		for i := 0; i < res.rows(); i++ {
			got, ok := res.floatAt(i, 2)
			if !ok {
				continue
			}
			seen++
			x, _ := res.intAt(i, 0)
			y, _ := res.intAt(i, 1)
			sum, n := int64(0), 0
			for dx := int64(0); dx < 2; dx++ {
				for dy := int64(0); dy < 2; dy++ {
					if v, ok := cell(x+dx, y+dy); ok {
						sum, n = sum+v, n+1
					}
				}
			}
			if x%2 != 1 || y%2 != 1 || n == 0 || math.Abs(got-float64(sum)/float64(n)) > 1e-9 {
				return fmt.Errorf("fig1 tile (%d,%d): AVG %v, model %d/%d", x, y, got, sum, n)
			}
		}
		// Anchors (1,1), (1,3), (3,3) have cells; (3,1) covers holes only.
		if seen != 3 {
			return fmt.Errorf("fig1 tiling: %d anchors with a value, want 3", seen)
		}
		return nil
	}
	checkTable := func(res result) error {
		// After both ALTERs the array is 6x6; the 20 new cells take the
		// default 0, the 6 deleted cells stay holes.
		if res.rows() != 36 {
			return fmt.Errorf("fig1 table coercion: %d rows, want 36", res.rows())
		}
		sum, holes := int64(0), 0
		for i := 0; i < 36; i++ {
			if v, ok := res.intAt(i, 2); ok {
				sum += v
			} else {
				holes++
			}
		}
		want := int64(0)
		for x := int64(0); x < 4; x++ {
			for y := int64(0); y < 4; y++ {
				v, _ := cell(x, y)
				want += v
			}
		}
		if sum != want || holes != 6 {
			return fmt.Errorf("fig1 table coercion: sum %d holes %d, want %d and 6", sum, holes, want)
		}
		return nil
	}
	s := func(class, sql string, cells int, check func(result) error) stmt {
		return stmt{sql: sql, class: class, fresh: true, cells: cells, check: check}
	}
	return []stmt{
		s("create", `CREATE ARRAY matrix (x INT DIMENSION[0:1:4], y INT DIMENSION[0:1:4], v INT DEFAULT 0)`, 16, nil),
		s("update", `UPDATE matrix SET v = CASE WHEN x > y THEN x + y WHEN x < y THEN x - y ELSE 0 END`, 16, nil),
		s("insert", fmt.Sprintf(`INSERT INTO matrix SELECT [x], [y], x * y + %d FROM matrix WHERE x = y`, k), 16, nil),
		s("delete", `DELETE FROM matrix WHERE x > y`, 16, nil),
		s("select", `SELECT [x], [y], v FROM matrix`, 16, checkArray),
		s("tile", `SELECT [x], [y], AVG(v) FROM matrix GROUP BY matrix[x:x+2][y:y+2] HAVING x MOD 2 = 1 AND y MOD 2 = 1`, 16, checkTiles),
		s("alter", `ALTER ARRAY matrix ALTER DIMENSION x SET RANGE [-1:1:5]`, 16, nil),
		s("alter", `ALTER ARRAY matrix ALTER DIMENSION y SET RANGE [-1:1:5]`, 24, nil),
		s("coerce", `SELECT x, y, v FROM matrix`, 36, checkTable),
		s("drop", `DROP ARRAY matrix`, 36, nil),
	}
}

// ------------------------------------------------------------- life-step

// life advances a seeded board one generation per op, in SQL and natively.
type life struct {
	base
	n     int
	alive [][2]int
	game  *lifeGame
}

func newLife(cfg config) instance {
	l := &life{base: base{cfg: cfg}, n: 128}
	if cfg.smoke {
		l.n = 32
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	for x := 0; x < l.n; x++ {
		for y := 0; y < l.n; y++ {
			if rng.Float64() < 0.30 {
				l.alive = append(l.alive, [2]int{x, y})
			}
		}
	}
	return l
}

func (l *life) inputs(w io.Writer) { fmt.Fprint(w, l.alive) }

func (l *life) load() (err error) {
	l.eng = openMem()
	l.game, err = newLifeGame(l.eng, l.n, l.n, l.alive)
	return err
}

func (l *life) next(int) []stmt {
	return []stmt{{sql: lifeStepSQL(), class: "step", cells: l.n * l.n}}
}

// native advances the native board: the baseline, and the oracle's model.
func (l *life) native() bool {
	l.game.nativeStep()
	return true
}

func (l *life) finish() error {
	if err := l.game.verify(); err != nil {
		return err
	}
	return l.eng.close()
}

// ------------------------------------------------------------ image-read

type imageRead struct {
	base
	n   int
	im  image
	ops []imageOp
	// verified is set once a round has compared every result with its
	// native image; that is the first op, in the warm-up. Later rounds
	// check cell counts only.
	verified bool
}

func newImageRead(cfg config) instance {
	r := &imageRead{base: base{cfg: cfg}, n: 256}
	if cfg.smoke {
		r.n = 64
	}
	r.im = remoteSensing(r.n, r.n, uint64(cfg.seed)+1)
	r.ops = imageReadOps("img", r.im)
	return r
}

func (r *imageRead) inputs(w io.Writer) { fmt.Fprint(w, r.im.cells()) }

func (r *imageRead) load() error {
	r.eng = openMem()
	r.native() // the images the first op's results are compared with
	return r.eng.loadImage("img", r.im)
}

func (r *imageRead) next(int) []stmt {
	out := make([]stmt, len(r.ops))
	full := !r.verified
	for i, op := range r.ops {
		op := op
		out[i] = stmt{sql: op.sql, class: op.class, cells: r.n * r.n, check: func(res result) error {
			if op.cells > 0 && res.rows() != op.cells {
				return fmt.Errorf("%s: %d cells, want %d", op.class, res.rows(), op.cells)
			}
			if full {
				return op.verify(res)
			}
			return nil
		}}
	}
	r.verified = true
	return out
}

// native computes the six native images.
func (r *imageRead) native() bool {
	for _, op := range r.ops {
		op.native()
	}
	return true
}

func (r *imageRead) finish() error { return r.eng.close() }

// --------------------------------------------------- image-write-durable

// imageWrite applies a stationary round of array writes to a durable
// image and to a plain-slice model of it.
type imageWrite struct {
	base
	n     int
	im    image
	model *cellModel
	rng   *rand.Rand
	// pending is the round next returned, which native then applies to
	// the model.
	pending [][3]int64
}

func newImageWrite(cfg config) instance {
	w := &imageWrite{base: base{cfg: cfg}, n: 256, rng: rand.New(rand.NewSource(cfg.seed))}
	if cfg.smoke {
		w.n = 64
	}
	w.im = remoteSensing(w.n, w.n, uint64(cfg.seed)+1)
	w.model = newCellModel(w.n, w.im.cells())
	return w
}

func (w *imageWrite) inputs(out io.Writer) { fmt.Fprint(out, w.im.cells()) }

func (w *imageWrite) load() error {
	if err := w.openDurable(); err != nil {
		return err
	}
	for _, e := range []*engine{w.eng, w.twin} {
		if e == nil {
			continue
		}
		if err := e.loadImage("img", w.im); err != nil {
			return err
		}
	}
	return nil
}

func (w *imageWrite) next(int) []stmt {
	// 64 distinct seeded cells for the INSERT ... VALUES.
	w.pending = w.pending[:0]
	taken := map[int]bool{}
	var sb strings.Builder
	sb.WriteString("INSERT INTO img VALUES ")
	for len(w.pending) < 64 {
		p := w.rng.Intn(w.n * w.n)
		if taken[p] {
			continue
		}
		taken[p] = true
		c := [3]int64{int64(p / w.n), int64(p % w.n), int64(w.rng.Intn(256))}
		if len(w.pending) > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "(%d, %d, %d)", c[0], c[1], c[2])
		w.pending = append(w.pending, c)
	}
	all := w.n * w.n
	return []stmt{
		{sql: `UPDATE img SET v = 255 - v`, class: "update-all", cells: all},
		{sql: `UPDATE img SET v = 255 - v`, class: "update-all", cells: all},
		{sql: `UPDATE img SET v = 0 WHERE v < 60`, class: "update-where", cells: all},
		{sql: `DELETE FROM img WHERE x < 16 AND y < 16`, class: "delete", cells: 256},
		{sql: `INSERT INTO img SELECT [x], [y], x + y FROM img WHERE x < 16 AND y < 16`, class: "insert-select", cells: 256},
		{sql: sb.String(), class: "insert-values", fresh: true, cells: 64},
	}
}

// native applies the round to the plain-slice model: the native baseline
// of the writes, and what the reopened database must equal.
func (w *imageWrite) native() bool {
	m := w.model
	for pass := 0; pass < 2; pass++ {
		for p := range m.vals {
			m.vals[p] = 255 - m.vals[p]
		}
	}
	for p, v := range m.vals {
		if m.valid[p] && v < 60 {
			m.vals[p] = 0
		}
	}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			m.valid[x*m.h+y] = false
		}
	}
	for x := 0; x < 16; x++ {
		for y := 0; y < 16; y++ {
			m.set(x, y, int64(x+y))
		}
	}
	for _, c := range w.pending {
		m.set(int(c[0]), int(c[1]), c[2])
	}
	return true
}

func (w *imageWrite) finish() error {
	if err := w.model.equal(w.eng, "img"); err != nil {
		return fmt.Errorf("before close: %w", err)
	}
	e, err := w.closeDurable(w.n * w.n)
	if err != nil {
		return err
	}
	defer e.close()
	if err := w.model.equal(e, "img"); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}

// ------------------------------------------------------- table-analytics

const (
	tableStations = 1000
	tableRegions  = 20
	tableDays     = 364
)

// table holds obs(id, station, day, temp, flag) with its two dimension
// tables, the five queries of a round and their Go-computed answers.
type table struct {
	base
	n, perDay int
	station   []int32
	temp      []int32 // thousandths of a degree, so the text is exact
	flag      []int32
	region    []int // per station; exactly 50 stations per region
	elev      []int // per station; a permutation of 0, 3, 6, ...
	d0, f     int   // seeded query parameters, fixed for the run
	round     []stmt
}

func newTable(cfg config) instance {
	t := &table{base: base{cfg: cfg}, n: 1 << 19}
	if cfg.smoke {
		t.n = 1 << 13
	}
	t.perDay = t.n / tableDays
	rng := rand.New(rand.NewSource(cfg.seed))
	t.station, t.temp, t.flag = make([]int32, t.n), make([]int32, t.n), make([]int32, t.n)
	for i := 0; i < t.n; i++ {
		t.station[i] = int32(rng.Intn(tableStations))
		t.temp[i] = int32(math.Round((15 + 10*rng.NormFloat64()) * 1000))
		t.flag[i] = int32(rng.Intn(100))
	}
	// Permutations keep the selectivity of the dimension filter and the
	// group sizes identical for every seed; only which rows match varies.
	t.elev, t.region = rng.Perm(tableStations), rng.Perm(tableStations)
	for i := range t.elev {
		t.elev[i] *= 3
		t.region[i] %= tableRegions
	}
	t.d0 = 20 + rng.Intn(tableDays-60)
	t.f = rng.Intn(100)
	t.round = t.queries()
	return t
}

func (t *table) day(i int) int        { return i / t.perDay }
func (t *table) tempOf(i int) float64 { return float64(t.temp[i]) / 1000 }

// loadStmts emits the CREATE and batched INSERT statements; the engine
// has no bulk loader for tables.
func (t *table) loadStmts(emit func(string) error) error {
	for _, ddl := range []string{
		`CREATE TABLE obs (id INT, station INT, day INT, temp DOUBLE, flag INT)`,
		`CREATE TABLE station (id INT, region INT, elev INT)`,
		`CREATE TABLE region (id INT, zone INT)`,
	} {
		if err := emit(ddl); err != nil {
			return err
		}
	}
	const batch = 8192
	buf := make([]byte, 0, batch*40)
	for lo := 0; lo < t.n; lo += batch {
		buf = append(buf[:0], "INSERT INTO obs VALUES "...)
		for i := lo; i < min(lo+batch, t.n); i++ {
			if i > lo {
				buf = append(buf, ',')
			}
			buf = append(buf, '(')
			buf = strconv.AppendInt(buf, int64(i), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(t.station[i]), 10)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(t.day(i)), 10)
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, t.tempOf(i), 'f', 3, 64)
			buf = append(buf, ',')
			buf = strconv.AppendInt(buf, int64(t.flag[i]), 10)
			buf = append(buf, ')')
		}
		if err := emit(string(buf)); err != nil {
			return err
		}
	}
	var sb strings.Builder
	sb.WriteString("INSERT INTO station VALUES ")
	for i := 0; i < tableStations; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d,%d)", i, t.region[i], t.elev[i])
	}
	if err := emit(sb.String()); err != nil {
		return err
	}
	sb.Reset()
	sb.WriteString("INSERT INTO region VALUES ")
	for i := 0; i < tableRegions; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "(%d,%d)", i, i%4)
	}
	return emit(sb.String())
}

func (t *table) inputs(w io.Writer) {
	t.loadStmts(func(s string) error {
		io.WriteString(w, s)
		return nil
	})
}

func (t *table) load() error {
	t.eng = openMem()
	return t.loadStmts(func(s string) error {
		_, err := t.eng.query(s)
		return err
	})
}

// near accepts a float aggregate within relative 1e-9 of the reference,
// whatever order the engine summed in.
func near(got, want float64) bool {
	return math.Abs(got-want) <= 1e-9*math.Max(1, math.Abs(want))
}

// queries builds the round and computes every answer in plain Go.
func (t *table) queries() []stmt {
	// 1: grouped float aggregates by station.
	sum, cnt := make([]float64, tableStations), make([]int64, tableStations)
	for i := 0; i < t.n; i++ {
		sum[t.station[i]] += t.tempOf(i)
		cnt[t.station[i]]++
	}
	q1 := stmt{class: "group-float", cells: t.n,
		sql: `SELECT station, SUM(temp), AVG(temp), COUNT(*) FROM obs GROUP BY station`,
		check: func(res result) error {
			groups := 0
			for _, c := range cnt {
				if c > 0 {
					groups++
				}
			}
			if res.rows() != groups {
				return fmt.Errorf("group-float: %d groups, want %d", res.rows(), groups)
			}
			for r := 0; r < res.rows(); r++ {
				s, _ := res.intAt(r, 0)
				gs, _ := res.floatAt(r, 1)
				ga, _ := res.floatAt(r, 2)
				gc, _ := res.intAt(r, 3)
				if s < 0 || s >= tableStations || gc != cnt[s] || !near(gs, sum[s]) || !near(ga, sum[s]/float64(cnt[s])) {
					return fmt.Errorf("group-float: station %d got (%v, %v, %d), want (%v, %v, %d)",
						s, gs, ga, gc, sum[s], sum[s]/float64(cnt[s]), cnt[s])
				}
			}
			return nil
		}}

	// 2: a 3-day range on the clustered column.
	var c2, s2 int64
	for i := 0; i < t.n; i++ {
		if d := t.day(i); d >= t.d0 && d < t.d0+3 {
			c2++
			s2 += int64(t.flag[i])
		}
	}
	q2 := stmt{class: "day-range", cells: t.n,
		sql:   fmt.Sprintf(`SELECT COUNT(*), SUM(flag) FROM obs WHERE day >= %d AND day < %d`, t.d0, t.d0+3),
		check: wantInts("day-range", c2, s2)}

	// 3: an equality and a float comparison, answered with candidate lists.
	var c3, s3 int64
	for i := 0; i < t.n; i++ {
		if int(t.flag[i]) == t.f && t.temp[i] > 30000 {
			c3++
			s3 += int64(i)
		}
	}
	q3 := stmt{class: "candidates", cells: t.n,
		sql:   fmt.Sprintf(`SELECT COUNT(*), SUM(id) FROM obs WHERE flag = %d AND temp > 30.0`, t.f),
		check: wantInts("candidates", c3, s3)}

	// 4: the star join, filtered on a dimension attribute, grouped by region.
	jc, js := make([]int64, tableRegions), make([]float64, tableRegions)
	for i := 0; i < t.n; i++ {
		if s := t.station[i]; t.elev[s] < 300 {
			jc[t.region[s]]++
			js[t.region[s]] += t.tempOf(i)
		}
	}
	q4 := stmt{class: "star-join", cells: t.n,
		sql: `SELECT r.id, COUNT(*), SUM(o.temp) FROM obs o, station s, region r ` +
			`WHERE o.station = s.id AND s.region = r.id AND s.elev < 300 GROUP BY r.id`,
		check: func(res result) error {
			groups := 0
			for _, c := range jc {
				if c > 0 {
					groups++
				}
			}
			if res.rows() != groups {
				return fmt.Errorf("star-join: %d groups, want %d", res.rows(), groups)
			}
			for r := 0; r < res.rows(); r++ {
				id, _ := res.intAt(r, 0)
				gc, _ := res.intAt(r, 1)
				gs, _ := res.floatAt(r, 2)
				if id < 0 || id >= tableRegions || gc != jc[id] || !near(gs, js[id]) {
					return fmt.Errorf("star-join: region %d got (%d, %v), want (%d, %v)", id, gc, gs, jc[id], js[id])
				}
			}
			return nil
		}}

	// 5: top 10 by temperature over a 10-day range. (Over the whole
	// table the engine's sort takes 1.2 s and would be nine tenths of the
	// round, hiding the other four queries.)
	lo, hi := t.d0*t.perDay, min((t.d0+10)*t.perDay, t.n)
	top := make([]int32, 0, 11)
	for i := lo; i < hi; i++ {
		j := len(top)
		top = append(top, t.temp[i])
		for j > 0 && top[j-1] < top[j] {
			top[j-1], top[j] = top[j], top[j-1]
			j--
		}
		if len(top) > 10 {
			top = top[:10]
		}
	}
	q5 := stmt{class: "top10", cells: hi - lo,
		sql: fmt.Sprintf(`SELECT id, temp FROM obs WHERE day >= %d AND day < %d ORDER BY temp DESC LIMIT 10`, t.d0, t.d0+10),
		check: func(res result) error {
			if res.rows() != len(top) {
				return fmt.Errorf("top10: %d rows, want %d", res.rows(), len(top))
			}
			for r := range top {
				id, _ := res.intAt(r, 0)
				got, _ := res.floatAt(r, 1)
				// Ties may come back in any order, so the id is checked
				// against the row it names, not against a position.
				if id < int64(lo) || id >= int64(hi) || t.temp[id] != top[r] || got != float64(top[r])/1000 {
					return fmt.Errorf("top10: row %d is (%d, %v), want temp %v", r, id, got, float64(top[r])/1000)
				}
			}
			return nil
		}}
	return []stmt{q1, q2, q3, q4, q5}
}

func wantInts(class string, want ...int64) func(result) error {
	return func(res result) error {
		if res.rows() != 1 {
			return fmt.Errorf("%s: %d rows, want 1", class, res.rows())
		}
		for c, w := range want {
			if got, _ := res.intAt(0, c); got != w {
				return fmt.Errorf("%s: column %d is %d, want %d", class, c, got, w)
			}
		}
		return nil
	}
}

func (t *table) next(int) []stmt { return t.round }

func (t *table) finish() error { return t.eng.close() }

// ------------------------------------------------------------ sciqld-mix

// mix drives a directory-backed database through a sciqld server on
// loopback TCP with one closed-loop HTTP client per pinned thread. Each
// client owns the cells whose position is congruent to its index, writes
// only those, and checks every point read of them against what it wrote.
type mix struct {
	base
	n       int
	im      image
	model   *cellModel // all clients' cells; each client touches only its own
	rngs    []*rand.Rand
	srv     *served
	remotes []*remote
}

func newMix(cfg config) instance {
	m := &mix{base: base{cfg: cfg}, n: 64}
	if cfg.smoke {
		m.n = 16
	}
	m.im = remoteSensing(m.n, m.n, uint64(cfg.seed)+1)
	m.model = newCellModel(m.n, m.im.cells())
	for c := 0; c < cfg.width; c++ {
		m.rngs = append(m.rngs, rand.New(rand.NewSource(cfg.seed*31+int64(c))))
	}
	return m
}

// The request classes, and how many of each one op holds: 60 % point reads,
// 15 % tile reads, 5 % histograms, 20 % writes.
const (
	mixPoint = iota
	mixTile
	mixHistogram
	mixWrite
)

var mixDeck = [...]int{mixPoint: 12, mixTile: 3, mixHistogram: 1, mixWrite: 4}

func (m *mix) inputs(w io.Writer) { fmt.Fprint(w, m.im.cells()) }

func (m *mix) clients() int { return len(m.rngs) }

func (m *mix) load() (err error) {
	if err := m.openDurable(); err != nil {
		return err
	}
	for _, e := range []*engine{m.eng, m.twin} {
		if e == nil {
			continue
		}
		if err := e.loadImage("grid", m.im); err != nil {
			return err
		}
	}
	if m.srv, err = serve(m.eng); err != nil {
		return err
	}
	for range m.rngs {
		m.remotes = append(m.remotes, dial(m.srv.addr))
	}
	return nil
}

func (m *mix) exec(client int, sql string) (result, error) { return m.remotes[client].query(sql) }

func (m *mix) remote() bool { return true }

// next deals one op: the deck of 20 requests, shuffled. An op is the whole
// deck and not one request because the median of single requests fell at
// the 83rd percentile of the point reads, between two classes a hundred
// times apart, and wandered by a tenth from one set of runs to the next;
// per-class medians are printed as diagnostics.
func (m *mix) next(client int) []stmt {
	rng, cells := m.rngs[client], m.n*m.n
	var deck []int
	for class, n := range mixDeck {
		for ; n > 0; n-- {
			deck = append(deck, class)
		}
	}
	rng.Shuffle(len(deck), func(i, j int) { deck[i], deck[j] = deck[j], deck[i] })
	out := make([]stmt, 0, len(deck))
	for _, class := range deck {
		// One of the client's own cells.
		p := rng.Intn(cells/len(m.rngs))*len(m.rngs) + client
		x, y := p/m.n, p%m.n
		switch class {
		case mixPoint:
			// The model already holds the writes dealt before this read,
			// in this op or an earlier one: what the read must return.
			want, set := m.model.vals[p], m.model.valid[p]
			out = append(out, stmt{class: "point", fresh: true, cells: 1,
				sql: fmt.Sprintf(`SELECT v FROM grid WHERE x = %d AND y = %d`, x, y),
				check: func(res result) error {
					got, ok := res.intAt(0, 0)
					if res.rows() != 1 || ok != set || got != want {
						return fmt.Errorf("point read (%d,%d): %d rows, value %d (set %v), wrote %d", x, y, res.rows(), got, ok, want)
					}
					return nil
				}})
		case mixTile:
			out = append(out, stmt{class: "tile", cells: cells,
				sql: `SELECT [x], [y], AVG(v) FROM grid GROUP BY grid[x-1:x+2][y-1:y+2]`,
				check: func(res result) error {
					if res.rows() != cells {
						return fmt.Errorf("tile read: %d cells, want %d", res.rows(), cells)
					}
					return nil
				}})
		case mixHistogram:
			out = append(out, stmt{class: "histogram", cells: cells,
				sql: `SELECT v, COUNT(*) AS cnt FROM grid GROUP BY v ORDER BY v`,
				check: func(res result) error {
					total := int64(0)
					for r := 0; r < res.rows(); r++ {
						c, _ := res.intAt(r, 1)
						total += c
					}
					if total != int64(cells) {
						return fmt.Errorf("histogram: counts add to %d, want %d", total, cells)
					}
					return nil
				}})
		case mixWrite:
			v := int64(rng.Intn(256))
			m.model.set(x, y, v)
			out = append(out, stmt{class: "write", fresh: true, cells: 1,
				sql: fmt.Sprintf(`INSERT INTO grid VALUES (%d, %d, %d)`, x, y, v),
				check: func(res result) error {
					if res.affected() != 1 {
						return fmt.Errorf("write (%d,%d): %d cells affected, want 1", x, y, res.affected())
					}
					return nil
				}})
		}
	}
	return out
}

func (m *mix) finish() error {
	queries, rejected, err := m.remotes[0].health()
	if err != nil {
		return fmt.Errorf("healthz: %w", err)
	}
	m.setExtra("server.queries", float64(queries))
	m.setExtra("server.rejected", float64(rejected))
	if err := m.srv.close(); err != nil {
		return fmt.Errorf("server close: %w", err)
	}
	if rejected != 0 {
		return fmt.Errorf("server rejected %d statements", rejected)
	}
	e, err := m.closeDurable(m.n * m.n)
	if err != nil {
		return err
	}
	defer e.close()
	if err := m.model.equal(e, "grid"); err != nil {
		return fmt.Errorf("after reopen: %w", err)
	}
	return nil
}
