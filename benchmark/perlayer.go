package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"runtime"
	"strings"
	"time"
)

// stmtTrace is one traced statement: what the generator and the replay
// said about it, and the self time of each of its spans by name.
type stmtTrace struct {
	stmt
	replayed
	self map[string]time.Duration
}

// walWatch follows a durable database's log from outside: bytes and
// fsyncs per commit, and checkpoints seen as the log's size dropping.
type walWatch struct {
	eng         *engine
	last        int64
	bytes       []float64 // per commit, where no reset fell inside the statement
	commits     int64
	syncs       int64
	checkpoints int
	reset       bool // a reset was seen since the flag was last cleared
}

func (w *walWatch) observe() (size, commits, syncs int64) {
	size = w.eng.walSize()
	if size < w.last {
		w.checkpoints++
		w.reset = true
	}
	w.last = size
	commits, syncs = w.eng.commitStats()
	return size, commits, syncs
}

// around brackets one statement's executions.
func (w *walWatch) around(run func()) {
	s0, c0, f0 := w.observe()
	run()
	s1, c1, f1 := w.observe()
	w.commits += c1 - c0
	w.syncs += f1 - f0
	if s1 >= s0 && c1 > c0 {
		w.bytes = append(w.bytes, float64(s1-s0)/float64(c1-c0))
	}
}

// tracedOp runs one op with a span around every call into a layer: the
// statement as the user issues it, the same statement on the in-memory
// twin of a durable database, and its replay through the public pipeline
// functions, all under one root span.
func tracedOp(inst instance, tr *tracer, op int, stmts []stmt, ww *walWatch) ([]stmtTrace, error) {
	main, twin := inst.engines()
	out := make([]stmtTrace, 0, len(stmts))
	root := tr.begin("op", op, -1, -1)
	defer tr.end(root)
	for si, s := range stmts {
		var res result
		var err error
		run := func() {
			if inst.remote() {
				id := tr.begin("request", op, si, root)
				res, err = inst.exec(0, s.sql)
				tr.end(id)
				if err != nil {
					return
				}
				// The same statement embedded, for the socket's share.
				// A repeated cell write is idempotent.
				id = tr.begin("stmt", op, si, root)
				_, err = main.query(s.sql)
				tr.end(id)
				return
			}
			id := tr.begin("stmt", op, si, root)
			res, err = inst.exec(0, s.sql)
			tr.end(id)
		}
		if ww != nil {
			ww.around(run)
		} else {
			run()
		}
		if err == nil && s.check != nil {
			err = s.check(res)
		}
		pipeline := main
		if err == nil && twin != nil {
			pipeline = twin
			id := tr.begin("stmt.twin", op, si, root)
			_, err = twin.query(s.sql)
			tr.end(id)
		}
		if err != nil {
			return out, fmt.Errorf("%s: %w", clip(s.sql), err)
		}
		// Replay after the statement, on the state it left: DDL and
		// writes parse only, so nothing is applied twice.
		id := tr.begin("replay", op, si, root)
		rp, err := pipeline.replay(s.sql, tr, op, si, id)
		tr.end(id)
		if err != nil {
			return out, fmt.Errorf("replay %s: %w", clip(s.sql), err)
		}
		out = append(out, stmtTrace{stmt: s, replayed: rp})
	}
	return out, nil
}

// opLayers is one traced op's time by layer, in microseconds, summed over
// its statements, plus a few counts. The keys:
//
//	stmt, base          as issued; and without durability (the twin's, when there is one)
//	parse, parse.all    parse of statements new to the cache; of all statements
//	bind, optimize, compile, run
//	sel.*, ins.*, dml.*, ddl.*   base and replayed layers by statement kind
//	wal, socket, request, harness
//	stmts, instrs, cells.read, cells.written
type opLayers map[string]float64

func layersOf(sts []stmtTrace, rootSelf time.Duration) opLayers {
	o := opLayers{"harness": us(rootSelf)}
	for _, st := range sts {
		d := func(name string) float64 { return us(st.self[name]) }
		stmtUs, base := d("stmt"), d("stmt")
		if _, ok := st.self["stmt.twin"]; ok {
			base = d("stmt.twin")
			o["wal"] += max(0, stmtUs-base)
		}
		if _, ok := st.self["request"]; ok {
			o["request"] += d("request")
			o["socket"] += max(0, d("request")-stmtUs)
		}
		layers := d("rel.bind") + d("rel.optimize") + d("mal.compile") + d("mal.run")
		if st.fresh {
			o["parse"] += d("parser.parse")
			layers += d("parser.parse")
		}
		o["stmt"] += stmtUs
		o["base"] += base
		o["parse.all"] += d("parser.parse")
		o["bind"] += d("rel.bind")
		o["optimize"] += d("rel.optimize")
		o["compile"] += d("mal.compile")
		o["run"] += d("mal.run")
		o["harness"] += d("replay")
		o["stmts"]++
		o["instrs"] += float64(st.instrs)
		o[string(st.kind)+".base"] += base
		o[string(st.kind)+".layers"] += layers
		if st.kind == kindSelect || st.kind == kindInsertSelect {
			o["cells.read"] += float64(st.cells)
		}
		if st.kind == kindInsertSelect || st.kind == kindDML {
			o["cells.written"] += float64(st.cells)
		}
	}
	return o
}

// med is the median of one key over the traced ops that have it: an op
// that never entered a layer (a point read has no DML apply) says nothing
// about that layer's cost.
func med(ops []opLayers, key string) float64 {
	var xs []float64
	for _, o := range ops {
		if v := o[key]; v != 0 {
			xs = append(xs, v)
		}
	}
	return median(xs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runTraced measures the per-layer metrics. A fixed number of ops run
// with spans on, after as many untraced ops in the same process, which
// give the tracing overhead, the native ratio and the allocation rates.
// Nothing here depends on the clock, so the statements, the WAL's growth
// and with them every count repeat exactly from run to run.
func runTraced(w workload, o runOpts) report {
	rep := newReport(w, o, true)
	cfg := o.config(w, 0, true)
	d, total, _, err := setUp(w, cfg, o.warmOps(w))
	if err != nil {
		return rep.fail(total, err)
	}
	inst := d.inst
	finished := false
	defer func() {
		if !finished {
			tearDown(inst, cfg)
		}
	}()

	// Untraced block.
	traceOps := w.traceOps
	if o.smoke {
		traceOps = 3
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	plain := d.run(count(traceOps))
	runtime.ReadMemStats(&m1)
	total.addCounts(plain)
	if len(plain.lat) == 0 {
		return rep.fail(total, fmt.Errorf("no untraced op succeeded"))
	}

	// Traced block: client 0 only, so counters repeat exactly.
	main, _ := inst.engines()
	var ww *walWatch
	if durable(main) {
		ww = &walWatch{eng: main, last: main.walSize()}
	}
	tr := newTracer()
	var traces [][]stmtTrace
	var opMs, stallMs []float64
	var estErr []float64
	for i := 0; i < traceOps && total.failed < maxFailures; i++ {
		stmts := inst.next(0)
		total.attempted++
		if ww != nil {
			ww.reset = false
		}
		start := time.Now()
		sts, err := tracedOp(inst, tr, i, stmts, ww)
		took := time.Since(start)
		inst.native()
		if err != nil {
			total.addFailure(err)
			sts = nil
		}
		traces = append(traces, sts)
		opMs = append(opMs, ms(took))
		if ww != nil && ww.reset {
			stallMs = append(stallMs, ms(took))
		}
		for _, st := range sts {
			if st.kind == kindSelect && st.rows > 0 {
				estErr = append(estErr, st.estRows/float64(st.rows))
			}
		}
	}

	// Fold the spans' self times back onto their statements.
	self := selfTimes(tr.spans)
	rootSelf := make([]time.Duration, len(traces))
	for _, sp := range tr.spans {
		if sp.Stmt < 0 {
			rootSelf[sp.Op] = self[sp.ID]
			continue
		}
		if sp.Stmt >= len(traces[sp.Op]) {
			continue // the op failed at this statement
		}
		st := &traces[sp.Op][sp.Stmt]
		if st.self == nil {
			st.self = map[string]time.Duration{}
		}
		st.self[sp.Name] += self[sp.ID]
	}
	var ops []opLayers
	for i, sts := range traces {
		if sts != nil {
			ops = append(ops, layersOf(sts, rootSelf[i]))
		}
	}
	if len(ops) == 0 {
		return rep.fail(total, fmt.Errorf("no traced op succeeded"))
	}

	commitBytes := 0
	if ww != nil {
		commitBytes = int(median(ww.bytes))
	}
	if err := inst.probe(commitBytes); err != nil {
		total.addFailure(fmt.Errorf("probe: %w", err))
	}
	finished = true
	if err := tearDown(inst, cfg); err != nil {
		total.addFailure(err)
	}
	if o.spans != "" {
		if err := writeSpans(o.spans, tr.spans); err != nil {
			return rep.fail(total, err)
		}
	}

	layerMetrics(rep.Metrics, ops, traces, estErr)
	mt := rep.Metrics
	nOps := float64(plain.attempted)
	mt["allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / nOps
	mt["bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / nOps
	if ww != nil {
		mt["wal.bytes_per_commit"] = mean(ww.bytes)
		mt["wal.syncs_per_commit"] = ratio(float64(ww.syncs), float64(ww.commits))
		mt["bat.checkpoints"] = float64(ww.checkpoints)
		for _, v := range stallMs {
			mt["bat.ckpt_stall_ms"] = max(mt["bat.ckpt_stall_ms"], v)
		}
	}
	for name, v := range inst.extras() {
		mt[name] = v
	}
	// Over the socket an op is the request, not its embedded re-run.
	traced := mt["stmt_us"]
	if inst.remote() {
		traced = med(ops, "request")
	}
	mt["trace_overhead_ratio"] = ratio(traced/1000, median(plain.lat))
	if len(plain.native) > 0 {
		mt["native_ratio"] = ratio(median(plain.lat), median(plain.native))
	}

	dg := rep.Diagnostics
	dg["traced_ops"] = float64(len(ops))
	dg["untraced_ops"] = float64(len(plain.lat))
	dg["untraced_p50_ms"] = median(plain.lat)
	dg["traced_op_p50_ms"] = median(opMs)
	dg["harness_us"] = med(ops, "harness")
	dg["spans"] = float64(len(tr.spans))
	return rep.done(total)
}

// layerMetrics fills in what the spans alone determine. Every per-layer
// metric is reported on every workload; a layer the workload does not pass
// through reads 0.
func layerMetrics(mt map[string]float64, ops []opLayers, traces [][]stmtTrace, estErr []float64) {
	for _, def := range perLayer {
		mt[def.Name] = 0
	}
	f := func(key string) float64 { return med(ops, key) }
	stmtUs := f("stmt")
	mt["stmt_us"] = stmtUs
	mt["parser.stmts_per_op"] = f("stmts")
	mt["parser.parse_us"] = ratio(f("parse.all"), f("stmts"))
	mt["rel.bind_us"] = f("bind")
	mt["rel.optimize_us"] = f("optimize")
	mt["rel.est_error_x"] = median(estErr)
	mt["mal.compile_us"] = f("compile")
	mt["mal.run_us"] = f("run")
	mt["mal.instrs"] = f("instrs")
	mt["mal.us_per_instr"] = ratio(f("run"), f("instrs"))
	mt["gdk.cells_per_s"] = ratio(f("cells.read"), f("run")/1e6)

	// core is what is left of a statement once its replayed layers are
	// taken out: result assembly for SELECT, DML apply for writes,
	// catalog work for DDL. The subtraction is done on the medians, so
	// layers + core add up to the statement median by construction, and
	// a negative residual (noise) is reported as 0.
	rest := func(kind stmtKind) float64 { return max(0, f(string(kind)+".base")-f(string(kind)+".layers")) }
	mt["core.assemble_us"] = rest(kindSelect)
	mt["core.dml_apply_us"] = rest(kindInsertSelect) + rest(kindDML)
	mt["core.ddl_us"] = rest(kindDDL)
	mt["core.dml_ns_per_cell"] = ratio(mt["core.dml_apply_us"]*1000, f("cells.written"))
	mt["wal.commit_us"] = f("wal")

	// Per request class over the socket; empty for embedded workloads.
	request, over := map[string][]float64{}, map[string][]float64{}
	tileCells := 0.0
	for _, sts := range traces {
		for _, st := range sts {
			if _, ok := st.self["request"]; !ok {
				continue
			}
			request[st.class] = append(request[st.class], ms(st.self["request"]))
			over[st.class] = append(over[st.class], us(st.self["request"]-st.self["stmt"]))
			if st.class == "tile" {
				tileCells = float64(st.cells)
			}
		}
	}
	mt["server.read_point_p50_ms"] = median(request["point"])
	mt["server.read_tile_p50_ms"] = median(request["tile"])
	mt["server.write_p50_ms"] = median(request["write"])
	mt["server.socket_us"] = f("socket")
	mt["server.http_overhead_us"] = median(over["point"])
	mt["server.json_ns_per_cell"] = ratio(median(over["tile"])*1000, tileCells)

	share := func(v float64) float64 { return 100 * ratio(v, stmtUs) }
	mt["share.parser_pct"] = share(f("parse"))
	mt["share.rel_pct"] = share(f("bind") + f("optimize"))
	mt["share.mal_pct"] = share(f("compile") + f("run"))
	mt["share.core_pct"] = share(mt["core.assemble_us"] + mt["core.dml_apply_us"] + mt["core.ddl_us"])
	mt["share.wal_pct"] = share(f("wal"))
	mt["share.server_pct"] = 100 * ratio(f("socket"), f("request"))
}

// durable reports whether a database keeps a write-ahead log: even an
// empty log has its header.
func durable(e *engine) bool { return e.walSize() > 0 }

// ----------------------------------------------------------------- probes

// probe on a durable database times an explicit checkpoint and the raw
// append+fsync floor of the directory the database lives in.
func (b *base) probe(commitBytes int) error {
	if !durable(b.eng) {
		return nil
	}
	start := time.Now()
	if err := b.eng.save(); err != nil {
		return fmt.Errorf("save: %w", err)
	}
	b.setExtra("bat.save_ms", ms(time.Since(start)))
	b.setExtra("bat.encoding_ratio", b.eng.encodingRatio())
	samples, err := appendProbe(b.cfg.dir, max(commitBytes, 1), 50)
	if err != nil {
		return fmt.Errorf("append probe: %w", err)
	}
	b.setExtra("wal.append_fsync_us", median(samples))
	return nil
}

// probe on table-analytics prices morsel parallelism: the round at one
// thread over the round at the pinned width. The width is set the only
// way the benchmark may set it, through GOMAXPROCS.
func (t *table) probe(int) error {
	// The fastest of five rounds: interference only ever adds time, and
	// a ratio of two short measurements needs both ends clean.
	round := func() (float64, error) {
		best := math.Inf(1)
		for i := 0; i < 5; i++ {
			start := time.Now()
			for _, s := range t.round {
				if _, err := t.eng.query(s.sql); err != nil {
					return 0, err
				}
			}
			best = min(best, ms(time.Since(start)))
		}
		return best, nil
	}
	wide, err := round()
	if err != nil {
		return err
	}
	prev := runtime.GOMAXPROCS(1)
	one, err := round()
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	t.setExtra("par.scaling_x", ratio(one, wide))
	return nil
}

// probe on sciqld-mix adds the text protocol's overhead for the point
// read and the tile read, next to the HTTP overhead the spans give: the
// same statements over a raw connection, less their embedded time.
func (m *mix) probe(commitBytes int) error {
	if err := m.base.probe(commitBytes); err != nil {
		return err
	}
	conn, err := net.Dial("tcp", m.srv.addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	rd := bufio.NewReader(conn)
	text := func(sql string) error {
		if _, err := fmt.Fprintf(conn, "%s\n", sql); err != nil {
			return err
		}
		for {
			line, err := rd.ReadString('\n')
			if err != nil {
				return err
			}
			if strings.HasPrefix(line, "!error") {
				return fmt.Errorf("text protocol: %s", strings.TrimSpace(line))
			}
			if line == ".\n" {
				return nil
			}
		}
	}
	overhead := func(sql string) (float64, error) {
		var wire, embedded []float64
		for i := 0; i < 30; i++ {
			start := time.Now()
			if err := text(sql); err != nil {
				return 0, err
			}
			wire = append(wire, us(time.Since(start)))
			start = time.Now()
			if _, err := m.eng.query(sql); err != nil {
				return 0, err
			}
			embedded = append(embedded, us(time.Since(start)))
		}
		return median(wire) - median(embedded), nil
	}
	point, err := overhead(fmt.Sprintf(`SELECT v FROM grid WHERE x = %d AND y = %d`, m.n/2, m.n/2))
	if err != nil {
		return err
	}
	tile, err := overhead(`SELECT [x], [y], AVG(v) FROM grid GROUP BY grid[x-1:x+2][y-1:y+2]`)
	if err != nil {
		return err
	}
	m.setExtra("server.text_overhead_us", point)
	m.setExtra("server.text_ns_per_cell", tile*1000/float64(m.n*m.n))
	_, err = fmt.Fprint(conn, "\\q\n")
	return err
}
