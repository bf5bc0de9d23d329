package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metricDef names one metric; BENCHMARK.json carries the same tables and
// the test suite keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: the regression bound
}

// endToEnd is what a user of the system sees, measured with tracing off.
// An op is defined per workload (see workloads.go). Failed ops are not a
// metric here because the result line's attempted/failed carry them, and
// they must be 0.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is measured in the traced pass, from outside each layer's
// public functions. Every metric is printed on every workload; a layer a
// workload does not pass through reads 0.
var perLayer = []metricDef{
	{"stmt_us", "us", "lower", 0},
	{"parser.parse_us", "us", "lower", 0},
	{"parser.stmts_per_op", "count", "lower", 0},
	{"rel.bind_us", "us", "lower", 0},
	{"rel.optimize_us", "us", "lower", 0},
	{"rel.est_error_x", "x", "lower", 0},
	{"mal.compile_us", "us", "lower", 0},
	{"mal.run_us", "us", "lower", 0},
	{"mal.instrs", "count", "lower", 0},
	{"mal.us_per_instr", "us", "lower", 0},
	{"gdk.cells_per_s", "1/s", "higher", 0},
	{"par.scaling_x", "x", "higher", 0},
	{"core.assemble_us", "us", "lower", 0},
	{"core.dml_apply_us", "us", "lower", 0},
	{"core.ddl_us", "us", "lower", 0},
	{"core.dml_ns_per_cell", "ns", "lower", 0},
	{"allocs_per_op", "count", "lower", 0},
	{"bytes_per_op", "B", "lower", 0},
	{"wal.commit_us", "us", "lower", 0},
	{"wal.bytes_per_commit", "B", "lower", 0},
	{"wal.syncs_per_commit", "count", "lower", 0},
	{"wal.append_fsync_us", "us", "lower", 0},
	{"bat.checkpoints", "count", "lower", 0},
	{"bat.ckpt_stall_ms", "ms", "lower", 0},
	{"bat.save_ms", "ms", "lower", 0},
	{"bat.store_bytes_per_cell", "B", "lower", 0},
	{"bat.encoding_ratio", "x", "higher", 0},
	{"server.read_point_p50_ms", "ms", "lower", 0},
	{"server.read_tile_p50_ms", "ms", "lower", 0},
	{"server.write_p50_ms", "ms", "lower", 0},
	{"server.socket_us", "us", "lower", 0},
	{"server.http_overhead_us", "us", "lower", 0},
	{"server.json_ns_per_cell", "ns", "lower", 0},
	{"server.text_overhead_us", "us", "lower", 0},
	{"server.text_ns_per_cell", "ns", "lower", 0},
	{"server.queries", "count", "higher", 0},
	{"server.rejected", "count", "lower", 0},
	{"native_ratio", "x", "lower", 0},
	{"trace_overhead_ratio", "x", "lower", 0},
	{"share.parser_pct", "%", "lower", 0},
	{"share.rel_pct", "%", "lower", 0},
	{"share.mal_pct", "%", "lower", 0},
	{"share.core_pct", "%", "lower", 0},
	{"share.wal_pct", "%", "lower", 0},
	{"share.server_pct", "%", "lower", 0},
}

func (r report) defs() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// print writes the pass as text: every metric by name with its unit, then
// the diagnostics.
func (r report) print(w io.Writer) {
	pass := "end-to-end (tracing off)"
	if r.Trace {
		pass = "per-layer (traced)"
	}
	fmt.Fprintf(w, "\n== %s  %s  seed %d  attempted %d  failed %d\n", r.Workload, pass, r.Seed, r.Attempted, r.Failed)
	if r.Error != "" {
		fmt.Fprintf(w, "   first failure: %s\n", r.Error)
	}
	for _, d := range r.defs() {
		if v, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "   %-28s %16.4f %s\n", d.Name, v, d.Unit)
		}
	}
	names := make([]string, 0, len(r.Diagnostics))
	for n := range r.Diagnostics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   (%s %.4f)\n", n, r.Diagnostics[n])
	}
}

// resultLine is the contract's last line of standard output.
func resultLine(correct bool, attempted, failed int, metrics map[string]float64) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{correct, max(attempted, 1), failed, map[string]mv{}}
	for n, v := range metrics {
		out.Metrics[n] = mv{v, unitOf(n)}
	}
	b, _ := json.Marshal(out)
	return string(b)
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}
