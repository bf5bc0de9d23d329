package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// fingerprint hashes a workload's generated inputs and the statements of
// each client's first ops.
func fingerprint(w workload, seed int64) string {
	h := sha256.New()
	inst := w.make(config{seed: seed, width: 2, smoke: true})
	inst.inputs(h)
	for c := 0; c < inst.clients(); c++ {
		for i := 0; i < 20; i++ {
			for _, s := range inst.next(c) {
				fmt.Fprintln(h, s.class, s.fresh, s.cells, s.sql)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, w := range workloads {
		a, b, c := fingerprint(w, 7), fingerprint(w, 7), fingerprint(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 generated two different inputs", w.name)
		}
		// life-step's statement is the paper's fixed text; its board is
		// the seeded input, which inputs() covers.
		if a == c {
			t.Errorf("%s: seeds 7 and 8 generated the same inputs", w.name)
		}
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: tail must sort
		}
		return xs
	}
	if _, _, ok := tail(seq(19)); ok {
		t.Error("19 samples cannot have ten beyond the median")
	}
	for _, tc := range []struct {
		n     int
		pct   float64
		value float64
	}{{20, 50, 10}, {100, 90, 90}, {199, 90, 180}, {1000, 99, 990}, {10000, 99.9, 9990}, {999, 95, 950}} {
		pct, v, ok := tail(seq(tc.n))
		if !ok || pct != tc.pct || v != tc.value {
			t.Errorf("tail of %d samples = p%v %v (ok %v), want p%v %v", tc.n, pct, v, ok, tc.pct, tc.value)
		}
		if beyond := tc.n - int(v); beyond < 10 {
			t.Errorf("tail of %d samples leaves %d beyond", tc.n, beyond)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 || median(xs) != 5.5 {
		t.Errorf("quartiles = %v, %v, median %v", q1, q3, median(xs))
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if got := spread(xs); got != 1 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		{ID: 2, Parent: 0, Start: 20, End: 50},  // overlaps span 1: counted once
		{ID: 3, Parent: 0, Start: 90, End: 120}, // clipped to the parent
		{ID: 4, Parent: 2, Start: 25, End: 45},  // a grandchild is its parent's business
	}
	want := []time.Duration{50, 20, 10, 30, 20}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got, want[i])
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	for _, tc := range []struct {
		d      metricDef
		a, b   float64
		spread float64
		want   string
	}{
		{lower, 10, 10.9, 0.02, "pass"},
		{lower, 10, 11.2, 0.02, "regressed"},
		{lower, 10, 5, 0.02, "pass"},
		{higher, 100, 91, 0.02, "pass"},
		{higher, 100, 89, 0.02, "regressed"},
		{lower, 10, 11.2, 0.15, "unresolved"},
		{metricDef{Name: "mal.run_us", Better: "lower"}, 10, 20, 0.02, "-"},
	} {
		if got := verdict(tc.d, tc.a, tc.b, tc.spread, true); got != tc.want {
			t.Errorf("%s %v -> %v at spread %v: %s, want %s", tc.d.Name, tc.a, tc.b, tc.spread, got, tc.want)
		}
	}
}

// TestManifestMatchesCode keeps BENCHMARK.json and the tables the program
// prints from in step.
func TestManifestMatchesCode(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, code %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: manifest %+v, code %s / %s", i, m.Workloads[i], w.name, w.why)
		}
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, code %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: manifest %+v, code %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", m.EndToEnd, endToEnd)
	same("per_layer", m.PerLayer, perLayer)
}

// TestSmoke runs both passes of every workload on small inputs with every
// oracle on.
func TestSmoke(t *testing.T) {
	t.Chdir(t.TempDir())
	opts := runOpts{seed: 3, seconds: 1, width: 2, smoke: true}
	for _, w := range workloads {
		for _, run := range []func(workload, runOpts) report{runUntraced, runTraced} {
			rep := run(w, opts)
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s (trace %v): attempted %d, failed %d: %s", w.name, rep.Trace, rep.Attempted, rep.Failed, rep.Error)
				continue
			}
			for _, d := range rep.defs() {
				if _, ok := rep.Metrics[d.Name]; !ok {
					t.Errorf("%s (trace %v): metric %s missing", w.name, rep.Trace, d.Name)
				}
			}
			if !rep.Trace {
				for _, d := range endToEnd {
					if rep.Metrics[d.Name] <= 0 {
						t.Errorf("%s: %s = %v, want > 0", w.name, d.Name, rep.Metrics[d.Name])
					}
				}
			}
		}
	}
	if _, err := os.Stat(tmpRoot); !os.IsNotExist(err) {
		t.Errorf("%s left behind (%v)", tmpRoot, err)
	}
}

// TestOraclesBite makes the SQL board and the native board disagree by
// one generation and expects the end-of-run oracle to say so.
func TestOraclesBite(t *testing.T) {
	w, _ := findWorkload("life-step")
	inst := w.make(config{seed: 3, width: 1, smoke: true})
	if err := inst.load(); err != nil {
		t.Fatal(err)
	}
	for _, s := range inst.next(0) {
		if _, err := inst.exec(0, s.sql); err != nil {
			t.Fatal(err)
		}
	}
	// No inst.native(): the model stays one generation behind.
	if err := inst.finish(); err == nil {
		t.Error("boards one generation apart passed the oracle")
	}
}

func TestStealAllowance(t *testing.T) {
	sec := time.Second
	slices := []slice{
		{from: 0, to: sec, busy: 100, steal: 0},
		{from: sec, to: 2 * sec, busy: 60, steal: 40},      // 40 % of the wanted CPU time withheld
		{from: 2 * sec, to: 3 * sec, busy: 150, steal: 50}, // two busy CPUs, a quarter withheld
		{from: 3 * sec, to: 4 * sec, busy: 100, steal: 0},
	}
	for i, want := range []time.Duration{sec, 600 * time.Millisecond, 750 * time.Millisecond, sec} {
		if got := slices[i].unstolen(); got != want {
			t.Errorf("slice %d: unstolen %v, want %v", i, got, want)
		}
	}

	// Half the window is free of steal: only those slices are picked.
	pick := calm(slices)
	if !pick[0] || pick[1] || pick[2] || !pick[3] {
		t.Errorf("calm picked %v, want the two steal-free slices", pick)
	}
	// An op counts only if it began and ended in picked slices.
	ops := tally{
		lat: []float64{100, 100, 600, 100},
		end: []float64{500, 1500, 3200, 3900}, // ms: calm, stolen, began in a stolen slice, calm
	}
	if got := calmLatencies(ops, slices, pick); len(got) != 2 || got[0] != 100 || got[1] != 100 {
		t.Errorf("calm latencies %v, want the first and the last op", got)
	}

	// No slice is free of steal: the least-stolen quarter stands in.
	for i := range slices {
		slices[i].steal = int64(10 * (i + 1))
	}
	pick = calm(slices)
	if !pick[0] || pick[1] || pick[2] || pick[3] {
		t.Errorf("calm picked %v, want only the least-stolen slice", pick)
	}
}
