package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"
)

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last instance is the one measured.
const setupRepeats = 3

// maxFailures stops a client whose ops keep failing: one broken statement
// (a CREATE after a failed DROP, say) fails every op after it.
const maxFailures = 50

// tally is what a block of closed-loop ops produced.
type tally struct {
	attempted, failed int
	firstErr          error
	lat               []float64            // ms, one per successful op
	end               []float64            // ms since the block began, when each of those ops answered
	class             map[string][]float64 // ms, one per statement
	native            []float64            // ms, one per op of the native baseline
	nativeTotal       time.Duration
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.lat = append(t.lat, o.lat...)
	t.end = append(t.end, o.end...)
	t.native = append(t.native, o.native...)
	t.nativeTotal += o.nativeTotal
	for c, xs := range o.class {
		if t.class == nil {
			t.class = map[string][]float64{}
		}
		t.class[c] = append(t.class[c], xs...)
	}
}

// addCounts adds another block's attempts and failures, not its samples.
func (t *tally) addCounts(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// addFailure counts an oracle that failed outside any op.
func (t *tally) addFailure(err error) {
	t.failed++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

// driver runs an instance's clients closed-loop: each client sends its
// next op only after the previous one has answered and been checked.
type driver struct{ inst instance }

// op runs one op of a client untraced and adds it to t. began is when the
// block of ops started.
func (d *driver) op(client int, t *tally, began time.Time) {
	_, twin := d.inst.engines()
	stmts := d.inst.next(client)
	t.attempted++
	var total time.Duration
	var opErr error
	for _, s := range stmts {
		start := time.Now()
		res, err := d.inst.exec(client, s.sql)
		took := time.Since(start)
		total += took
		t.class[s.class] = append(t.class[s.class], ms(took))
		if err == nil && s.check != nil {
			err = s.check(res)
		}
		if err == nil && twin != nil {
			// Keep the traced pass's in-memory twin in step; not timed.
			_, err = twin.query(s.sql)
		}
		if err != nil {
			opErr = fmt.Errorf("%s: %w", clip(s.sql), err)
			break
		}
	}
	if opErr != nil {
		t.addFailure(opErr)
	} else {
		t.lat = append(t.lat, ms(total))
		t.end = append(t.end, ms(time.Since(began)))
	}
	// The native equivalent runs after every op, failed or not, because
	// it also advances the oracle's model. It is timed on its own and
	// taken out of the window.
	start := time.Now()
	if d.inst.native() {
		took := time.Since(start)
		t.native = append(t.native, ms(took))
		t.nativeTotal += took
	}
}

// run drives every client until stop(opsDone) says so and returns the
// merged tally.
func (d *driver) run(stop func(done int) bool) tally {
	start := time.Now()
	parts := make([]tally, d.inst.clients())
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := tally{class: map[string][]float64{}}
			for done := 0; !stop(done) && t.failed < maxFailures; done++ {
				d.op(c, &t, start)
			}
			parts[c] = t
		}(c)
	}
	wg.Wait()
	var all tally
	for _, p := range parts {
		all.merge(p)
	}
	return all
}

func count(n int) func(int) bool { return func(done int) bool { return done >= n } }

func until(deadline time.Time) func(int) bool {
	return func(int) bool { return !time.Now().Before(deadline) }
}

// runOpts is one invocation's settings.
type runOpts struct {
	seed    int64
	seconds float64
	width   int
	smoke   bool
	spans   string // file the traced pass writes its spans to
}

// report is one workload's pass: what the contract's last line carries,
// plus diagnostics that are printed and written to -out but not gated.
type report struct {
	Workload    string             `json:"workload"`
	Trace       bool               `json:"trace"`
	Seed        int64              `json:"seed"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	Correct     bool               `json:"correct"`
	Error       string             `json:"error,omitempty"`
	Metrics     map[string]float64 `json:"metrics"`
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Env         map[string]string  `json:"env"`
}

// tmpRoot holds every durable database of a run; it lives in the working
// directory because the benchmark may write nowhere else.
const tmpRoot = ".bench_tmp"

// setUp generates, loads and warms one instance, and reports how long
// that took. The warm-up is a fixed number of ops, so set-up time is
// measured work: it fills the parse cache and builds lazy zonemaps.
func setUp(w workload, cfg config, warm int) (*driver, tally, time.Duration, error) {
	start := time.Now()
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, tally{}, 0, err
	}
	d := &driver{w.make(cfg)}
	if err := d.inst.load(); err != nil {
		return nil, tally{}, 0, fmt.Errorf("load: %w", err)
	}
	t := d.run(count(warm))
	return d, t, time.Since(start), nil
}

// tearDown runs the end-of-run oracles and removes the instance's files.
func tearDown(inst instance, cfg config) error {
	err := inst.finish()
	if rerr := os.RemoveAll(cfg.dir); err == nil {
		err = rerr
	}
	os.Remove(tmpRoot) // only succeeds once the last instance is gone
	return err
}

// config derives an instance's configuration. The traced pass (twin)
// drives a single client, so that its counters repeat exactly.
func (o runOpts) config(w workload, k int, twin bool) config {
	width := o.width
	if twin {
		width = 1
	}
	return config{seed: o.seed, width: width, smoke: o.smoke, twin: twin,
		dir: filepath.Join(tmpRoot, fmt.Sprintf("%s-%d-%d", w.name, os.Getpid(), k))}
}

func (o runOpts) warmOps(w workload) int {
	if o.smoke {
		return 2
	}
	return w.warmOps
}

// runUntraced measures the end-to-end metrics: tracing off, no twin, no
// replay; just the clients, the clock and the oracles.
func runUntraced(w workload, o runOpts) report {
	rep := newReport(w, o, false)
	var setups []float64
	var d *driver
	var cfg config
	var total tally
	for k := 0; k < setupRepeats; k++ {
		if d != nil {
			if err := tearDown(d.inst, cfg); err != nil {
				return rep.fail(total, fmt.Errorf("set-up %d oracles: %w", k, err))
			}
		}
		cfg = o.config(w, k, false)
		next, warm, took, err := setUp(w, cfg, o.warmOps(w))
		if err != nil {
			return rep.fail(total, err)
		}
		d = next
		total.addCounts(warm)
		setups = append(setups, took.Seconds())
	}

	stop := until(time.Now().Add(time.Duration(o.seconds * float64(time.Second))))
	if o.smoke {
		stop = count(3)
	}
	runtime.GC() // start every window from a collected heap
	sm := startSampler(time.Now())
	timed := d.run(stop)
	slices := sm.finish()
	total.addCounts(timed)
	if err := tearDown(d.inst, cfg); err != nil {
		total.addFailure(err)
	}
	if len(timed.lat) == 0 {
		return rep.fail(total, fmt.Errorf("no op succeeded"))
	}
	// Latency comes from the slices of the window in which the
	// hypervisor stole no CPU time, and throughput counts every slice as
	// long as it would have been without steal (steal.go). What was
	// measured before that allowance is kept as a diagnostic.
	lat := calmLatencies(timed, slices, calm(slices))
	if len(lat) == 0 {
		lat = timed.lat
	}
	var window, unstolen time.Duration
	var stolen int64
	for _, s := range slices {
		window, unstolen, stolen = window+s.len(), unstolen+s.unstolen(), stolen+s.steal
	}
	// The native baseline runs inside the window but is not part of it;
	// it is taken out in proportion, as if spread evenly over the slices.
	own := 1 - timed.nativeTotal.Seconds()/window.Seconds()
	rep.Metrics["op_p50_ms"] = median(lat)
	rep.Metrics["ops_per_s"] = float64(len(timed.lat)) / (unstolen.Seconds() * own)
	rep.Metrics["setup_s"] = median(setups)
	dg := rep.Diagnostics
	dg["samples"] = float64(len(lat))
	if pct, v, ok := tail(lat); ok {
		dg["op_tail_pct"], dg["op_tail_ms"] = pct, v
	}
	dg["window_s"] = window.Seconds()
	dg["unstolen_share"] = unstolen.Seconds() / window.Seconds()
	dg["steal_ticks"] = float64(stolen)
	dg["all.samples"] = float64(len(timed.lat))
	dg["all.op_p50_ms"] = median(timed.lat)
	dg["all.ops_per_s"] = float64(len(timed.lat)) / (window.Seconds() * own)
	dg["clients"] = float64(d.inst.clients())
	if len(timed.native) > 0 {
		dg["native_p50_ms"] = median(timed.native)
		dg["native_ratio"] = median(timed.lat) / median(timed.native)
	}
	for c, xs := range timed.class {
		dg["class."+c+".p50_ms"] = median(xs)
	}
	return rep.done(total)
}

func newReport(w workload, o runOpts, trace bool) report {
	return report{Workload: w.name, Trace: trace, Seed: o.seed,
		Metrics: map[string]float64{}, Diagnostics: map[string]float64{}, Env: environment(o)}
}

func (r report) done(t tally) report {
	r.Attempted, r.Failed = t.attempted, t.failed
	r.Correct = t.failed == 0 && t.attempted > 0
	if t.firstErr != nil {
		r.Error = t.firstErr.Error()
	}
	r.Diagnostics["fail_ratio"] = float64(t.failed) / float64(max(t.attempted, 1))
	return r
}

// fail ends a pass that could not measure at all.
func (r report) fail(t tally, err error) report {
	t.attempted, t.failed = max(t.attempted, 1), max(t.failed, 1)
	if t.firstErr == nil {
		t.firstErr = err
	}
	r.Metrics = nil
	return r.done(t)
}
