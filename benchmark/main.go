// Command benchmark is the repository's one benchmark: six paper-shaped
// workloads run closed-loop against the SciQL engine, with end-to-end
// metrics from an untraced pass and per-layer metrics from a separate
// traced pass. See README.md here and BENCHMARK.json at the root.
//
//	go run ./benchmark -seed 1                          # every workload, both passes
//	go run ./benchmark --workload life-step --seed 1 --seconds 10 --trace 0
//	go run ./benchmark -compare parent.jsonl change.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
)

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "seed every generated input derives from")
		seconds = flag.Float64("seconds", 10, "length of the end-to-end pass's timed window (the traced pass runs fixed op counts)")
		trace   = flag.Int("trace", -1, "0: end-to-end pass, 1: per-layer traced pass, -1: both")
		out     = flag.String("out", "", "append each pass's full report to this file, one JSON object per line")
		spans   = flag.String("spans", "", "write the traced pass's spans to this file, one JSON object per line")
		smoke   = flag.Bool("smoke", false, "small inputs and a handful of ops, all oracles on")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare wants two -out files: the parent's and the change's")
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			fatal(err)
		}
		return
	}

	// One process generates all load, on at most four threads and never
	// more clients than threads.
	width := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(width)
	opts := runOpts{seed: *seed, seconds: *seconds, width: width, smoke: *smoke, spans: *spans}

	chosen := workloads
	if *name != "all" {
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Sprintf("unknown workload %q", *name))
		}
		chosen = []workload{w}
	}
	printEnv(environment(opts))

	var reports []report
	for _, w := range chosen {
		if *trace != 1 {
			reports = append(reports, runUntraced(w, opts))
		}
		if *trace != 0 {
			reports = append(reports, runTraced(w, opts))
		}
	}
	attempted, failed := 0, 0
	for _, r := range reports {
		r.print(os.Stdout)
		attempted, failed = attempted+r.Attempted, failed+r.Failed
		if *out != "" {
			if err := appendReport(*out, r); err != nil {
				fatal(err)
			}
		}
	}
	// The last line carries metrics only for a single pass, which is what
	// the acceptance driver runs; several passes are read from the text
	// above or from -out.
	var metrics map[string]float64
	if len(reports) == 1 {
		metrics = reports[0].Metrics
	}
	fmt.Println(resultLine(failed == 0, attempted, failed, metrics))
	if failed > 0 {
		os.Exit(1)
	}
}

func fatal(v any) {
	fmt.Fprintln(os.Stderr, "benchmark:", v)
	os.Exit(2)
}

func printEnv(env map[string]string) {
	keys := make([]string, 0, len(env))
	for k := range env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("environment")
	for _, k := range keys {
		fmt.Printf("   %-13s %s\n", k, env[k])
	}
}

func appendReport(path string, r report) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(r); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
