package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// series is every run's value of one metric on one workload in one file.
type series map[string]map[string][]float64 // workload -> metric -> values

func readSeries(path string) (series, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := series{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for n, v := range r.Metrics {
			out[r.Workload][n] = append(out[r.Workload][n], v)
		}
	}
	return out, sc.Err()
}

// verdict judges the change's median b against the parent's a. A metric
// whose run-to-run spread on the parent is wider than its bound cannot
// resolve a regression of that size either way.
func verdict(d metricDef, a, b, parentSpread float64, spreadKnown bool) string {
	if d.Bound == 0 {
		return "-"
	}
	if spreadKnown && parentSpread > d.Bound {
		return "unresolved"
	}
	worse := b/a - 1
	if d.Better == "higher" {
		worse = 1 - b/a
	}
	if worse > d.Bound {
		return "regressed"
	}
	return "pass"
}

// compareFiles prints one row per metric and workload present in both
// files: both medians, the ratio with its base, the parent's spread, the
// bound and the verdict. Each file holds any number of runs (-out appends).
func compareFiles(w io.Writer, parent, change string) error {
	pa, err := readSeries(parent)
	if err != nil {
		return err
	}
	ch, err := readSeries(change)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-20s %-26s %14s %14s %18s %8s %6s  %s\n",
		"workload", "metric", "parent", "change", "change/parent", "spread", "bound", "verdict")
	for _, wl := range workloads {
		for _, defs := range [][]metricDef{endToEnd, perLayer} {
			for _, d := range defs {
				as, bs := pa[wl.name][d.Name], ch[wl.name][d.Name]
				if len(as) == 0 || len(bs) == 0 {
					continue
				}
				a, b := median(as), median(bs)
				// Quartiles of fewer than four runs say nothing.
				known := len(as) >= 4
				sp, spText := spread(as), "n/a"
				if known {
					spText = fmt.Sprintf("%.1f%%", 100*sp)
				}
				bound := "-"
				if d.Bound > 0 {
					bound = fmt.Sprintf("%.0f%%", 100*d.Bound)
				}
				fmt.Fprintf(w, "%-20s %-26s %14.4f %14.4f %9.3fx of %-5.4g %8s %6s  %s\n",
					wl.name, d.Name, a, b, ratio(b, a), a, spText, bound, verdict(d, a, b, sp, known))
			}
		}
	}
	return nil
}
