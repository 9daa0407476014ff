package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// loadRecords reads every result record in dir, keyed by workload, then
// metric name, to the values across runs. Records of traced runs
// contribute their per-layer metrics, untraced ones their end-to-end
// metrics.
func loadRecords(dir string) (map[string]map[string][]float64, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[string][]float64{}
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		ms := rec.Metrics
		if rec.Header.Trace {
			ms = rec.Layers
		}
		w := rec.Header.Workload
		if out[w] == nil {
			out[w] = map[string][]float64{}
		}
		for name, m := range ms {
			out[w][name] = append(out[w][name], m.Value)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result records in %s", dir)
	}
	return out, nil
}

// spread is the interquartile range over the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// compareMain prints, per workload and metric, the two sets' medians and
// quartiles and the ratio new/base. An end-to-end metric is "unresolved"
// when either set's spread is wider than its bound, "worse" when the
// median moved the wrong way by more than the bound, and "ok" otherwise.
func compareMain(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base-records-dir> <new-records-dir>")
		return 2
	}
	base, err := loadRecords(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	next, err := loadRecords(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	bounds := map[string]bound{}
	if b, err := os.ReadFile("BENCHMARK.json"); err == nil {
		var spec struct {
			EndToEnd []bound `json:"end_to_end"`
		}
		if err := json.Unmarshal(b, &spec); err != nil {
			fmt.Fprintf(os.Stderr, "BENCHMARK.json: %v\n", err)
			return 1
		}
		for _, e := range spec.EndToEnd {
			bounds[e.Name] = e
		}
	}
	worse := 0
	var workloads []string
	for wl := range base {
		workloads = append(workloads, wl)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-9s %-30s %5s %12s %12s %12s %12s %12s %12s %7s  %s\n",
		"workload", "metric", "n", "base_q1", "base_p50", "base_q3", "new_q1", "new_p50", "new_q3", "ratio", "verdict")
	for _, wl := range workloads {
		var names []string
		for n := range base[wl] {
			if _, ok := next[wl][n]; ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			a, b := base[wl][n], next[wl][n]
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			verdict := "-"
			if bd, ok := bounds[n]; ok {
				change := ratio(b2, a2) - 1
				if bd.Better == "higher" {
					change = -change
				}
				switch {
				case spread(a) > bd.Bound || spread(b) > bd.Bound:
					verdict = "unresolved"
				case change > bd.Bound:
					verdict = "worse"
					worse++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(w, "%-9s %-30s %5s %12.4g %12.4g %12.4g %12.4g %12.4g %12.4g %7.3f  %s\n",
				wl, n, fmt.Sprintf("%d/%d", len(a), len(b)), a1, a2, a3, b1, b2, b3, ratio(b2, a2), verdict)
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d metric(s) worse than their bound: %s\n", worse, strings.TrimSpace(args[1]))
		return 1
	}
	return 0
}
