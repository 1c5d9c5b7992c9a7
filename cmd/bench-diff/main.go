// bench-diff compares two hurricane-bench summaries (BENCH_sim.json) and
// fails on performance regressions, so `make ci` catches a lock or
// simulator change that slows a figure down before it merges.
//
//	bench-diff -baseline BENCH_sim.baseline.json -current BENCH_sim.json
//
// Metrics with unit "us" are latencies (lower is better): the comparator
// fails if any grows more than 5% over the baseline. Other units (ratios,
// fractions, counts) are informational — printed when they drift, never
// fatal. A metric present only in the baseline is a non-fatal MISSING
// drift, but a metric present only in the current run is fatal: it means
// the checked-in baseline was not regenerated for a new experiment, so the
// new numbers would silently escape regression tracking forever after.
// Every metric is computed in simulated time, which is deterministic for a
// fixed seed, so an unchanged tree diffs exactly; any delta at all is a
// real behavior change.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"hurricane/internal/exp"
)

func load(path string) (*exp.Report, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r exp.Report
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// flatten maps "experiment.metric" to the metric, so renamed experiments
// surface as missing metrics instead of misaligned comparisons.
func flatten(r *exp.Report) map[string]exp.Metric {
	m := make(map[string]exp.Metric)
	for _, e := range r.Experiments {
		for _, mt := range e.Metrics {
			m[e.Name+"."+mt.Name] = mt
		}
	}
	return m
}

// tolerance is the fractional growth a us-unit metric may show before it
// counts as a regression.
const tolerance = 0.05

func main() {
	basePath := flag.String("baseline", "BENCH_sim.baseline.json", "checked-in baseline summary")
	curPath := flag.String("current", "BENCH_sim.json", "freshly generated summary")
	flag.Parse()

	base, err := load(*basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
		os.Exit(2)
	}
	cur, err := load(*curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
		os.Exit(2)
	}
	if base.Quick != cur.Quick || base.Seed != cur.Seed {
		fmt.Fprintf(os.Stderr, "bench-diff: summaries not comparable: baseline seed=%d quick=%v, current seed=%d quick=%v\n",
			base.Seed, base.Quick, cur.Seed, cur.Quick)
		os.Exit(2)
	}

	bm, cm := flatten(base), flatten(cur)
	regressions, drifts, improved := 0, 0, 0
	for name, b := range bm {
		c, ok := cm[name]
		if !ok {
			fmt.Printf("MISSING  %-50s baseline %.3f%s, absent in current\n", name, b.Value, b.Unit)
			drifts++
			continue
		}
		if b.Value == c.Value {
			continue
		}
		switch {
		case b.Unit == "us" && b.Value > 0 && c.Value > b.Value*(1+tolerance):
			fmt.Printf("REGRESS  %-50s %.2fus -> %.2fus (%+.1f%%)\n",
				name, b.Value, c.Value, 100*(c.Value/b.Value-1))
			regressions++
		case b.Unit == "us" && c.Value < b.Value:
			improved++
			fmt.Printf("improve  %-50s %.2fus -> %.2fus (%+.1f%%)\n",
				name, b.Value, c.Value, 100*(c.Value/b.Value-1))
		default:
			// Inside tolerance, or a non-latency unit: informational.
			drifts++
			delta := ""
			if b.Value != 0 && !math.IsInf(c.Value/b.Value, 0) {
				delta = fmt.Sprintf(" (%+.1f%%)", 100*(c.Value/b.Value-1))
			}
			fmt.Printf("drift    %-50s %.3f%s -> %.3f%s%s\n",
				name, b.Value, b.Unit, c.Value, c.Unit, delta)
		}
	}
	var newKeys []string
	for name := range cm {
		if _, ok := bm[name]; !ok {
			newKeys = append(newKeys, name)
		}
	}
	sort.Strings(newKeys)
	for _, name := range newKeys {
		c := cm[name]
		fmt.Printf("NEW      %-50s %.3f%s (not in baseline)\n", name, c.Value, c.Unit)
	}

	fmt.Printf("bench-diff: %d metrics compared, %d regressions, %d improvements, %d drifts, %d new\n",
		len(bm), regressions, improved, drifts, len(newKeys))
	if regressions > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: FAIL: %d metric(s) regressed more than %.0f%%\n", regressions, tolerance*100)
		os.Exit(1)
	}
	if len(newKeys) > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: FAIL: %d metric(s) missing from the baseline: %s\n", len(newKeys), strings.Join(newKeys, ", "))
		fmt.Fprintf(os.Stderr, "bench-diff: regenerate it (make bench-baseline)\n")
		os.Exit(1)
	}
}
