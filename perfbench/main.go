// Command perfbench is the repository's benchmark. It runs one of three
// simulated workloads for a fixed host-time budget, checks the
// simulation's outputs, and prints its metrics by name and unit. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (host and simulated
// clock), measured with no tracer beyond what the workload itself needs.
// With -trace 1 they are the per-layer ones, from a traced, CPU-profiled
// run compared against an untraced one. See README.md for the workloads,
// the metrics and how to read them.
//
// Usage (from the repository root, via the launcher that builds it):
//
//	bash perfbench/run.sh --workload spin_convoy --seed 1 --seconds 30 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, fullSize))
}

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the benchmark's result line.
type outcome struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run is the command: it parses args, measures the named workload at size
// sz and prints the result. It returns the exit code.
func run(args []string, stdout, stderr io.Writer, sz size) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: spin_convoy, fault_path or tenant_server")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "host seconds to measure for")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want one of %v)\n", *name, workloadNames())
		return 2
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	budget := time.Duration(*seconds) * time.Second

	var out outcome
	var lines []string
	// The label attributes every CPU-profile sample of this goroutine, and
	// of the simulated processors' coroutines it starts, to the workload.
	pprof.Do(context.Background(), pprof.Labels("workload", w.name), func(context.Context) {
		if *traced == 1 {
			out, lines = measureLayers(w, *seed, budget, sz)
		} else {
			out, lines = measureEndToEnd(w, *seed, budget, sz)
		}
	})

	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	names := make([]string, 0, len(out.Metrics))
	for n := range out.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %16.6g %s\n", n, out.Metrics[n].Value, out.Metrics[n].Unit)
	}
	js, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}
