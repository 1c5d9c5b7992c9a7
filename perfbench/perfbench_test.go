package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/workload"
)

// testSize keeps every workload to a second or so.
var testSize = size{convoyRounds: 1, faultRounds: 5, serverHorizonMS: 20}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFile checks that BENCHMARK.json declares exactly the
// workloads and metrics this program reports, with valid names and units.
func TestBenchmarkFile(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct{ Name, Why string } `json:"workloads"`
		EndToEnd  []m                          `json:"end_to_end"`
		PerLayer  []m                          `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range b.Workloads {
		ws = append(ws, w.Name)
	}
	sort.Strings(ws)
	if got, want := ws, workloadNames(); !equal(got, want) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", got, want)
	}
	seen := map[string]bool{}
	check := func(kind string, declared []m, specs []spec, bounded bool) {
		if len(declared) != len(specs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, program reports %d", kind, len(declared), len(specs))
			return
		}
		for i, d := range declared {
			if d.Name != specs[i].name || d.Unit != specs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), program reports %s (%s)",
					kind, i, d.Name, d.Unit, specs[i].name, specs[i].unit)
			}
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
				t.Errorf("%s: invalid or repeated name or unit: %q %q", kind, d.Name, d.Unit)
			}
			seen[d.Name] = true
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: %s has better=%q", kind, d.Name, d.Better)
			}
			if bounded != (d.Bound != nil) || (bounded && (*d.Bound <= 0 || *d.Bound > 0.25)) {
				t.Errorf("%s: %s has an invalid bound", kind, d.Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsReportEveryMetric runs every workload, untraced and
// traced, and checks it passes its checks and reports every metric, each
// end-to-end one non-zero.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		t.Run(name, func(t *testing.T) {
			out, lines := measureEndToEnd(w, 1, 0, testSize)
			if !out.Correct || out.Failed != 0 || out.Attempted == 0 {
				t.Errorf("end-to-end run: correct=%v attempted=%d failed=%d\n%v", out.Correct, out.Attempted, out.Failed, lines)
			}
			for _, s := range endToEnd {
				if m, ok := out.Metrics[s.name]; !ok || m.Value == 0 || m.Unit != s.unit {
					t.Errorf("end-to-end metric %s: %+v (present %v)", s.name, m, ok)
				}
			}
			out, lines = measureLayers(w, 1, 0, testSize)
			if !out.Correct || out.Failed != 0 {
				t.Errorf("traced run: correct=%v failed=%d\n%v", out.Correct, out.Failed, lines)
			}
			for _, s := range perLayer {
				if _, ok := out.Metrics[s.name]; !ok {
					t.Errorf("per-layer metric %s missing", s.name)
				}
			}
			if len(out.Metrics) != len(perLayer) {
				t.Errorf("traced run reports %d metrics, want %d", len(out.Metrics), len(perLayer))
			}
		})
	}
}

// TestSeedAndDeterminism checks that one seed reproduces every simulated
// result, traced or not, and that another seed changes the inputs.
func TestSeedAndDeterminism(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		a := w.repeat(1, testSize, nil).fingerprint(w.tail)
		if b := w.repeat(1, testSize, &tracing{sink: &sink{}}).fingerprint(w.tail); a != b {
			t.Errorf("%s: traced run differs from untraced:\n%s\nvs\n%s", name, a, b)
		}
		if c := w.repeat(2, testSize, nil).fingerprint(w.tail); a == c {
			t.Errorf("%s: seeds 1 and 2 gave identical results", name)
		}
	}
}

// TestCommandLine runs the command as the benchmark's caller does, at two
// seeds, and checks the result line: it is the last line, it is correct,
// it reports exactly the end-to-end metrics, and the seed reaches the
// workload's inputs.
func TestCommandLine(t *testing.T) {
	result := func(seed string) outcome {
		var stdout, stderr bytes.Buffer
		args := []string{"--workload", "tenant_server", "--seed", seed, "--seconds", "1", "--trace", "0"}
		if code := run(args, &stdout, &stderr, testSize); code != 0 {
			t.Fatalf("seed %s: exit %d: %s", seed, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var out outcome
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
			t.Fatalf("seed %s: last line is not the result: %v", seed, err)
		}
		if !out.Correct || out.Attempted == 0 || len(out.Metrics) != len(endToEnd) {
			t.Fatalf("seed %s: %+v", seed, out)
		}
		return out
	}
	a, b := result("1"), result("2")
	if a.Metrics["sim_p50_us"] == b.Metrics["sim_p50_us"] && a.Metrics["sim_ops_per_ms"] == b.Metrics["sim_ops_per_ms"] {
		t.Errorf("seeds 1 and 2 gave the same simulated results: %+v", a.Metrics)
	}
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fault_path", "--trace", "2"},
		{"--workload", "fault_path", "--seconds", "0"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard, testSize); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// noLock never blocks: every processor "acquires" it at once.
type noLock struct{}

func (noLock) Acquire(*sim.Proc) {}
func (noLock) Release(*sim.Proc) {}
func (noLock) Name() string      { return "none" }
func (noLock) Home() int         { return 0 }

func TestMutualExclusionCheckTrips(t *testing.T) {
	for _, tc := range []struct {
		name   string
		lock   func(m *sim.Machine, home int) locks.Lock
		broken bool
	}{
		{"spin", func(m *sim.Machine, home int) locks.Lock { return locks.New(m, locks.KindSpin, home) }, false},
		{"no-op", func(*sim.Machine, int) locks.Lock { return noLock{} }, true},
	} {
		ex := &exclusive{holder: -1}
		workload.LockStressRun(workload.StressConfig{
			Machine: machine.Hector16(1),
			MakeLock: func(m *sim.Machine, home int) locks.Lock {
				ex.Lock = tc.lock(m, home)
				return ex
			},
			Procs: 4, Rounds: 3, Hold: sim.Micros(25),
		})
		if got := ex.violations > 0; got != tc.broken {
			t.Errorf("%s lock: %d violations", tc.name, ex.violations)
		}
	}
}

func TestConservationCheckTrips(t *testing.T) {
	res := workload.ServerRun(serverConfig(1, testSize))
	if err := conservation(res); err != nil {
		t.Fatalf("untampered result: %v", err)
	}
	for _, tamper := range []func(r *workload.ServerResult){
		func(r *workload.ServerResult) { r.Completed-- },
		func(r *workload.ServerResult) { r.Dropped++ },
		func(r *workload.ServerResult) { r.Abandoned++ },
	} {
		r := *res
		tamper(&r)
		if conservation(&r) == nil {
			t.Errorf("tampered result %+v passed", r)
		}
	}
}

func TestHoldOverlapCheckTrips(t *testing.T) {
	hold := func(name string, start, end sim.Time) sim.TraceEvent {
		return sim.TraceEvent{Kind: sim.EvSpan, Span: sim.SpanLockHold, Name: name, Start: start, End: end}
	}
	var h holdChecker
	for _, ev := range []sim.TraceEvent{hold("a", 0, 10), hold("b", 5, 12), hold("a", 10, 20)} {
		h.observe(ev)
	}
	if h.violations != 0 {
		t.Fatalf("back-to-back holds flagged: %s", h.first)
	}
	h.observe(hold("b", 11, 15))
	if h.violations != 1 {
		t.Fatalf("overlapping hold not flagged")
	}
}

func TestSamplesAreSortedOrderStatistics(t *testing.T) {
	var d stats.Dist
	in := []float64{5, 1, 4, 1, 3, 9, 2, 6}
	for _, x := range in {
		d.Add(x)
	}
	got := samples(&d)
	want := append([]float64(nil), in...)
	sort.Float64s(want)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("samples = %v, want %v", got, want)
		}
	}
}

func TestLayerOfFile(t *testing.T) {
	for file, want := range map[string]string{
		"/src/internal/sim/engine.go":             "sim",
		"/src/internal/sim/proc.go":               "sim",
		"/src/internal/sim/memory.go":             "mem",
		"/src/internal/sim/resource.go":           "mem",
		"/src/internal/sim/tracer.go":             "trace",
		"hurricane/internal/locks/spin.go":        "locks",
		"/src/internal/hybrid/hybrid.go":          "kernel",
		"/src/internal/trace/placement/daemon.go": "autonomic",
		"/src/internal/trace/aggregate.go":        "trace",
		"/src/internal/stats/stats.go":            "other",
		"/src/perfbench/measure.go":               "other",
	} {
		if got := layerOfFile(file); got != want {
			t.Errorf("layerOfFile(%q) = %q, want %q", file, got, want)
		}
	}
}
