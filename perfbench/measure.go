package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"time"

	"hurricane/internal/exp"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/trace"
)

// spec names a metric and its unit.
type spec struct{ name, unit string }

// endToEnd are the metrics a user of the simulator sees, from untraced
// repetitions. Every workload reports all of them.
var endToEnd = []spec{
	{"wall_s", "s"},
	{"events_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_mb", "MB"},
	{"sim_p50_us", "us"},
	{"sim_p99_us", "us"},
	{"sim_tail_us", "us"},
	{"sim_ops_per_ms", "1/ms"},
	{"served_frac", "frac"},
	{"paper_err_pct", "%"},
}

// perLayer are the metrics of single layers, from the traced run. A layer
// a workload bypasses reports 0.
var perLayer = []spec{
	{"sim.events", "count"},
	{"sim.elided_frac", "frac"},
	{"sim.host_ns_per_event", "ns"},
	{"sim.host_cpu_frac", "frac"},
	{"sim.coroswitch_cpu_frac", "frac"},
	{"mem.accesses.local", "count"},
	{"mem.accesses.station", "count"},
	{"mem.accesses.ring", "count"},
	{"mem.accesses.global", "count"},
	{"mem.stall_us.local", "us"},
	{"mem.stall_us.station", "us"},
	{"mem.stall_us.ring", "us"},
	{"mem.stall_us.global", "us"},
	{"mem.home_util", "frac"},
	{"mem.ring_util", "frac"},
	{"mem.queue_us_mean", "us"},
	{"mem.replica_updates", "count"},
	{"mem.host_cpu_frac", "frac"},
	{"mem.host_ns_per_access", "ns"},
	{"locks.acquires", "count"},
	{"locks.wait_us.p50", "us"},
	{"locks.wait_us.p99", "us"},
	{"locks.hold_us.mean", "us"},
	{"locks.handoff_local_frac", "frac"},
	{"locks.queue_depth_mean", "count"},
	{"locks.swaps_per_acquire", "count"},
	{"locks.host_cpu_frac", "frac"},
	{"locks.host_ns_per_acquire", "ns"},
	{"kernel.faults", "count"},
	{"kernel.fault_us.p50", "us"},
	{"kernel.fault_us.p99", "us"},
	{"kernel.fault_lock_us", "us"},
	{"kernel.retry_frac", "frac"},
	{"kernel.coherence_rpcs", "count"},
	{"kernel.host_cpu_frac", "frac"},
	{"cluster.rpc_calls", "count"},
	{"cluster.rpc_us.mean", "us"},
	{"cluster.ipi_us.mean", "us"},
	{"cluster.host_cpu_frac", "frac"},
	{"core.setup_s", "s"},
	{"workload.samples", "count"},
	{"workload.offered", "count"},
	{"workload.dropped", "count"},
	{"workload.abandoned", "count"},
	{"workload.read_p99_us", "us"},
	{"workload.write_p99_us", "us"},
	{"workload.arrivals_gen_s", "s"},
	{"workload.lateness_us", "us"},
	{"workload.host_cpu_frac", "frac"},
	{"trace.events", "count"},
	{"trace.sink_ns_per_event", "ns"},
	{"trace.overhead_frac", "frac"},
	{"trace.host_cpu_frac", "frac"},
	{"autonomic.windows", "count"},
	{"autonomic.host_us_per_window", "us"},
	{"autonomic.migrations", "count"},
	{"autonomic.replications", "count"},
	{"autonomic.collapse_per_replicate", "frac"},
	{"autonomic.host_cpu_frac", "frac"},
	{"tune.switches", "count"},
	{"tune.host_cpu_frac", "frac"},
	{"runtime.gc_cpu_frac", "frac"},
}

// setupProbes is how many set-up-only simulations a run makes; setup_s is
// their median set-up time, the set-up of one simulated system.
const setupProbes = 41

// measureEndToEnd runs untraced repetitions until the budget is spent
// (at least two, to check that they agree) and reports the end-to-end
// metrics: host readings as medians over repetitions, simulated ones from
// the first repetition, which every other must match exactly.
func measureEndToEnd(w *scenario, seed uint64, budget time.Duration, sz size) (outcome, []string) {
	var c checker
	paperErr := c.paperError(seed)
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		setups = append(setups, c.rep(w.run(seed, size{}, nil), w).setup.Seconds())
	}
	// Repetitions are reduced to their host readings as they end, so no
	// earlier one adds to a later one's heap_mb. The first one's simulated
	// results are the reference every later one must reproduce.
	var ref string
	var vals map[string]float64
	var line string
	var walls, rates, allocs, heaps []float64
	start := time.Now()
	var last time.Duration
	for len(walls) < 2 || time.Since(start)+last <= budget {
		t := time.Now()
		r := c.rep(w.repeat(seed, sz, nil), w)
		last = time.Since(t)
		if ref == "" {
			ref = r.fingerprint(w.tail)
			vals = map[string]float64{
				"sim_p50_us":     r.lat.Percentile(50),
				"sim_p99_us":     r.lat.Percentile(99),
				"sim_tail_us":    r.lat.Percentile(w.tail),
				"sim_ops_per_ms": float64(r.lat.N()) / r.simMS,
			}
			line = fmt.Sprintf("%d unit operations, %d latency samples (sim_tail_us is p%g), %d events each",
				r.attempted, r.lat.N(), w.tail, r.events+r.elided)
		}
		c.same(ref, r, w)
		walls = append(walls, r.wall.Seconds())
		rates = append(rates, float64(r.events+r.elided)/r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/1e6)
		heaps = append(heaps, float64(r.heap)/1e6)
	}
	vals["wall_s"] = median(walls)
	vals["events_per_s"] = median(rates)
	vals["setup_s"] = median(setups)
	vals["alloc_mb"] = median(allocs)
	vals["heap_mb"] = median(heaps)
	vals["served_frac"] = c.servedFrac()
	vals["paper_err_pct"] = paperErr
	lines := []string{fmt.Sprintf("%s seed %d: %d repetitions of %s", w.name, seed, len(walls), line)}
	return c.outcome(endToEnd, vals), append(lines, c.problems...)
}

// measureLayers alternates untraced and traced repetitions until the
// budget is spent (at least one of each). Traced repetitions run under a
// CPU profile, with the workload's trace.Aggregate behind a timing
// wrapper and the benchmark's own sink on the trace pipeline; their
// simulated results must equal the untraced ones exactly, because sinks
// charge no simulated time.
func measureLayers(w *scenario, seed uint64, budget time.Duration, sz size) (outcome, []string) {
	var c checker
	var setups []float64
	for i := 0; i < setupProbes; i++ {
		setups = append(setups, c.rep(w.run(seed, size{}, nil), w).setup.Seconds())
	}
	var plain, traced []*rep
	var tracings []*tracing
	cpu := make(map[string]int64)
	start := time.Now()
	var last time.Duration
	for len(traced) == 0 || time.Since(start)+last <= budget {
		t := time.Now()
		plain = append(plain, c.rep(w.repeat(seed, sz, nil), w))
		tr := &tracing{sink: &sink{}}
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			c.fail("cpu profile: %v", err)
		}
		traced = append(traced, c.rep(w.repeat(seed, sz, tr), w))
		pprof.StopCPUProfile()
		tracings = append(tracings, tr)
		byLayer, err := layerCPU(buf.Bytes())
		if err != nil {
			c.fail("%v", err)
		}
		for l, ns := range byLayer {
			cpu[l] += ns
		}
		last = time.Since(t)
	}
	for _, r := range append(plain[1:], traced...) {
		c.same(plain[0].fingerprint(w.tail), r, w)
	}
	vals := layerMetrics(seed, sz, plain, traced, tracings, cpu, setups)
	lines := []string{fmt.Sprintf("%s seed %d: %d untraced and %d traced repetitions, %d trace events each",
		w.name, seed, len(plain), len(traced), tracings[0].sink.events)}
	return c.outcome(perLayer, vals), append(lines, c.problems...)
}

// checker collects failed correctness checks and the operation counts the
// result line reports.
type checker struct {
	problems                []string
	attempted, shed, failed uint64
}

func (c *checker) fail(format string, args ...any) {
	c.problems = append(c.problems, "FAILED: "+fmt.Sprintf(format, args...))
}

// rep accounts for one repetition. A repetition that fails a check
// counts every operation it attempted as failed.
func (c *checker) rep(r *rep, w *scenario) *rep {
	c.attempted += r.attempted
	c.shed += r.shed
	if len(r.problems) > 0 {
		c.failed += r.attempted
	}
	for _, p := range r.problems {
		c.fail("%s: %s", w.name, p)
	}
	return r
}

// same checks that r reproduced the simulated results fingerprinted by
// ref exactly.
func (c *checker) same(ref string, r *rep, w *scenario) {
	if a, b := ref, r.fingerprint(w.tail); a != b {
		c.fail("%s: repetitions at one seed differ:\n%s\nvs\n%s", w.name, a, b)
		c.failed += r.attempted
	}
}

// servedFrac is the share of attempted operations that were neither shed
// by the server nor part of a repetition that failed a check.
func (c *checker) servedFrac() float64 {
	if c.attempted == 0 {
		return 0
	}
	return float64(c.attempted-min(c.attempted, c.shed+c.failed)) / float64(c.attempted)
}

// paperError runs the repository's calibration probe (one null RPC and
// one uncontended soft fault on HECTOR-16 with H2-MCS locks in clusters of
// 4) and reports the largest relative error, in percent, against the
// paper's 27 µs null RPC, 160 µs fault and 40 µs of locking in that fault.
// These constants were calibrated to the paper, so the figure guards
// against fidelity drift; it does not validate the model.
func (c *checker) paperError(seed uint64) float64 {
	paper := map[string]float64{"null_rpc": 27, "soft_fault": 160, "fault_lock_overhead": 40}
	worst := 0.0
	for _, m := range exp.Calibration(seed).Metrics {
		if want, ok := paper[m.Name]; ok {
			worst = math.Max(worst, 100*math.Abs(m.Value-want)/want)
			delete(paper, m.Name)
		}
	}
	if len(paper) > 0 {
		c.fail("calibration probe did not report %v", paper)
	}
	return worst
}

func (c *checker) outcome(specs []spec, vals map[string]float64) outcome {
	out := outcome{
		Correct:   len(c.problems) == 0,
		Attempted: c.attempted,
		Failed:    min(c.failed, c.attempted),
		Metrics:   make(map[string]metric, len(specs)),
	}
	for _, s := range specs {
		out.Metrics[s.name] = metric{Value: vals[s.name], Unit: s.unit}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tracing is the tracer set-up of one traced repetition.
type tracing struct {
	sink       *sink
	sinkNS     time.Duration // host time spent inside the timed Aggregate sinks
	sinkEvents uint64
}

// install returns the tracer one machine runs with: agg behind a timing
// wrapper, then the benchmark's sink.
func (t *tracing) install(agg *trace.Aggregate) sim.Tracer {
	return trace.NewPipeline(timedSink{agg, t}, t.sink)
}

// timedSink times a synchronous Sink.Event call on the host clock.
type timedSink struct {
	inner trace.Sink
	t     *tracing
}

func (s timedSink) Event(ev sim.TraceEvent) {
	t0 := time.Now()
	s.inner.Event(ev)
	s.t.sinkNS += time.Since(t0)
	s.t.sinkEvents++
}

// windowOpens is the instant workload.LockStressRun emits when its
// measured rounds begin.
const windowOpens = "measurement window opens"

// sink is the benchmark's trace sink: it counts memory accesses by
// distance class, folds the typed spans into per-layer distributions and
// checks lock holds for overlap.
type sink struct {
	// gated sinks count nothing but events and hold overlaps until the
	// measurement window opens.
	gated, open bool

	events uint64
	// accessesAll and waitsAll count every access and lock acquisition,
	// warm-up included: the work the whole profiled run did.
	accessesAll, waitsAll uint64

	accesses [sim.NumDistClasses]uint64
	stall    [sim.NumDistClasses]sim.Duration
	atomics  uint64
	wait     stats.Dist // µs
	hold     spanSum
	faults   stats.Dist // µs
	sections spanSum    // region, FCB and page sections under the mm lock
	rpc, ipi spanSum
	holds    holdChecker
}

type spanSum struct {
	n      uint64
	cycles sim.Duration
}

func (s *spanSum) add(d sim.Duration) { s.n++; s.cycles += d }

func (s spanSum) meanUS() float64 { return meanUS(s.cycles, s.n) }

// meanUS is the mean, in µs, of n durations summing to total cycles.
func meanUS(total sim.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return total.Microseconds() / float64(n)
}

// restart readies the sink for the next simulation of a repetition, whose
// clock starts again from zero (and, for a gated sink, in warm-up).
func (s *sink) restart() {
	s.open = false
	s.holds.lastEnd = nil
}

func (s *sink) Event(ev sim.TraceEvent) {
	s.events++
	switch {
	case ev.Kind == sim.EvInstant && ev.Name == windowOpens:
		s.open = true
	case ev.Kind == sim.EvAccess:
		s.accessesAll++
	case ev.Kind == sim.EvSpan && ev.Span == sim.SpanLockWait:
		s.waitsAll++
	case ev.Kind == sim.EvSpan && ev.Span == sim.SpanLockHold:
		s.holds.observe(ev)
	}
	if s.gated && !s.open {
		return
	}
	d := ev.End - ev.Start
	switch ev.Kind {
	case sim.EvAccess:
		s.accesses[ev.Dist]++
		s.stall[ev.Dist] += d
		if ev.Name == "swap" || ev.Name == "cas" {
			s.atomics++
		}
	case sim.EvSpan:
		switch ev.Span {
		case sim.SpanLockWait:
			s.wait.Add(d.Microseconds())
		case sim.SpanLockHold:
			s.hold.add(d)
		case sim.SpanFault:
			s.faults.Add(d.Microseconds())
		case sim.SpanRegionSection, sim.SpanFCBSection, sim.SpanPageSection:
			s.sections.add(d)
		case sim.SpanRPC:
			s.rpc.add(d)
		case sim.SpanIPI:
			s.ipi.add(d)
		}
	}
}
