package main

import (
	"time"

	"hurricane/internal/sim"
)

// layerMetrics assembles the per-layer metrics. Counts and simulated
// figures come from the last traced repetition (every repetition matches
// it exactly); host figures are medians over repetitions, or sums over the
// CPU profiles of all traced repetitions.
func layerMetrics(seed uint64, sz size, plain, traced []*rep, trs []*tracing, cpu map[string]int64, setups []float64) map[string]float64 {
	r, s := traced[len(traced)-1], trs[len(trs)-1].sink
	c := &r.c
	vals := make(map[string]float64)

	var plainWall, tracedWall, sinkNS, windowUS []float64
	for _, p := range plain {
		plainWall = append(plainWall, p.wall.Seconds())
	}
	for i, t := range traced {
		tracedWall = append(tracedWall, t.wall.Seconds())
		if tr := trs[i]; tr.sinkEvents > 0 {
			sinkNS = append(sinkNS, float64(tr.sinkNS.Nanoseconds())/float64(tr.sinkEvents))
		}
		if t.c.windows > 0 {
			windowUS = append(windowUS, float64(t.c.windowHost.Microseconds())/float64(t.c.windows))
		}
	}

	// Host CPU by layer, from the profiles of the traced repetitions.
	var total int64
	for _, ns := range cpu {
		total += ns
	}
	frac := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return float64(cpu[layer]) / float64(total)
	}
	// perUnit is a layer's profiled CPU per unit of its work, summed over
	// the traced repetitions.
	perUnit := func(layer string, units uint64) float64 {
		if units == 0 {
			return 0
		}
		return float64(cpu[layer]) / float64(units*uint64(len(traced)))
	}
	for _, l := range []string{"sim", "mem", "locks", "kernel", "cluster", "workload", "trace", "autonomic", "tune"} {
		vals[l+".host_cpu_frac"] = frac(l)
	}
	vals["sim.coroswitch_cpu_frac"] = frac("coroswitch")
	vals["runtime.gc_cpu_frac"] = frac("gc")

	// Engine.
	events := r.events + r.elided
	vals["sim.events"] = float64(events)
	vals["sim.elided_frac"] = float64(r.elided) / float64(events)
	vals["sim.host_ns_per_event"] = median(plainWall) * 1e9 / float64(events)

	// Memory.
	for d := sim.DistClass(0); d < sim.NumDistClasses; d++ {
		vals["mem.accesses."+d.String()] = float64(s.accesses[d])
		vals["mem.stall_us."+d.String()] = meanUS(s.stall[d], s.accesses[d])
	}
	vals["mem.home_util"] = c.homeUtil
	vals["mem.ring_util"] = c.ringUtil
	vals["mem.queue_us_mean"] = meanUS(c.queued, c.requests)
	vals["mem.replica_updates"] = float64(c.replicaUpdates)
	vals["mem.host_ns_per_access"] = perUnit("mem", s.accessesAll)

	// Locks: the convoy's lock, or the kernels' memory-manager locks.
	vals["locks.acquires"] = float64(c.acquires)
	vals["locks.wait_us.p50"] = s.wait.Percentile(50)
	vals["locks.wait_us.p99"] = s.wait.Percentile(99)
	vals["locks.hold_us.mean"] = s.hold.meanUS()
	if c.handoffs > 0 {
		vals["locks.handoff_local_frac"] = float64(c.nearHandoffs) / float64(c.handoffs)
	}
	if c.depthN > 0 {
		vals["locks.queue_depth_mean"] = c.depthSum / float64(c.depthN)
	}
	if n := s.wait.N(); n > 0 {
		vals["locks.swaps_per_acquire"] = float64(s.atomics) / float64(n)
	}
	vals["locks.host_ns_per_acquire"] = perUnit("locks", s.waitsAll)

	// Kernel and cluster RPC.
	vals["kernel.faults"] = float64(c.faults)
	vals["kernel.fault_us.p50"] = s.faults.Percentile(50)
	vals["kernel.fault_us.p99"] = s.faults.Percentile(99)
	vals["kernel.fault_lock_us"] = meanUS(s.sections.cycles, uint64(s.faults.N()))
	if c.faults > 0 {
		vals["kernel.retry_frac"] = float64(c.retries) / float64(c.faults)
	}
	vals["kernel.coherence_rpcs"] = float64(c.coherence)
	vals["cluster.rpc_calls"] = float64(c.rpcCalls)
	vals["cluster.rpc_us.mean"] = s.rpc.meanUS()
	vals["cluster.ipi_us.mean"] = s.ipi.meanUS()
	if c.faults > 0 && !c.server {
		// The fault workload's set-up is exactly its core.NewSystem calls.
		vals["core.setup_s"] = median(setups)
	}

	// Workload. Arrivals are materialised in simulated time before the
	// machine starts, so the generator is never late.
	vals["workload.samples"] = float64(r.lat.N())
	vals["workload.lateness_us"] = 0
	if c.server {
		vals["workload.offered"] = float64(c.offered)
		vals["workload.dropped"] = float64(c.dropped)
		vals["workload.abandoned"] = float64(c.abandoned)
		vals["workload.read_p99_us"] = c.classes[0].Percentile(99)
		vals["workload.write_p99_us"] = c.classes[1].Percentile(99)
		vals["workload.arrivals_gen_s"] = generateSeconds(seed, sz)
	}

	// Trace.
	vals["trace.events"] = float64(s.events)
	vals["trace.sink_ns_per_event"] = median(sinkNS)
	vals["trace.overhead_frac"] = median(tracedWall)/median(plainWall) - 1

	// Autonomics plane, placement and tuning.
	vals["autonomic.windows"] = float64(c.windows)
	vals["autonomic.host_us_per_window"] = median(windowUS)
	vals["autonomic.migrations"] = float64(c.migrations)
	vals["autonomic.replications"] = float64(c.replications)
	if c.replications > 0 {
		vals["autonomic.collapse_per_replicate"] = float64(c.collapses) / float64(c.replications)
	}
	vals["tune.switches"] = float64(c.switches)
	return vals
}

// generateSeconds times the tenant server's arrival generator, a
// synchronous call, as the median of a few runs.
func generateSeconds(seed uint64, sz size) float64 {
	spec := serverConfig(seed, sz).Arrivals
	var ts []float64
	for i := 0; i < 5; i++ {
		t := time.Now()
		spec.Generate(seed)
		ts = append(ts, time.Since(t).Seconds())
	}
	return median(ts)
}
