// clustersim runs the clustered kernel's page-fault workloads at a chosen
// cluster size and prints latency plus the cross-cluster traffic that
// explains it — an interactive view of Figure 7.
//
//	clustersim -size 4 -procs 16 -workload shared
//	clustersim -size 1 -workload independent -lock spin
//	clustersim -size 16 -procs 4 -migrate     # online placement daemon
//	clustersim -size 16 -procs 4 -autonomic   # full autonomics plane
//
// With -migrate, kernel-data slots are allocated in migratable regions and
// an online placement daemon samples the live access trace, re-homing hot
// slots toward their accessors mid-run; the daemon's decision log and the
// charged migration cost are printed after the run.
//
// With -autonomic, the whole kernel autonomics plane runs: feedback-tuned
// kernel locks, the placement daemon, and the replication policy for
// read-mostly kernel data, all sampled by one shared daemon cadence
// (internal/autonomic.Plane); each one's decisions print after the run.
// -migrate remains the single-policy alias.
// Both modes take the "fault" row of placement's constants table — the
// constants of exp.PlacementOnline, whose fault workload this is.
//
// Flags are checked before the run (validate); a bad value exits 2.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
)

var kinds = map[string]locks.Kind{
	"mcs": locks.KindMCS, "h2mcs": locks.KindH2MCS,
	"spin": locks.KindSpin, "spin2ms": locks.KindSpin2ms,
	"tuned": locks.KindTuned,
}

// options are the flags validate checks.
type options struct {
	size, procs, pages, rounds int
	lock, workload             string
}

// validate rejects flag values the run cannot honour on a machine of
// nprocs processors.
func validate(o options, nprocs int) error {
	switch {
	case o.size < 1 || nprocs%o.size != 0:
		return fmt.Errorf("size must divide the %d processors (got %d)", nprocs, o.size)
	case o.procs < 1 || o.procs > nprocs:
		return fmt.Errorf("procs must be 1-%d (got %d)", nprocs, o.procs)
	case o.pages < 1:
		return fmt.Errorf("pages must be at least 1 (got %d)", o.pages)
	case o.rounds < 1:
		return fmt.Errorf("rounds must be at least 1 (got %d)", o.rounds)
	case o.workload != "independent" && o.workload != "shared":
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if _, ok := kinds[o.lock]; !ok {
		return fmt.Errorf("unknown lock %q", o.lock)
	}
	return nil
}

func main() {
	size := flag.Int("size", 4, "processors per cluster (must divide 16)")
	procs := flag.Int("procs", 16, "faulting processes")
	kind := flag.String("lock", "h2mcs", "h2mcs | mcs | spin | spin2ms")
	wl := flag.String("workload", "independent", "independent | shared")
	pages := flag.Int("pages", 4, "pages per process (or shared pages)")
	rounds := flag.Int("rounds", 20, "fault rounds per process")
	seed := flag.Uint64("seed", 1, "simulation seed")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	migrate := flag.Bool("migrate", false, "run the online placement daemon (migratable kernel-data slots)")
	auto := flag.Bool("autonomic", false, "run the full kernel autonomics plane: tuned locks + migration + replication under one cadence")
	flag.Parse()

	if *auto {
		*migrate = true
		*kind = "tuned"
	}
	mcfg := sim.Config{Seed: *seed}
	full := mcfg.WithDefaults()
	if err := validate(options{*size, *procs, *pages, *rounds, *kind, *wl}, full.Stations*full.ProcsPerStation); err != nil {
		fmt.Fprintf(os.Stderr, "clustersim: %v\n", err)
		os.Exit(2)
	}
	lk := kinds[*kind]
	var tracer *trace.Chrome
	var t sim.Tracer
	if *tracePath != "" {
		tracer = trace.NewChrome()
		t = tracer
	}
	var st *placement.Stack
	if *migrate {
		// The daemon reads the live aggregate, so it must be in the sink
		// chain; a Chrome trace, if also requested, rides the same stream.
		st = placement.NewStack(mcfg, placement.RowFault,
			placement.Policies{Tune: *auto, Migrate: true, Replicate: *auto})
		t = st.Tracer(tracer)
	}
	cc := core.Config{
		Machine:     mcfg,
		ClusterSize: *size,
		LockKind:    lk,
		Tracer:      t,
		Migratable:  *migrate,
	}
	if *auto {
		// One cadence for every policy; the tune samplers register on the
		// plane during kernel construction, the data policies after.
		tp := st.TuneParams()
		cc.TuneParams = &tp
	}
	sys := core.NewSystem(cc)
	if tracer != nil {
		tracer.SetMachine(sys.M)
		// Wrap each cluster's memory-manager lock with telemetry so the
		// trace carries named lock wait/hold spans (zero simulated cost).
		for c := 0; c < sys.K.Topo.N; c++ {
			sys.K.VM.SetMMLock(c, locks.NewStats(sys.M, sys.K.VM.MMLock(c)))
		}
	}
	if st != nil {
		st.AttachKernel(sys.M, sys.K)
	}

	var res workload.FaultResult
	if *wl == "shared" {
		res = workload.SharedFaults(sys, *procs, *pages, *rounds)
	} else {
		res = workload.IndependentFaults(sys, *procs, *pages, *rounds)
	}

	d := res.Dist
	fmt.Printf("%s faults, %d procs, cluster size %d, %s locks:\n", *wl, *procs, *size, lk)
	fmt.Printf("  fault latency (us): mean %.1f  p50 %.1f  p95 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Max())
	fmt.Printf("  faults handled:     %d\n", res.Stats.Faults)
	fmt.Printf("  descriptor replications: %d\n", res.Replications)
	fmt.Printf("  coherence write notices: %d\n", res.Stats.CoherenceRPCs)
	fmt.Printf("  COW copies:              %d\n", res.Stats.COWCopies)
	fmt.Printf("  RPC calls:               %d (retried %d)\n", sys.K.RPC.Calls, sys.K.RPC.Retries)
	fmt.Printf("  IPI work deferred by the logical mask: %d\n", sys.K.Gate.Deferred)
	fmt.Printf("  elapsed: %v simulated\n", res.Elapsed)
	if st != nil {
		fmt.Printf("  migrations: %d (%d words copied, %.1fus charged)\n",
			res.Stats.Migrations, res.Stats.MigratedWords,
			float64(res.Stats.MigrationCycles)/sim.CyclesPerMicrosecond)
		pl := st.Plane
		names := pl.Names()
		log := fmt.Sprintf("autonomics plane: %d windows every %v, %d policies [%s]\n",
			pl.Ticks(), pl.Period(), len(names), strings.Join(names, " -> "))
		if st.Replicator != nil {
			log += autonomic.Render(fmt.Sprintf("replication policy: %d windows", pl.Ticks()), st.Replicator.Actions())
		}
		log += autonomic.Render(fmt.Sprintf("placement daemon: %d windows", pl.Ticks()), st.Daemon.Moves())
		for i, ctl := range sys.K.Controllers() {
			log += autonomic.Render(fmt.Sprintf("kernel lock controller %d: %d mode switches", i, ctl.Switches()),
				ctl.Decisions())
		}
		for _, line := range strings.SplitAfter(log, "\n") {
			if line != "" {
				fmt.Print("  " + line)
			}
		}
	}

	// Memory-system hot spots (windowed: the window opened at machine
	// construction, so this covers the whole run).
	fmt.Println("  busiest memory modules:")
	now := sys.M.Eng.Now()
	for i := 0; i < sys.M.NumProcs(); i++ {
		r := sys.M.Mem.Module(i)
		if u := r.WindowUtilization(now); u > 0.10 {
			fmt.Printf("    module %-2d  %4.0f%% busy, worst queue %v\n", i, u*100, r.MaxQueue)
		}
	}

	if tracer != nil {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "create trace: %v\n", err)
			os.Exit(1)
		}
		if err := tracer.Export(f); err != nil {
			fmt.Fprintf(os.Stderr, "write trace: %v\n", err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "close trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("  wrote %s (%d events)\n", *tracePath, len(tracer.Events()))
	}
}
