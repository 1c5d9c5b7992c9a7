// lockstat runs a single lock-contention experiment on the simulated
// HECTOR machine and prints the latency distribution — a command-line
// microscope for one (algorithm, processors, hold time) point of Figure 5.
//
//	lockstat -lock h2mcs -procs 16 -hold 25 -rounds 300
//	lockstat -lock spin2ms -procs 16 -hold 25    # watch the starvation tail
//	lockstat -lock spin -procs 16 -hold 25 -stats    # per-lock + per-resource telemetry
//	lockstat -lock tuned -procs 16 -hold 25      # feedback-tuned lock + controller decisions
//	lockstat -lock tuned -machine numachine64 -procs 64    # tuning on the 64-proc NUMAchine
//	lockstat -lock h2mcs -procs 4 -rounds 20 -trace out.json   # chrome://tracing / Perfetto
//
// With -stats, warm-up rounds (default rounds/4) are excluded from every
// number by a mid-run statistics reset: latency distributions, lock
// telemetry and resource utilization all cover only the measurement
// window, so start-up transients do not dilute steady-state contention.
//
// With -lock tuned, the lock is the feedback-tuned hybrid and
// the controller's decision log is printed after the run: each change of
// mode, backoff cap or head, with the signal that fired and the state left.
//
// With -migrate, the protected data lives in a migratable region (use
// -home to start it away from the contenders, e.g. -home 12 -procs 4) and
// the online placement daemon re-homes it mid-run from the live access
// trace; its decision log is printed after the run.
//
//	lockstat -lock h2mcs -procs 4 -home 12 -migrate  # daemon pulls the data to station 0
//
// With -autonomic, the full kernel autonomics plane runs under one shared
// cadence: the tuned lock's controller, the placement daemon, and the
// replication policy for read-mostly data (-autonomic sets -lock tuned
// itself; -lock tuned and -migrate run the single policies). In server
// mode the tenants get migratable data regions with a mixed
// read-mostly/write-hot profile — the workload the combined plane exists
// for.
//
//	lockstat -run server -autonomic -ms 20
//
// The plane's constants come from placement's table, from the row of the
// experiment each mode illustrates: -run server -autonomic takes the
// "server" row (exp.AutonomicSweep's), while the stress path and -run
// server -migrate take the "defaults" row (exp.ServerSweep's Tuned+mig).
// The stress path keeps its own one-region slot and runs every actuation
// on processor 0, because only -procs processors run.
//
// Flags are checked before the run (validate); a bad value exits 2.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/exp"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

var kinds = map[string]locks.Kind{
	"mcs":      locks.KindMCS,
	"h1mcs":    locks.KindH1MCS,
	"h2mcs":    locks.KindH2MCS,
	"spin":     locks.KindSpin,
	"spin2ms":  locks.KindSpin2ms,
	"clh":      locks.KindCLH,
	"adaptive": locks.KindAdaptive,
	"tuned":    locks.KindTuned,
	"cohort":   locks.KindCohort,
	"cna":      locks.KindCNA,
}

type machineSpec struct {
	cfg         func(seed uint64) sim.Config
	clusterSize int
	serverGapUS float64
}

var machines = map[string]machineSpec{
	"hector16":    {machine.Hector16, 4, 90},
	"numachine64": {machine.NUMAchine64, 8, 180},
}

// options are the flags validate checks.
type options struct {
	lock, machine, run                     string
	procs, home, rounds, warmup, horizonMS int
	holdUS                                 float64
}

// validate rejects flag values the run cannot honour. warmup -1 stands for
// the rounds/4 default.
func validate(o options) error {
	if _, ok := kinds[o.lock]; !ok {
		return fmt.Errorf("unknown lock %q; choose one of mcs, h1mcs, h2mcs, spin, spin2ms, clh, adaptive, tuned, cohort, cna", o.lock)
	}
	mc, ok := machines[o.machine]
	if !ok {
		return fmt.Errorf("unknown machine %q; choose hector16 or numachine64", o.machine)
	}
	cfg := mc.cfg(0)
	n := cfg.Stations * cfg.ProcsPerStation
	switch {
	case o.run != "stress" && o.run != "server":
		return fmt.Errorf("unknown -run %q; choose stress or server", o.run)
	case o.procs < 1 || o.procs > n:
		return fmt.Errorf("procs must be 1-%d (%s)", n, o.machine)
	case o.home < 0 || o.home >= n:
		return fmt.Errorf("home must be a module 0-%d (%s)", n-1, o.machine)
	case math.IsNaN(o.holdUS) || math.IsInf(o.holdUS, 0) || o.holdUS < 0:
		return fmt.Errorf("hold must be a finite non-negative number of microseconds (got %g)", o.holdUS)
	case o.rounds < 1:
		return fmt.Errorf("rounds must be at least 1 (got %d)", o.rounds)
	case o.warmup < -1 || o.warmup >= o.rounds:
		return fmt.Errorf("warmup must be -1 (rounds/4) or 0-%d (got %d)", o.rounds-1, o.warmup)
	case o.horizonMS < 1:
		return fmt.Errorf("ms must be at least 1 (got %d)", o.horizonMS)
	}
	return nil
}

func main() {
	lock := flag.String("lock", "h2mcs", "mcs | h1mcs | h2mcs | spin | spin2ms | clh | adaptive | tuned | cohort | cna")
	machineName := flag.String("machine", "hector16", "hector16 | numachine64")
	procs := flag.Int("procs", 16, "contending processors")
	holdUS := flag.Float64("hold", 25, "critical-section length in microseconds")
	rounds := flag.Int("rounds", 300, "acquisitions per processor")
	warmup := flag.Int("warmup", -1, "warm-up acquisitions per processor excluded from stats (-1 = rounds/4)")
	seed := flag.Uint64("seed", 1, "simulation seed")
	showStats := flag.Bool("stats", false, "print per-lock and per-resource telemetry")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON file of the run")
	home := flag.Int("home", 0, "home module of the lock and its protected data")
	migrate := flag.Bool("migrate", false, "protected data in a migratable region managed by the online placement daemon")
	auto := flag.Bool("autonomic", false, "full autonomics plane: tuned lock + migration + replication under one cadence")
	run := flag.String("run", "stress", "stress | server (open-loop multi-tenant server, tail-latency summary)")
	horizonMS := flag.Int("ms", 20, "server mode: arrival horizon in simulated milliseconds")
	flag.Parse()

	if *auto {
		*lock = "tuned"
		*migrate = true
	}
	err := validate(options{lock: *lock, machine: *machineName, run: *run, procs: *procs, home: *home,
		rounds: *rounds, warmup: *warmup, horizonMS: *horizonMS, holdUS: *holdUS})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	kind, mc := kinds[*lock], machines[*machineName]
	if *warmup < 0 {
		*warmup = *rounds / 4
	}
	if *run == "server" {
		runServer(*machineName, mc, kind, *seed, *horizonMS, *migrate, *auto)
		return
	}

	us, counts := workload.UncontendedPair(*seed, kind)
	fmt.Printf("%s: uncontended pair %.2fus (atomic/mem/reg/br = %d/%d/%d/%d)\n\n",
		kind, us, counts.Atomic, counts.Mem, counts.Reg, counts.Branch)

	var tracer *trace.Chrome
	var t sim.Tracer
	if *tracePath != "" {
		tracer = trace.NewChrome()
		t = tracer
	}
	mcfg := mc.cfg(*seed)
	var st *placement.Stack
	if *migrate {
		// The daemon's control signal is the live aggregate; fan the event
		// stream out if a Chrome trace was also requested.
		st = placement.NewStack(mcfg, placement.RowDefaults,
			placement.Policies{Tune: *auto, Migrate: true, Replicate: *auto})
		t = st.Tracer(tracer)
	}

	// Build through StressConfig so the machine is selectable and, for the
	// tuned lock, the controller stays reachable for the decision log.
	var tl *locks.Tuned
	cfg := workload.StressConfig{
		Machine: mcfg,
		Kind:    kind,
		Procs:   *procs,
		Rounds:  *rounds,
		Warmup:  *warmup,
		Hold:    sim.Micros(*holdUS),
		Home:    *home,
		Tracer:  t,
		Region:  *migrate,
	}
	if kind == locks.KindTuned {
		var tp tune.Params
		if st != nil {
			tp = st.TuneParams()
		}
		cfg.MakeLock = func(m *sim.Machine, home int) locks.Lock {
			tl = locks.NewTuned(m, home, tp)
			return tl
		}
	}
	if st != nil {
		cfg.Attach = func(r *workload.LockStressObserved) {
			// The stress run only starts -procs processors, so the default
			// executor (the processor co-located with the data's home) may
			// never be scheduled; run every copy on processor 0 instead.
			// The copy itself needs no extra lock here: the region's words
			// are re-pointed atomically and the burst is serialized against
			// in-flight accesses by the module/ring resource queues.
			st.AttachRegion(r.M, func(int) int { return 0 }, "lock data", r.DataRegion)
		}
	}
	r := workload.LockStressRun(cfg)
	if tracer != nil {
		tracer.SetMachine(r.M)
	}
	d := r.AcquireDist
	fmt.Printf("%d procs x %d rounds (+%d warm-up), hold %gus:\n", *procs, *rounds, *warmup, *holdUS)
	fmt.Printf("  acquire latency (us): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max())
	fmt.Printf("  acquires over 2ms: %.2f%%\n", d.FracAbove(2000)*100)
	fmt.Printf("  throughput view: %.1f us/op machine-wide\n", r.PairUS+*holdUS)

	if tl != nil {
		fmt.Println()
		fmt.Print(tunerLog("tuner", tl.Controller()))
	}

	if st != nil {
		fmt.Println()
		fmt.Print(planeLog(st))
		fmt.Printf("data region home: module %d", r.M.Mem.Home(r.DataRegion))
		if reps := r.M.Mem.Replicas(r.DataRegion); len(reps) > 0 {
			fmt.Printf(", replicas on %v", reps)
		}
		fmt.Println()
	}

	if *showStats {
		fmt.Println()
		fmt.Print(r.Lock.Report())
		fmt.Printf("windowed resource utilization over [%v, %v]:\n", r.WindowStart, r.WindowEnd)
		for i, ru := range r.Resources {
			marker := ""
			if i == r.HomeModule {
				marker = "  <- lock home"
			}
			// Quiet resources are noise; always show the home module.
			if ru.Utilization < 0.01 && i != r.HomeModule {
				continue
			}
			fmt.Printf("  %-8s %5.1f%% busy  %7d requests  worst queue %6.1fus%s\n",
				ru.Name, ru.Utilization*100, ru.Requests, ru.MaxQueueUS, marker)
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
		fmt.Printf("\nwrote %s (%d events; open in chrome://tracing or https://ui.perfetto.dev)\n",
			*tracePath, len(tracer.Events()))
	}
}

// serverStack builds the server path's autonomics stack: with -autonomic
// the full plane on the "server" row, as exp.AutonomicSweep's combined row
// runs it; with -migrate alone the daemon on the "defaults" row, as
// exp.ServerSweep's Tuned+mig row runs it.
func serverStack(cfg sim.Config, auto bool) *placement.Stack {
	if auto {
		return placement.NewStack(cfg, placement.RowServer,
			placement.Policies{Tune: true, Migrate: true, Replicate: true})
	}
	return placement.NewStack(cfg, placement.RowDefaults, placement.Policies{Migrate: true})
}

// runServer executes the open-loop multi-tenant server scenario (the
// exp.ServerSweep workload at one point) and prints the sojourn-time tail,
// the per-tenant breakdown, and — for the tuned lock or with -migrate —
// the decision logs of the controllers and the daemon. With -autonomic
// the tenants get migratable data regions (three of four read-mostly, one
// of four write-hot and sharded off its data's home cluster) and the full
// plane — tuned locks, migration, replication — manages the run.
func runServer(name string, mc machineSpec, kind locks.Kind, seed uint64, horizonMS int, migrate, auto bool) {
	mcfg := mc.cfg(seed)
	cfg := workload.ServerConfig{
		Machine:     mcfg,
		ClusterSize: mc.clusterSize,
		LockKind:    kind,
		Tenants:     2 * mcfg.Stations,
		ZipfS:       1.0,
		Arrivals:    exp.ServerArrivals(sim.Micros(mc.serverGapUS), sim.Micros(float64(horizonMS)*1000)),
		Warmup:      sim.Micros(2000),
		ChurnEvery:  8,
	}
	if auto {
		// The AutonomicSweep workload shape: per-tenant migratable data,
		// three of four tenants read-mostly (replication's case), every
		// fourth write-hot and sharded onto the wrong cluster (migration's).
		exp.AutonomicTenants(&cfg, mcfg.Stations)
	}
	var st *placement.Stack
	if migrate {
		st = serverStack(mcfg, auto)
		cfg.Migratable = true
		cfg.Tracer = st.Agg
		cfg.Attach = func(sys *core.System) { st.AttachKernel(sys.M, sys.K) }
	}
	if auto {
		tp := st.TuneParams()
		cfg.TuneParams = &tp
	}
	r := workload.ServerRun(cfg)
	fmt.Printf("%s %s: open-loop server, %dms horizon + drain (2ms warm-up), mean gap %gus\n",
		name, kind, horizonMS, mc.serverGapUS)
	dropPct := 0.0
	if r.Offered > 0 {
		dropPct = 100 * float64(r.Dropped) / float64(r.Offered)
	}
	fmt.Printf("  offered %d  admitted %d  dropped %d (%.2f%%)  goodput %.0f r/s\n",
		r.Offered, r.Admitted, r.Dropped, dropPct, r.GoodputRPS)
	fmt.Printf("  sojourn (us): %s\n", r.Lat.Tail())
	fmt.Println("  per-tenant (rank order):")
	for _, ts := range r.Tenants {
		fmt.Printf("    tenant %-3d w=%.3f adm=%-5d drop=%-4d %s\n",
			ts.Label, ts.Weight, ts.Admitted, ts.Dropped, ts.Lat.Tail())
	}
	if kind == locks.KindTuned {
		for i, ctl := range r.Sys.K.Controllers() {
			fmt.Println()
			fmt.Print(tunerLog(fmt.Sprintf("kernel lock controller %d", i), ctl))
		}
	}
	if st != nil {
		fmt.Println()
		fmt.Print(planeLog(st))
	}
}

// tunerLog renders one tuned lock's decision log under a title naming the
// lock and its final state.
func tunerLog(name string, c *tune.Controller) string {
	return autonomic.Render(fmt.Sprintf("%s: %d windows, %d mode switches; final mode %s, cap %gus, head %gus",
		name, c.Samples(), c.Switches(), c.Mode(), c.BackoffCap().Microseconds(), c.HeadBackoff().Microseconds()),
		c.Decisions())
}

// planeLog renders the autonomics plane's schedule, then the decision log
// of each data policy that ran.
func planeLog(st *placement.Stack) string {
	pl := st.Plane
	names := pl.Names()
	out := fmt.Sprintf("autonomics plane: %d windows every %v, %d policies [%s]\n",
		pl.Ticks(), pl.Period(), len(names), strings.Join(names, " -> "))
	if st.Replicator != nil {
		out += autonomic.Render(fmt.Sprintf("replication policy: %d windows", pl.Ticks()), st.Replicator.Actions())
	}
	if st.Daemon != nil {
		out += autonomic.Render(fmt.Sprintf("placement daemon: %d windows", pl.Ticks()), st.Daemon.Moves())
	}
	return out
}
