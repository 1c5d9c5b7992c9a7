// lockstat runs a single experiment on the simulated HECTOR machine and
// prints what it measured — a command-line microscope for one point of the
// paper's figures. -run picks the experiment: stress (the default) is one
// (algorithm, processors, hold time) point of Figure 5, server an
// open-loop multi-tenant server, and independent and shared the clustered
// kernel's page-fault tests of Figure 7 at one cluster size.
//
//	lockstat -lock h2mcs -procs 16 -hold 25 -rounds 300
//	lockstat -lock spin2ms -procs 16 -hold 25    # watch the starvation tail
//	lockstat -lock spin -procs 16 -hold 25 -stats    # per-lock + per-resource telemetry
//	lockstat -lock tuned -procs 16 -hold 25      # feedback-tuned lock + controller decisions
//	lockstat -lock tuned -machine numachine64 -procs 64    # tuning on the 64-proc NUMAchine
//	lockstat -lock h2mcs -procs 4 -rounds 20 -trace out.json   # chrome://tracing / Perfetto
//	lockstat -run shared -size 4 -procs 16       # one Figure 7 point
//	lockstat -run independent -size 1 -lock spin # per-processor clusters, spin locks
//
// With -stats, warm-up rounds (default rounds/4) are excluded from every
// number by a mid-run statistics reset: latency distributions, lock
// telemetry and resource utilization all cover only the measurement
// window, so start-up transients do not dilute steady-state contention.
//
// With -lock tuned, the lock is the feedback-tuned hybrid and
// the controller's decision log is printed after the run: each change of
// mode, backoff cap or head, with the signal that fired and the state left.
// In the kernel runs (server, independent, shared) every coarse kernel lock
// is tuned and each one's log is printed.
//
// The kernel runs build the clustered kernel with -size processors per
// cluster; -size 0 takes the machine's own cluster size (4 on hector16, 8
// on numachine64). The fault runs fault -pages pages per process (or
// shared pages) -rounds times (default 20) and report latency plus the
// cross-cluster traffic that explains it.
//
// With -migrate, the protected data lives in a migratable region (use
// -home to start it away from the contenders, e.g. -home 12 -procs 4) and
// the online placement daemon re-homes it mid-run from the live access
// trace; its decision log is printed after the run. In the fault runs the
// kernel-data slots are the migratable regions.
//
//	lockstat -lock h2mcs -procs 4 -home 12 -migrate  # daemon pulls the data to station 0
//	lockstat -run independent -size 16 -procs 4 -migrate
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
//	lockstat -run independent -size 16 -procs 4 -rounds 8 -autonomic
//
// The plane's constants come from placement's table, from the row of the
// experiment each mode illustrates: -run server -autonomic takes the
// "server" row (exp.AutonomicSweep's), the fault runs the "fault" row
// (exp.PlacementOnline's), while the stress path and -run server -migrate
// take the "defaults" row (exp.ServerSweep's Tuned+mig). The stress path
// keeps its own one-region slot and runs every actuation on processor 0,
// because only -procs processors run.
//
// With -trace, every mode writes a Chrome trace-event JSON file of the run
// (chrome://tracing, Perfetto, or traceanal). In the fault runs each
// cluster's memory-manager lock is wrapped with telemetry so the trace
// carries named lock wait/hold spans.
//
// Flags are checked before the run (validate); a bad value exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/exp"
	"hurricane/internal/kernel"
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

const (
	// serverWarmupMS is the server run's unmeasured start, excluded from
	// every statistic; a horizon that ends inside it measures nothing.
	serverWarmupMS = 2
	// faultRounds is the fault runs' -rounds when the flag is not given.
	faultRounds = 20
)

// options are the command's flags.
type options struct {
	lock, machine, run, tracePath                       string
	procs, home, rounds, warmup, horizonMS, size, pages int
	holdUS                                              float64
	seed                                                uint64
	stats, migrate, auto                                bool
	// set names the flags given on the command line.
	set map[string]bool
}

// ignored names, per run mode, the flags the mode never reads; validate
// rejects one given explicitly rather than run without it.
var ignored = map[string][]string{
	"stress":      {"ms", "size", "pages"},
	"server":      {"procs", "hold", "rounds", "warmup", "stats", "home", "pages"},
	"independent": {"hold", "home", "warmup", "stats", "ms"},
	"shared":      {"hold", "home", "warmup", "stats", "ms"},
}

// faultRun reports whether the run is one of the kernel's fault tests.
func (o options) faultRun() bool { return o.run == "independent" || o.run == "shared" }

// validate rejects flag values the run cannot honour, and flags given to a
// mode that ignores them. warmup -1 stands for the rounds/4 default, size 0
// for the machine's cluster size.
func validate(o options) error {
	for _, name := range ignored[o.run] {
		if o.set[name] {
			return fmt.Errorf("-%s has no effect on -run %s", name, o.run)
		}
	}
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
	case o.run != "stress" && o.run != "server" && !o.faultRun():
		return fmt.Errorf("unknown -run %q; choose stress, server, independent or shared", o.run)
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
	case o.run == "server" && o.horizonMS <= serverWarmupMS:
		return fmt.Errorf("ms must exceed the server's %dms warm-up (got %d)", serverWarmupMS, o.horizonMS)
	case o.size < 0 || o.size > 0 && n%o.size != 0:
		return fmt.Errorf("size must divide the %d processors, or be 0 for %s's own cluster size (got %d)", n, o.machine, o.size)
	case o.pages < 1:
		return fmt.Errorf("pages must be at least 1 (got %d)", o.pages)
	}
	return nil
}

func main() {
	var o options
	flag.StringVar(&o.lock, "lock", "h2mcs", "mcs | h1mcs | h2mcs | spin | spin2ms | clh | adaptive | tuned | cohort | cna")
	flag.StringVar(&o.machine, "machine", "hector16", "hector16 | numachine64")
	flag.IntVar(&o.procs, "procs", 16, "contending processors (fault runs: faulting processes)")
	flag.Float64Var(&o.holdUS, "hold", 25, "critical-section length in microseconds")
	flag.IntVar(&o.rounds, "rounds", 300, fmt.Sprintf("acquisitions per processor (fault runs: fault rounds per process, default %d)", faultRounds))
	flag.IntVar(&o.warmup, "warmup", -1, "warm-up acquisitions per processor excluded from stats (-1 = rounds/4)")
	flag.Uint64Var(&o.seed, "seed", 1, "simulation seed")
	flag.BoolVar(&o.stats, "stats", false, "print per-lock and per-resource telemetry")
	flag.StringVar(&o.tracePath, "trace", "", "write a Chrome trace-event JSON file of the run")
	flag.IntVar(&o.home, "home", 0, "home module of the lock and its protected data")
	flag.BoolVar(&o.migrate, "migrate", false, "protected data in a migratable region managed by the online placement daemon")
	flag.BoolVar(&o.auto, "autonomic", false, "full autonomics plane: tuned lock + migration + replication under one cadence")
	flag.StringVar(&o.run, "run", "stress", "stress | server (open-loop multi-tenant server) | independent | shared (kernel fault tests)")
	flag.IntVar(&o.horizonMS, "ms", 20, fmt.Sprintf("server mode: arrival horizon in simulated milliseconds (more than the %dms warm-up)", serverWarmupMS))
	flag.IntVar(&o.size, "size", 0, "kernel runs: processors per cluster (0 = the machine's cluster size)")
	flag.IntVar(&o.pages, "pages", 4, "fault runs: pages per process (or shared pages)")
	flag.Parse()

	if o.auto {
		o.lock = "tuned"
		o.migrate = true
	}
	o.set = map[string]bool{}
	flag.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if o.faultRun() && !o.set["rounds"] {
		o.rounds = faultRounds
	}
	if err := validate(o); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	if o.warmup < 0 {
		o.warmup = o.rounds / 4
	}
	mc := machines[o.machine]
	if o.size == 0 {
		o.size = mc.clusterSize
	}
	var chrome *trace.Chrome
	if o.tracePath != "" {
		chrome = trace.NewChrome()
	}
	run := runFaults
	switch o.run {
	case "stress":
		run = runStress
	case "server":
		run = runServer
	}
	m := run(os.Stdout, o, mc, chrome)
	if chrome != nil {
		if err := exportTrace(os.Stdout, o.tracePath, chrome, m); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// exportTrace writes the Chrome trace of a run on machine m to path,
// stamped with m's topology (traceanal needs it), and reports it on w.
func exportTrace(w io.Writer, path string, chrome *trace.Chrome, m *sim.Machine) error {
	chrome.SetMachine(m)
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create trace: %w", err)
	}
	if err := chrome.Export(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("close trace: %w", err)
	}
	fmt.Fprintf(w, "\nwrote %s (%d events; open in chrome://tracing or https://ui.perfetto.dev)\n",
		path, len(chrome.Events()))
	return nil
}

// stack builds the autonomics stack of a -migrate run (nil without one):
// the placement daemon alone, or with -autonomic every policy, on the
// constants row of the experiment the run mode illustrates.
func stack(o options, cfg sim.Config) *placement.Stack {
	if !o.migrate {
		return nil
	}
	row := placement.RowDefaults
	switch {
	case o.faultRun():
		row = placement.RowFault
	case o.run == "server" && o.auto:
		row = placement.RowServer
	}
	return placement.NewStack(cfg, row, placement.Policies{Tune: o.auto, Migrate: true, Replicate: o.auto})
}

// sinks returns the tracer chain a run installs: the stack's aggregate
// (behind chrome, when tracing) if a stack runs, else chrome alone, else
// none.
func sinks(chrome *trace.Chrome, st *placement.Stack) sim.Tracer {
	switch {
	case st != nil:
		return st.Tracer(chrome)
	case chrome != nil:
		return chrome
	}
	return nil
}

// runStress runs one lock-contention point and prints its acquire-latency
// distribution, the tuner's and the plane's decisions, and with -stats
// the per-lock and per-resource telemetry. It returns the machine it ran.
func runStress(w io.Writer, o options, mc machineSpec, chrome *trace.Chrome) *sim.Machine {
	kind := kinds[o.lock]
	us, counts := workload.UncontendedPair(o.seed, kind)
	fmt.Fprintf(w, "%s: uncontended pair %.2fus (atomic/mem/reg/br = %d/%d/%d/%d)\n\n",
		kind, us, counts.Atomic, counts.Mem, counts.Reg, counts.Branch)

	mcfg := mc.cfg(o.seed)
	st := stack(o, mcfg)

	// Build through StressConfig so the machine is selectable and, for the
	// tuned lock, the controller stays reachable for the decision log.
	var tl *locks.Tuned
	cfg := workload.StressConfig{
		Machine: mcfg,
		Kind:    kind,
		Procs:   o.procs,
		Rounds:  o.rounds,
		Warmup:  o.warmup,
		Hold:    sim.Micros(o.holdUS),
		Home:    o.home,
		Tracer:  sinks(chrome, st),
		Region:  o.migrate,
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
	d := r.AcquireDist
	fmt.Fprintf(w, "%d procs x %d rounds (+%d warm-up), hold %gus:\n", o.procs, o.rounds, o.warmup, o.holdUS)
	fmt.Fprintf(w, "  acquire latency (us): mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Percentile(99), d.Max())
	fmt.Fprintf(w, "  acquires over 2ms: %.2f%%\n", d.FracAbove(2000)*100)
	fmt.Fprintf(w, "  throughput view: %.1f us/op machine-wide\n", r.PairUS+o.holdUS)

	if tl != nil {
		fmt.Fprintln(w)
		fmt.Fprint(w, tunerLog("tuner", tl.Controller()))
	}

	if st != nil {
		planeLog(w, st)
		fmt.Fprintf(w, "data region home: module %d", r.M.Mem.Home(r.DataRegion))
		if reps := r.M.Mem.Replicas(r.DataRegion); len(reps) > 0 {
			fmt.Fprintf(w, ", replicas on %v", reps)
		}
		fmt.Fprintln(w)
	}

	if o.stats {
		fmt.Fprintln(w)
		fmt.Fprint(w, r.Lock.Report())
		fmt.Fprintf(w, "windowed resource utilization over [%v, %v]:\n", r.WindowStart, r.WindowEnd)
		for i, ru := range r.Resources {
			marker := ""
			if i == r.HomeModule {
				marker = "  <- lock home"
			}
			// Quiet resources are noise; always show the home module.
			if ru.Utilization < 0.01 && i != r.HomeModule {
				continue
			}
			fmt.Fprintf(w, "  %-8s %5.1f%% busy  %7d requests  worst queue %6.1fus%s\n",
				ru.Name, ru.Utilization*100, ru.Requests, ru.MaxQueueUS, marker)
		}
	}
	return r.M
}

// runServer executes the open-loop multi-tenant server scenario (the
// exp.ServerSweep workload at one point) and prints the sojourn-time tail,
// the per-tenant breakdown, and the kernel's decision logs. With
// -autonomic the tenants get migratable data regions (three of four
// read-mostly, one of four write-hot and sharded off its data's home
// cluster) and the full plane — tuned locks, migration, replication —
// manages the run. It returns the machine it ran.
func runServer(w io.Writer, o options, mc machineSpec, chrome *trace.Chrome) *sim.Machine {
	kind := kinds[o.lock]
	mcfg := mc.cfg(o.seed)
	cfg := workload.ServerConfig{
		Machine:     mcfg,
		ClusterSize: o.size,
		LockKind:    kind,
		Tenants:     2 * mcfg.Stations,
		ZipfS:       1.0,
		Arrivals:    exp.ServerArrivals(sim.Micros(mc.serverGapUS), sim.Micros(float64(o.horizonMS)*1000)),
		Warmup:      sim.Micros(serverWarmupMS * 1000),
		ChurnEvery:  8,
	}
	if o.auto {
		// The AutonomicSweep workload shape: per-tenant migratable data,
		// three of four tenants read-mostly (replication's case), every
		// fourth write-hot and sharded onto the wrong cluster (migration's).
		// The shards name clusters, so there are as many as the kernel has.
		exp.AutonomicTenants(&cfg, mcfg.Stations*mcfg.ProcsPerStation/o.size)
	}
	st := stack(o, mcfg)
	cfg.Tracer = sinks(chrome, st)
	if st != nil {
		cfg.Migratable = true
		cfg.Attach = func(sys *core.System) { st.AttachKernel(sys.M, sys.K) }
	}
	if o.auto {
		tp := st.TuneParams()
		cfg.TuneParams = &tp
	}
	r := workload.ServerRun(cfg)
	fmt.Fprintf(w, "%s %s: open-loop server, %dms horizon + drain (%dms warm-up), mean gap %gus\n",
		o.machine, kind, o.horizonMS, serverWarmupMS, mc.serverGapUS)
	dropPct := 0.0
	if r.Offered > 0 {
		dropPct = 100 * float64(r.Dropped) / float64(r.Offered)
	}
	fmt.Fprintf(w, "  offered %d  admitted %d  dropped %d (%.2f%%)  goodput %.0f r/s\n",
		r.Offered, r.Admitted, r.Dropped, dropPct, r.GoodputRPS)
	fmt.Fprintf(w, "  sojourn (us): %s\n", r.Lat.Tail())
	fmt.Fprintln(w, "  per-tenant (rank order):")
	for _, ts := range r.Tenants {
		fmt.Fprintf(w, "    tenant %-3d w=%.3f adm=%-5d drop=%-4d %s\n",
			ts.Label, ts.Weight, ts.Admitted, ts.Dropped, ts.Lat.Tail())
	}
	controllerLogs(w, r.Sys.K)
	planeLog(w, st)
	return r.Sys.M
}

// runFaults runs the clustered kernel's independent or shared page-fault
// test (the paper's Figure 7 workloads) and prints fault latency, the
// cross-cluster traffic that explains it, the kernel's decision logs and
// the busiest memory modules. It returns the machine it ran.
func runFaults(w io.Writer, o options, mc machineSpec, chrome *trace.Chrome) *sim.Machine {
	kind := kinds[o.lock]
	mcfg := mc.cfg(o.seed)
	st := stack(o, mcfg)
	cc := core.Config{
		Machine:     mcfg,
		ClusterSize: o.size,
		LockKind:    kind,
		Tracer:      sinks(chrome, st),
		Migratable:  o.migrate,
	}
	if o.auto {
		// One cadence for every policy; the tune samplers register on the
		// plane during kernel construction, the data policies after.
		tp := st.TuneParams()
		cc.TuneParams = &tp
	}
	sys := core.NewSystem(cc)
	if chrome != nil {
		// Wrap each cluster's memory-manager lock with telemetry so the
		// trace carries named lock wait/hold spans (zero simulated cost).
		for c := 0; c < sys.K.Topo.N; c++ {
			sys.K.VM.SetMMLock(c, locks.NewStats(sys.M, sys.K.VM.MMLock(c)))
		}
	}
	if st != nil {
		st.AttachKernel(sys.M, sys.K)
	}

	faults := workload.IndependentFaults
	if o.run == "shared" {
		faults = workload.SharedFaults
	}
	res := faults(sys, o.procs, o.pages, o.rounds)

	d := res.Dist
	fmt.Fprintf(w, "%s faults, %d procs, cluster size %d, %s locks:\n", o.run, o.procs, o.size, kind)
	fmt.Fprintf(w, "  fault latency (us): mean %.1f  p50 %.1f  p95 %.1f  max %.0f\n",
		d.Mean(), d.Percentile(50), d.Percentile(95), d.Max())
	fmt.Fprintf(w, "  faults handled:     %d\n", res.Stats.Faults)
	fmt.Fprintf(w, "  descriptor replications: %d\n", res.Replications)
	fmt.Fprintf(w, "  coherence write notices: %d\n", res.Stats.CoherenceRPCs)
	fmt.Fprintf(w, "  COW copies:              %d\n", res.Stats.COWCopies)
	fmt.Fprintf(w, "  RPC calls:               %d (retried %d)\n", sys.K.RPC.Calls, sys.K.RPC.Retries)
	fmt.Fprintf(w, "  IPI work deferred by the logical mask: %d\n", sys.K.Gate.Deferred)
	fmt.Fprintf(w, "  elapsed: %v simulated\n", res.Elapsed)
	if st != nil {
		fmt.Fprintf(w, "  migrations: %d (%d words copied, %.1fus charged)\n",
			res.Stats.Migrations, res.Stats.MigratedWords,
			float64(res.Stats.MigrationCycles)/sim.CyclesPerMicrosecond)
	}
	planeLog(w, st)
	controllerLogs(w, sys.K)

	// Memory-system hot spots (windowed: the window opened at machine
	// construction, so this covers the whole run), set off from any log.
	if st != nil || len(sys.K.Controllers()) > 0 {
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "  busiest memory modules:")
	now := sys.M.Eng.Now()
	for i := 0; i < sys.M.NumProcs(); i++ {
		r := sys.M.Mem.Module(i)
		if u := r.WindowUtilization(now); u > 0.10 {
			fmt.Fprintf(w, "    module %-2d  %4.0f%% busy, worst queue %v\n", i, u*100, r.MaxQueue)
		}
	}
	return sys.M
}

// controllerLogs prints the decision log of each tuned kernel lock's
// controller (none unless the kernel's locks are tuned).
func controllerLogs(w io.Writer, k *kernel.Kernel) {
	for i, ctl := range k.Controllers() {
		fmt.Fprintln(w)
		fmt.Fprint(w, tunerLog(fmt.Sprintf("kernel lock controller %d", i), ctl))
	}
}

// tunerLog renders one tuned lock's decision log under a title naming the
// lock and its final state.
func tunerLog(name string, c *tune.Controller) string {
	return autonomic.Render(fmt.Sprintf("%s: %d windows, %d mode switches; final mode %s, cap %gus, head %gus",
		name, c.Samples(), c.Switches(), c.Mode(), c.BackoffCap().Microseconds(), c.HeadBackoff().Microseconds()),
		c.Decisions())
}

// planeLog prints the autonomics plane's schedule, then the decision log
// of each data policy that ran (nothing without a stack).
func planeLog(w io.Writer, st *placement.Stack) {
	if st == nil {
		return
	}
	pl := st.Plane
	names := pl.Names()
	fmt.Fprintf(w, "\nautonomics plane: %d windows every %v, %d policies [%s]\n",
		pl.Ticks(), pl.Period(), len(names), strings.Join(names, " -> "))
	if st.Replicator != nil {
		fmt.Fprint(w, autonomic.Render(fmt.Sprintf("replication policy: %d windows", pl.Ticks()), st.Replicator.Actions()))
	}
	if st.Daemon != nil {
		fmt.Fprint(w, autonomic.Render(fmt.Sprintf("placement daemon: %d windows", pl.Ticks()), st.Daemon.Moves()))
	}
}
