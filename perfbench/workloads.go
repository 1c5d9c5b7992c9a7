package main

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/stats"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
	"hurricane/internal/workload"
)

// size scales the workloads. fullSize is what the benchmark measures;
// tests run smaller ones, and a zero size is a set-up probe (the system is
// built and its processors started, but do no measured work).
type size struct {
	convoyRounds, convoyWarmup int
	faultRounds                int
	serverHorizonMS            int
}

// The sizes, with each workload's sims, are set so that every simulated
// metric moves by only a few percent from one seed to the next.
var fullSize = size{convoyRounds: 3, convoyWarmup: 1, faultRounds: 600, serverHorizonMS: 1000}

// scenario is one benchmark workload.
type scenario struct {
	name string
	// tail is the percentile sim_tail_us reports: a high one that still has
	// at least ten samples beyond it at full size. It is fixed per
	// workload so a change cannot move which percentile is compared.
	tail float64
	// sims is how many simulations, at seeds derived from the benchmark's
	// seed, one repetition pools. A tail is set by what happens once per
	// simulation (the server's flash crowd, the convoy's start from a
	// barrier), so only independent simulations average it out; a longer
	// one only lengthens the event.
	sims int
	// run performs one simulation. tr, when non-nil, traces every machine
	// it builds.
	run func(seed uint64, sz size, tr *tracing) *rep
}

var workloads = map[string]*scenario{
	"spin_convoy":   {name: "spin_convoy", tail: 99.5, sims: 4, run: runConvoy},
	"fault_path":    {name: "fault_path", tail: 99.9, sims: 1, run: runFaults},
	"tenant_server": {name: "tenant_server", tail: 99.9, sims: 8, run: runServer},
}

func workloadNames() []string {
	var ns []string
	for n := range workloads {
		ns = append(ns, n)
	}
	sort.Strings(ns)
	return ns
}

// repeat performs one repetition: the workload's simulations, pooled. The
// first runs at seed itself.
func (w *scenario) repeat(seed uint64, sz size, tr *tracing) *rep {
	var r *rep
	for i := 0; i < w.sims; i++ {
		if tr != nil {
			tr.sink.restart()
		}
		s := w.run(seed+uint64(i)*0x9e3779b97f4a7c15, sz, tr)
		if r == nil {
			r = s
		} else {
			r.add(s)
		}
	}
	if tr != nil {
		h := tr.sink.holds
		r.check(h.violations == 0, "lock.hold spans overlap %d times; first: %s", h.violations, h.first)
	}
	return r
}

// rep is the outcome of one simulation, or of a repetition's pooled
// simulations: the simulated results, the host-clock readings around
// their synchronous phases, and the layers' counters.
type rep struct {
	// lat holds the unit operation's simulated latency in µs: a lock
	// acquire, a page fault, or a request's sojourn from its scheduled
	// arrival.
	lat *stats.Dist
	// simMS is the simulated time, in ms, the unit operations ran over.
	simMS float64
	// attempted counts unit operations; shed counts requests the server
	// dropped at admission or abandoned past their deadline.
	attempted, shed uint64
	// problems lists failed correctness checks.
	problems []string
	// extra is a workload-specific fingerprint of simulated results.
	extra string

	// setup is the host time from the start of the simulation to the
	// point its simulated processors are about to run; wall is the host
	// time from there until the simulation has returned.
	setup, wall    time.Duration
	events, elided uint64
	// alloc is the bytes allocated during wall; heap the live heap after a
	// forced collection at its end, while the system is still referenced.
	alloc, heap uint64

	c counts
	t time.Time
}

func (r *rep) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// add pools another simulation's outcome into r.
func (r *rep) add(o *rep) {
	r.lat = merge(r.lat, o.lat)
	r.simMS += o.simMS
	r.attempted += o.attempted
	r.shed += o.shed
	r.problems = append(r.problems, o.problems...)
	r.extra += "\n" + o.extra
	r.setup += o.setup
	r.wall += o.wall
	r.events += o.events
	r.elided += o.elided
	r.alloc += o.alloc
	r.heap = max(r.heap, o.heap)
	r.c.add(&o.c)
}

// beginSetup starts the simulation's clock on a freshly collected heap.
func (r *rep) beginSetup() {
	runtime.GC()
	r.t = time.Now()
}

// beginRun ends set-up and starts the measured phase. It runs
// synchronously, before any simulated processor has started.
func (r *rep) beginRun() {
	r.setup = time.Since(r.t)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc
	r.events, r.elided = sim.TotalEvents()
	r.t = time.Now()
}

// endRun ends the measured phase once the simulation has returned.
func (r *rep) endRun() {
	r.wall = time.Since(r.t)
	d, e := sim.TotalEvents()
	r.events, r.elided = d-r.events, e-r.elided
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - r.alloc
	runtime.GC()
	runtime.ReadMemStats(&ms)
	r.heap = ms.HeapAlloc
}

// fingerprint renders every simulated result of the repetition. Two
// repetitions at one seed, traced or not, must render identically.
func (r *rep) fingerprint(tail float64) string {
	return fmt.Sprintf("n=%d p50=%v p99=%v tail=%v mean=%v max=%v simMS=%v attempted=%d shed=%d events=%d elided=%d\n%s",
		r.lat.N(), r.lat.Percentile(50), r.lat.Percentile(99), r.lat.Percentile(tail), r.lat.Mean(), r.lat.Max(),
		r.simMS, r.attempted, r.shed, r.events, r.elided, r.extra)
}

// counts holds what the per-layer metrics read from the simulated
// layers, taken when a simulation ends and summed over a repetition's
// simulations, so that no simulated system outlives its simulation.
type counts struct {
	homeUtil, ringUtil       float64 // busiest module's and ring's windowed utilisation
	queued                   sim.Duration
	requests, replicaUpdates uint64

	acquires, handoffs, nearHandoffs uint64
	depthSum                         float64 // queue depth, summed over samples
	depthN                           int

	faults, retries, coherence, rpcCalls uint64
	switches                             uint64

	server                      bool
	offered, dropped, abandoned uint64
	classes                     [2]*stats.Dist // read-mostly, write-hot tenants' sojourns (µs)

	windows                             uint64
	windowHost                          time.Duration // host time of the plane's policies
	migrations, replications, collapses int
}

func (c *counts) machine(m *sim.Machine) {
	now := m.Eng.Now()
	m.Mem.Resources(func(res *sim.Resource) {
		u := res.WindowUtilization(now)
		switch {
		case strings.HasPrefix(res.Name, "module"):
			c.homeUtil = max(c.homeUtil, u)
		case strings.HasPrefix(res.Name, "ring"):
			c.ringUtil = max(c.ringUtil, u)
		}
		c.queued += res.Queued
		c.requests += res.Requests
	})
	c.replicaUpdates += m.Mem.ReplicaUpdates
}

func (c *counts) lock(l *locks.Stats) {
	c.acquires += l.Acquisitions
	c.handoffs += l.HandoffTotal()
	c.nearHandoffs += l.Handoffs[sim.DistLocal] + l.Handoffs[sim.DistStation]
	c.depthSum += l.QueueDepth.Mean() * float64(l.QueueDepth.N())
	c.depthN += l.QueueDepth.N()
}

func (c *counts) kernel(k *kernel.Kernel) {
	c.faults += k.Stats.Faults
	c.retries += k.RPC.Retries + k.Stats.DestroyRetries + k.Stats.MsgRetries
	c.coherence += k.Stats.CoherenceRPCs
	c.rpcCalls += k.RPC.Calls
}

func (c *counts) add(o *counts) {
	c.homeUtil = max(c.homeUtil, o.homeUtil)
	c.ringUtil = max(c.ringUtil, o.ringUtil)
	c.queued += o.queued
	c.requests += o.requests
	c.replicaUpdates += o.replicaUpdates
	c.acquires += o.acquires
	c.handoffs += o.handoffs
	c.nearHandoffs += o.nearHandoffs
	c.depthSum += o.depthSum
	c.depthN += o.depthN
	c.faults += o.faults
	c.retries += o.retries
	c.coherence += o.coherence
	c.rpcCalls += o.rpcCalls
	c.switches += o.switches
	c.offered += o.offered
	c.dropped += o.dropped
	c.abandoned += o.abandoned
	for i := range c.classes {
		if o.classes[i] != nil {
			c.classes[i] = merge(c.classes[i], o.classes[i])
		}
	}
	c.windows += o.windows
	c.windowHost += o.windowHost
	c.migrations += o.migrations
	c.replications += o.replications
	c.collapses += o.collapses
}

// spin_convoy: NUMAchine-256, every processor contending one Spin-35us
// lock on module 0 with a 25 µs hold — the remote-spinning convoy.
const convoyProcs = 256

var convoyHold = sim.Micros(25)

func runConvoy(seed uint64, sz size, tr *tracing) *rep {
	r := &rep{}
	ex := &exclusive{holder: -1}
	cfg := workload.StressConfig{
		Machine: machine.NUMAchine256(seed),
		MakeLock: func(m *sim.Machine, home int) locks.Lock {
			ex.Lock = locks.New(m, locks.KindSpin, home)
			return ex
		},
		Procs:  convoyProcs,
		Rounds: sz.convoyRounds,
		Warmup: sz.convoyWarmup,
		Hold:   convoyHold,
		Attach: func(*workload.LockStressObserved) { r.beginRun() },
	}
	if tr != nil {
		cfg.Tracer = tr.install(trace.NewAggregate(convoyProcs))
		tr.sink.gated = true
	}
	r.beginSetup()
	res := workload.LockStressRun(cfg)
	r.endRun()

	want := convoyProcs * sz.convoyRounds
	r.lat = res.AcquireDist
	r.simMS = (res.WindowEnd - res.WindowStart).Microseconds() / 1000
	r.attempted = uint64(want)
	r.extra = fmt.Sprintf("pair=%v acquire=%v", res.PairUS, res.AcquireUS)
	r.check(ex.violations == 0, "mutual exclusion: %d overlapping holds of the convoy lock", ex.violations)
	r.check(res.AcquireDist.N() == want && res.Lock.Acquisitions == uint64(want),
		"acquire count: %d samples, %d acquisitions, want %d", res.AcquireDist.N(), res.Lock.Acquisitions, want)
	r.c.machine(res.M)
	r.c.lock(res.Lock)
	return r
}

// fault_path: HECTOR-16 in clusters of 4 with H2-MCS coarse locks, running
// the paper's independent-fault (Fig. 6a/7a) and shared-fault (Fig. 6b/7b)
// tests with 16 processes on fresh systems.
const (
	faultProcs = 16
	faultPages = 4
)

func faultSystem(seed uint64, tr *tracing) *core.System {
	cfg := core.Config{Machine: machine.Hector16(seed), ClusterSize: 4, LockKind: locks.KindH2MCS}
	if tr != nil {
		cfg.Tracer = tr.install(trace.NewAggregate(faultProcs))
	}
	return core.NewSystem(cfg)
}

func runFaults(seed uint64, sz size, tr *tracing) *rep {
	r := &rep{}
	r.beginSetup()
	ind := faultSystem(seed, tr)
	shr := faultSystem(seed, tr)
	r.beginRun()
	mm := append(wrapMM(ind, "independent"), wrapMM(shr, "shared")...)
	a := workload.IndependentFaults(ind, faultProcs, faultPages, sz.faultRounds)
	b := workload.SharedFaults(shr, faultProcs, faultPages, sz.faultRounds)
	r.endRun()

	// Each process warms its tables with one unmeasured fault per test.
	wantA, wantB := faultProcs*sz.faultRounds, faultProcs*faultPages*sz.faultRounds
	r.check(a.Dist.N() == wantA && a.Stats.Faults == uint64(wantA+faultProcs),
		"independent faults: %d measured, %d handled, want %d+%d", a.Dist.N(), a.Stats.Faults, wantA, faultProcs)
	r.check(b.Dist.N() == wantB && b.Stats.Faults == uint64(wantB+faultProcs),
		"shared faults: %d measured, %d handled, want %d+%d", b.Dist.N(), b.Stats.Faults, wantB, faultProcs)
	r.lat = merge(a.Dist, b.Dist)
	r.simMS = (a.Elapsed + b.Elapsed).Microseconds() / 1000
	r.attempted = uint64(wantA + wantB)
	r.extra = fmt.Sprintf("independent %+v\nshared %+v replications=%d", a.Stats, b.Stats, b.Replications)
	for _, sys := range []*core.System{ind, shr} {
		r.c.machine(sys.M)
		r.c.kernel(sys.K)
	}
	for _, l := range mm {
		r.c.lock(l)
	}
	return r
}

// tenant_server: the open-loop multi-tenant server on HECTOR-16 with the
// tenant mix of the autonomics sweep's combined row and the server
// sweep's 800 µs SLO: Tuned kernel locks, and the tune, migrate and
// replicate policies on one 100 µs plane fed by a trace.Aggregate.
const serverWorkers = 16

func serverArrivals(horizonMS int) workload.ArrivalSpec {
	return workload.ArrivalSpec{
		MeanGap:     sim.Micros(180),
		Horizon:     sim.Micros(float64(horizonMS) * 1000),
		BurstFactor: 3,
		OnMean:      sim.Micros(400),
		OffMean:     sim.Micros(800),
		RampFrom:    0.8, RampTo: 1.2,
		FlashAt: 0.55, FlashFor: 0.15, FlashFactor: 2.5,
	}
}

// writeHot marks every fourth tenant rank as write-hot; the rest are
// read-mostly.
func writeHot(rank int) bool { return rank%4 == 0 }

func serverConfig(seed uint64, sz size) workload.ServerConfig {
	return workload.ServerConfig{
		Machine:         machine.Hector16(seed),
		ClusterSize:     4,
		LockKind:        locks.KindTuned,
		Tenants:         16,
		ZipfS:           1.0,
		Arrivals:        serverArrivals(sz.serverHorizonMS),
		Warmup:          sim.Micros(2000),
		QueueLimit:      16 * serverWorkers,
		Deadline:        sim.Micros(800),
		ChurnEvery:      8,
		Migratable:      true,
		TenantDataWords: 128,
		TenantTouch:     128,
		TenantWriteFrac: func(rank int) float64 {
			if writeHot(rank) {
				return 0.75
			}
			return 0.02
		},
		// Write-hot tenants are served by one cluster's workers, not the
		// cluster their data starts on.
		TenantAffinity: func(rank int) int {
			if writeHot(rank) {
				return (rank/4 + 1) % 4
			}
			return -1
		},
	}
}

func runServer(seed uint64, sz size, tr *tracing) *rep {
	r := &rep{}
	topo := autonomic.Topo{Stations: 4, ProcsPerStation: 4}
	agg := trace.NewAggregate(topo.Modules())
	plane := autonomic.NewPlane(sim.Micros(100))
	wt := &windowTimer{}
	// The tune samplers join the plane while the kernel is built, so the
	// opening marker goes first now and the closing one last in Attach.
	plane.Add(windowOpen{wt})
	cfg := serverConfig(seed, sz)
	cfg.Tracer = agg
	if tr != nil {
		cfg.Tracer = tr.install(agg)
	}
	cfg.TuneParams = &tune.Params{Plane: plane}
	var mm []*locks.Stats
	var replica *autonomic.Replicator
	var daemon *placement.Daemon
	cfg.Attach = func(sys *core.System) {
		mm = wrapMM(sys, "server")
		costs := autonomic.CostsFromLatency(sys.M.Lat())
		replica = autonomic.NewReplicator(sys.M, topo, costs,
			autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, Confirm: 3, Payback: 48},
			placement.ReplicateKernel(sys.K, agg))
		plane.Add(replica)
		dp := placement.DaemonParams{Decay: 0.9, MinWeight: 2, Confirm: 6, Improve: 0.25, Budget: 2,
			Yield: replica.Claimed}
		daemon = placement.NewDaemon(sys.M, agg, topo, costs, dp, placement.ManageKernel(sys.K))
		plane.Add(daemon)
		plane.Add(windowClose{wt})
		plane.Start(sys.M.Eng)
		r.beginRun()
	}
	r.beginSetup()
	res := workload.ServerRun(cfg)
	r.endRun()

	if err := conservation(res); err != nil {
		r.problems = append(r.problems, err.Error())
	}
	r.lat = res.Lat
	r.simMS = (res.Elapsed - sim.Time(cfg.Warmup)).Microseconds() / 1000
	r.attempted = res.Offered
	r.shed = res.Dropped + res.Abandoned
	r.extra = res.Fingerprint()
	c := &r.c
	c.server = true
	c.offered, c.dropped, c.abandoned = res.Offered, res.Dropped, res.Abandoned
	c.classes = [2]*stats.Dist{{}, {}}
	for rank, t := range res.Tenants {
		class := c.classes[0]
		if writeHot(rank) {
			class = c.classes[1]
		}
		for _, x := range samples(t.Lat) {
			class.Add(x)
		}
	}
	c.machine(res.Sys.M)
	c.kernel(res.Sys.K)
	// The kernel's tuned locks, and the memory-manager ones wrapped above.
	tuners := res.Sys.K.Controllers()
	for _, l := range mm {
		c.lock(l)
		tuners = append(tuners, l.Inner().(named).Lock.(*locks.Tuned).Controller())
	}
	for _, t := range tuners {
		c.switches += uint64(t.Switches())
	}
	c.windows = plane.Ticks()
	c.windowHost = wt.total
	c.migrations = len(daemon.Moves())
	for _, a := range replica.Actions() {
		if a.Kind == "collapse" {
			c.collapses++
		} else {
			c.replications++
		}
	}
	return r
}

// wrapMM puts locks.Stats telemetry around each cluster's memory-manager
// lock — the fault path's coarse lock — under a per-cluster name, so its
// wait and hold spans reach the trace and the hold-overlap check can tell
// the clusters apart. The wrapper charges no simulated time.
func wrapMM(sys *core.System, label string) []*locks.Stats {
	var ss []*locks.Stats
	for c := 0; c < sys.K.Topo.N; c++ {
		s := locks.NewStats(sys.M, named{sys.K.VM.MMLock(c), fmt.Sprintf("%s.mm%d", label, c)})
		sys.K.VM.SetMMLock(c, s)
		ss = append(ss, s)
	}
	return ss
}

// named renames a lock.
type named struct {
	locks.Lock
	name string
}

func (n named) Name() string { return n.name }

// samples returns d's samples in ascending order. Percentile is
// nearest-rank, so the rank-j sample is the percentile half a rank below
// j/n, which no rounding can push to a neighbouring rank.
func samples(d *stats.Dist) []float64 {
	n := d.N()
	xs := make([]float64, n)
	for j := 1; j <= n; j++ {
		xs[j-1] = d.Percentile(100 * (float64(j) - 0.5) / float64(n))
	}
	return xs
}

// merge pools two distributions' samples.
func merge(a, b *stats.Dist) *stats.Dist {
	m := &stats.Dist{}
	for _, d := range []*stats.Dist{a, b} {
		for _, x := range samples(d) {
			m.Add(x)
		}
	}
	return m
}

// windowTimer brackets each autonomics-plane window with two marker
// policies, registered first and last, to time the policies between them
// on the host clock. The markers charge no simulated time.
type windowTimer struct {
	start time.Time
	total time.Duration
}

type windowOpen struct{ w *windowTimer }

func (windowOpen) Name() string    { return "bench.open" }
func (o windowOpen) Tick(sim.Time) { o.w.start = time.Now() }

type windowClose struct{ w *windowTimer }

func (windowClose) Name() string    { return "bench.close" }
func (c windowClose) Tick(sim.Time) { c.w.total += time.Since(c.w.start) }
