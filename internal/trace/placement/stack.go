package placement

import (
	"hurricane/internal/autonomic"
	"hurricane/internal/kernel"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/tune"
)

// Row selects one constants set of the autonomics plane. Each row is named
// after the experiment that owns its numbers; a CLI mode picks the row of
// the experiment it illustrates, so the CLIs reproduce the tables.
type Row int

const (
	// RowDefaults is every package default: exp.ServerSweep's Tuned+mig
	// row, lockstat's stress path, and lockstat -run server -migrate.
	RowDefaults Row = iota
	// RowServer is exp.AutonomicSweep's, and lockstat -run server
	// -autonomic's.
	RowServer
	// RowFault is exp.PlacementOnline's, and lockstat -run
	// independent|shared -migrate and -autonomic's.
	RowFault
)

// rows is the one table of autonomics constants: per row, its name, the
// plane period and the data policies' parameters. Zero values take the
// package defaults (a 100us plane); the stack wires Exec and Yield.
var rows = [...]struct {
	name   string
	period sim.Duration
	daemon DaemonParams
	rep    autonomic.ReplicatorParams
}{
	RowDefaults: {name: "defaults"},
	// One 100us cadence for every policy — the tuner's calibrated window
	// (a faster plane would re-tune the tuner), and long enough that the
	// replicator's smoothed write fraction spans many requests per tenant
	// (Decay 0.95 ≈ a 2ms horizon; a sub-request horizon would classify
	// each tenant by its last request, not its mix). The daemon waits six
	// windows and a 25% gain before it moves, and moves a slot at most
	// twice.
	RowServer: {"server", sim.Micros(100),
		DaemonParams{Decay: 0.9, MinWeight: 2, Confirm: 6, Improve: 0.25, Budget: 2},
		autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, Confirm: 3, Payback: 48}},
	// Sampling fast (25us against a ~200us fault) so a placement mistake
	// is noticed within one fault; smoothing over a ~250us horizon (Decay
	// 0.9 at this cadence) so no single fault's burst dominates the
	// vector; MinWeight low enough that even the scratch slots' ~1
	// access/window steady rate clears it; and three confirming windows
	// before any copy. The daemon's cooldown is eight of these windows.
	// The server row's thresholds make no replication at all on the
	// 4-processor fault run (lockstat -run independent -size 16 -procs 4
	// -autonomic: 0 actions against this row's 6), hence a row of its own.
	RowFault: {"fault", sim.Micros(25),
		DaemonParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3, Cooldown: sim.Micros(200)},
		autonomic.ReplicatorParams{Decay: 0.9, MinWeight: 0.25, Confirm: 3}},
}

// String returns the row's name.
func (r Row) String() string { return rows[r].name }

// Policies selects the controllers that run on the plane: the tuned locks'
// samplers (Tune; see TuneParams), the placement daemon (Migrate) and the
// replication policy (Replicate).
type Policies struct{ Tune, Migrate, Replicate bool }

// Stack is the autonomics plane wired for one machine: the live aggregate
// the data policies read, the one plane that ticks every policy, and the
// policies themselves. Build it before the machine (NewStack), install
// Tracer and TuneParams in the machine's config, then Attach once the
// machine exists.
type Stack struct {
	// Agg is the live access aggregate; it must be in the machine's tracer
	// chain (see Tracer).
	Agg *trace.Aggregate
	// Plane ticks every policy; nil when no policy runs.
	Plane *autonomic.Plane
	// Daemon and Replicator are set by Attach when their policy runs.
	Daemon     *Daemon
	Replicator *autonomic.Replicator

	row   Row
	pol   Policies
	topo  autonomic.Topo
	costs autonomic.Costs
}

// NewStack builds the stack for a machine configured by cfg (zero fields
// defaulted as sim.NewMachine defaults them), with the constants of row
// and the policies of pol. The aggregate is sized to the machine, and the
// policies price accesses at cfg's latencies.
func NewStack(cfg sim.Config, row Row, pol Policies) *Stack {
	cfg = cfg.WithDefaults()
	topo := autonomic.Topo{Stations: cfg.Stations, ProcsPerStation: cfg.ProcsPerStation}
	s := &Stack{
		Agg:   trace.NewAggregate(topo.Modules()),
		row:   row,
		pol:   pol,
		topo:  topo,
		costs: autonomic.CostsFromLatency(cfg.Lat),
	}
	if pol.Tune || pol.Migrate || pol.Replicate {
		s.Plane = autonomic.NewPlane(rows[row].period)
	}
	return s
}

// Analyze runs the offline placement analyzer over the stack's aggregate,
// with the machine's topology and costs.
func (s *Stack) Analyze() *Report { return Analyze(s.Agg, s.topo, s.costs) }

// Tracer returns the sink chain to install on the machine: the aggregate
// alone, or chrome first and then the aggregate when chrome is non-nil.
func (s *Stack) Tracer(chrome *trace.Chrome) sim.Tracer {
	if chrome == nil {
		return s.Agg
	}
	return trace.NewPipeline(chrome, s.Agg)
}

// TuneParams returns the tuned locks' parameters: on the plane when the
// Tune policy runs, self-scheduled otherwise.
func (s *Stack) TuneParams() tune.Params {
	if !s.pol.Tune {
		return tune.Params{}
	}
	return tune.Params{Plane: s.Plane}
}

// Attach builds the data policies on machine m over the given slots,
// registers the replicator before the daemon (the daemon yields every slot
// the replicator claims, so read-mostly data is copied rather than
// shuffled), and starts the plane. exec, when non-nil, picks the processor
// that executes every actuation.
func (s *Stack) Attach(m *sim.Machine, exec func(home int) int, migrate []DaemonSlot, replicate []autonomic.ReplicaSlot) {
	if s.Plane == nil {
		return
	}
	if s.pol.Replicate {
		rp := rows[s.row].rep
		rp.Exec = exec
		s.Replicator = autonomic.NewReplicator(m, s.topo, s.costs, rp, replicate)
		s.Plane.Add(s.Replicator)
	}
	if s.pol.Migrate {
		dp := rows[s.row].daemon
		dp.Exec = exec
		if s.Replicator != nil {
			dp.Yield = s.Replicator.Claimed
		}
		s.Daemon = NewDaemon(m, s.Agg, s.topo, s.costs, dp, migrate)
		s.Plane.Add(s.Daemon)
	}
	s.Plane.Start(m.Eng)
}

// AttachKernel attaches over kernel k's migratable data slots.
func (s *Stack) AttachKernel(m *sim.Machine, k *kernel.Kernel) {
	s.Attach(m, nil, ManageKernel(k), ReplicateKernel(k, s.Agg))
}

// AttachRegion attaches over one raw memory region of m, under the given
// name: the daemon migrates it (collapsing any replicas first, as the
// kernel's slot migration does) and the replicator copies it, both
// straight through m's memory system.
func (s *Stack) AttachRegion(m *sim.Machine, exec func(home int) int, name string, region int) {
	mem := m.Mem
	s.Attach(m, exec,
		[]DaemonSlot{{Name: name, Region: region, Migrate: func(p *sim.Proc, to int) {
			if mem.Replicated(region) {
				mem.CollapseRegion(region)
			}
			mem.MigrateRegion(p, region, to)
		}}},
		[]autonomic.ReplicaSlot{{
			Name:      name,
			Region:    region,
			Reads:     func() []uint64 { return s.Agg.RegionReads[region] },
			Writes:    func() []uint64 { return s.Agg.RegionWrites[region] },
			Replicate: func(p *sim.Proc, to int) { mem.ReplicateRegion(p, region, to) },
			Collapse:  func(*sim.Proc) { mem.CollapseRegion(region) },
		}})
}

// Decisions returns the data policies' decision logs as one: the
// replicator's, then the daemon's. Callers count actions by Kind.
func (s *Stack) Decisions() []autonomic.Decision {
	var ds []autonomic.Decision
	if s.Replicator != nil {
		ds = append(ds, s.Replicator.Actions()...)
	}
	if s.Daemon != nil {
		ds = append(ds, s.Daemon.Moves()...)
	}
	return ds
}
