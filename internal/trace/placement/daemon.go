package placement

import (
	"fmt"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/kernel"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
)

// DaemonParams bounds the online placement controller. The zero value takes
// defaults. The controller shape deliberately mirrors internal/tune's lock
// tuner: a fixed sampling cadence (the autonomics plane's daemon events,
// zero simulated cost), EWMA smoothing of the windowed signal so one-window
// bursts cannot trigger action, and a hysteresis/indifference band plus
// hard budgets so the feedback loop cannot thrash. A move must also repay
// its copy within a fixed 64-window payback horizon.
type DaemonParams struct {
	// Decay is the per-window EWMA retention of the smoothed access
	// vectors (default 0.75, a ~4-window horizon — the same constant tune
	// uses for its wait and utilization signals, and for the same reason:
	// per-window NUMA traffic is bursty, and decisions taken on raw
	// windows flap).
	Decay float64
	// MinWeight is the smoothed per-window access mass a slot must carry
	// before the daemon will consider moving it (default 16). Cold slots
	// are never touched: a move's copy charge can only be repaid by
	// traffic that exists.
	MinWeight float64
	// Improve is the indifference band: a move happens only when the
	// current home's projected cost exceeds the best candidate's by more
	// than this fraction (default 0.10 — wider than the offline analyzer's
	// 2%, because an online move charges real copy traffic and a marginal
	// improvement cannot repay it).
	Improve float64
	// Budget caps how many times one slot may move over the whole run
	// (default 4). With hysteresis this is belt-and-braces; it also bounds
	// worst-case migration traffic for an adversarial workload.
	Budget int
	// Confirm is how many consecutive windows the same destination must win
	// before the move executes (default 2). A burst shorter than Confirm
	// plane periods — one processor's single fault, say — can nominate a
	// destination but never confirm it, so only sustained shifts move data.
	Confirm int
	// Cooldown is the minimum time between two moves of the same slot
	// (default 800us, eight windows of the default 100us plane), so an
	// oscillating workload at most flips a slot once per cooldown until the
	// budget runs out.
	Cooldown sim.Duration
	// Yield, when non-nil, marks regions another policy has claimed: the
	// daemon folds their windows but never moves them. On a shared
	// autonomics plane this is wired to the replication policy's Claimed,
	// so a read-mostly slot the replicator is about to copy is never
	// shuffled by the migrator first (nil: the daemon only defers to
	// already-installed replicas).
	Yield func(region int) bool
	// Exec picks the processor that executes a move, given the slot's
	// current physical home. Default: the processor co-located with the
	// home (processor and module numbers coincide on HECTOR). Override
	// when not every processor runs (lockstat's stress loop).
	Exec func(home int) int
}

// payback is the rent-vs-buy horizon, in windows: a move executes only if
// its projected per-window saving repays the copy's estimated cost (region
// words × the ring access weight) within payback windows. This is what
// keeps large slots from chasing small improvements — the copy grows with
// the slot, the saving does not — while leaving small slots cheap to
// re-home.
const payback = 64

func (p DaemonParams) withDefaults() DaemonParams {
	if p.Decay == 0 {
		p.Decay = 0.75
	}
	if p.MinWeight == 0 {
		p.MinWeight = 16
	}
	if p.Improve == 0 {
		p.Improve = 0.10
	}
	if p.Budget == 0 {
		p.Budget = 4
	}
	if p.Confirm == 0 {
		p.Confirm = 2
	}
	if p.Cooldown == 0 {
		p.Cooldown = sim.Micros(800)
	}
	return p
}

// DaemonSlot is one migratable object under daemon management.
type DaemonSlot struct {
	// Name labels the slot in the move log.
	Name string
	// Region is the slot's sim memory region id; the live aggregate's
	// RegionAccess vector for it is the daemon's control signal.
	Region int
	// Migrate performs the move on processor p. It may defer through an
	// interrupt gate; the daemon detects completion by watching the
	// region's physical home, not by callback.
	Migrate func(p *sim.Proc, to int)
}

// Move records one executed (requested) migration.
type Move struct {
	Slot     string
	From, To int
	At       sim.Time
}

// Daemon is the online placement controller: at every plane tick it diffs
// the live aggregate's per-region access vectors into a window, EWMA-smooths
// them, asks the analyzer's propose() for a ring-minimizing home against
// the machine's cost model, and — when the improvement clears the Improve
// band and the slot has budget and cooldown headroom — executes the move by
// interrupting the processor co-located with the slot's current home. The
// migration itself (copy burst + brief migration lock) is charged by the
// kernel's MigrateSlot path; the daemon's own observation and decision
// cycle costs no simulated time, so a daemon that never finds a
// worthwhile move leaves the run bit-identical.
type Daemon struct {
	m     *sim.Machine
	agg   *trace.Aggregate
	topo  autonomic.Topo
	costs autonomic.Costs
	p     DaemonParams
	slots []*slotState
	moves []Move
	ticks uint64
}

type slotState struct {
	DaemonSlot
	snap   []uint64         // cumulative vector at last tick
	smooth []float64        // EWMA of windowed diffs
	gate   autonomic.Gate   // per-slot move budget + cooldown
	target int              // requested home of an in-flight move, -1 when idle
	streak autonomic.Streak // destination confirmation across windows
}

// NewDaemon builds a daemon over machine m, observing the live aggregate
// agg (which must be installed as the machine's tracer) and managing the
// given slots. Register it on an autonomic.Plane to begin sampling; Stack
// does both.
func NewDaemon(m *sim.Machine, agg *trace.Aggregate, topo autonomic.Topo, costs autonomic.Costs, params DaemonParams, slots []DaemonSlot) *Daemon {
	d := &Daemon{m: m, agg: agg, topo: topo, costs: costs, p: params.withDefaults()}
	n := agg.Modules()
	for _, s := range slots {
		d.slots = append(d.slots, &slotState{
			DaemonSlot: s,
			snap:       make([]uint64, n),
			smooth:     make([]float64, n),
			gate:       autonomic.Gate{Budget: d.p.Budget, Cooldown: d.p.Cooldown},
			target:     -1,
			streak:     autonomic.NewStreak(d.p.Confirm),
		})
	}
	return d
}

// Params returns the defaulted parameters.
func (d *Daemon) Params() DaemonParams { return d.p }

// Moves returns the move log (oldest first).
func (d *Daemon) Moves() []Move { return d.moves }

// SlotMoves reports how many times the named slot has moved.
func (d *Daemon) SlotMoves(name string) int {
	for _, s := range d.slots {
		if s.Name == name {
			return s.gate.Used()
		}
	}
	return 0
}

// Name implements autonomic.Policy.
func (d *Daemon) Name() string { return "migrate" }

// Tick implements autonomic.Policy: one observation window. The plane's
// daemon event neither consumes simulated time nor keeps the run alive, so
// the only feedback path into the simulation is the migrations the daemon
// requests.
func (d *Daemon) Tick(now sim.Time) {
	d.ticks++
	n := d.topo.Modules()
	if m := d.agg.Modules(); m < n {
		n = m
	}
	// Projected per-module load for propose()'s tie-breaking, from the
	// cumulative physical access matrix.
	load := make([]float64, n)
	for i := 0; i < n; i++ {
		load[i] = float64(d.agg.AccessTotal(i))
	}
	for _, s := range d.slots {
		// Fold this window into the EWMA even when the slot cannot move
		// right now — the signal must stay fresh for when it can.
		vec := d.agg.RegionAccess[s.Region]
		for i := range s.smooth {
			var cur uint64
			if vec != nil {
				cur = vec[i]
			}
			w := float64(cur - s.snap[i])
			s.snap[i] = cur
			s.smooth[i] = d.p.Decay*s.smooth[i] + (1-d.p.Decay)*w
		}
		home := d.m.Mem.Home(s.Region)
		if s.target >= 0 {
			if home != s.target {
				continue // move still in flight (deferred behind a gate)
			}
			s.target = -1
		}
		// A replicated slot belongs to the replication policy until it
		// collapses back to one copy: migrating the primary under live
		// replicas is not a defined operation. A claimed one (Yield) is
		// spoken for the same way before the first copy even lands.
		if d.m.Mem.Replicated(s.Region) {
			continue
		}
		if d.p.Yield != nil && d.p.Yield(s.Region) {
			s.streak.Clear()
			continue
		}
		if !s.gate.Ready(now) {
			continue
		}
		var weight float64
		ivec := make([]uint64, len(s.smooth))
		for i, v := range s.smooth {
			weight += v
			// Fixed-point (1/16 access) so propose() keeps the EWMA's
			// fractional resolution.
			ivec[i] = uint64(v*16 + 0.5)
		}
		if weight < d.p.MinWeight {
			continue
		}
		prop := propose(s.Name, home, ivec, d.topo, d.costs, load, d.p.Improve)
		if prop.Moved() {
			// Rent vs buy: the per-window saving (undo the fixed-point
			// scale) must repay the copy within the payback horizon.
			benefit := (prop.CurCost - prop.NewCost) / 16
			copyCost := float64(d.m.Mem.RegionWords(s.Region)) * d.costs.Ring
			if !autonomic.Worthwhile(benefit, payback, copyCost) {
				prop.Proposed = prop.Home
			}
		}
		if !prop.Moved() {
			s.streak.Clear()
			continue
		}
		if !s.streak.Observe(prop.Proposed) {
			continue
		}
		s.streak.Clear()
		to := prop.Proposed
		s.target = to
		s.gate.Spend(now)
		// Shift the slot's cumulative traffic in the projected-load vector
		// so the next slot this tick sees it and near-tied candidates
		// spread instead of piling up (mirrors Analyze's assignment loop).
		var slotTotal float64
		for _, c := range s.snap {
			slotTotal += float64(c)
		}
		load[to] += slotTotal
		if home < n {
			load[home] -= slotTotal
		}
		d.moves = append(d.moves, Move{Slot: s.Name, From: home, To: to, At: now})
		exec := home
		if d.p.Exec != nil {
			exec = d.p.Exec(home)
		}
		mig := s.Migrate
		d.m.SendIPI(exec, func(h *sim.Proc) { mig(h, to) })
	}
}

// Report renders the move log as an indented block.
func (d *Daemon) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "placement daemon: %d windows, %d moves\n", d.ticks, len(d.moves))
	for _, mv := range d.moves {
		fmt.Fprintf(&b, "  t=%-12v %-12s module %d -> %d\n", mv.At, mv.Slot, mv.From, mv.To)
	}
	return b.String()
}

// ManageKernel builds the daemon's slot list from a kernel configured with
// Migratable: one DaemonSlot per kernel-data slot, whose Migrate dispatches
// through the kernel's interrupt gate (so a masked processor defers the
// copy to its next gate exit, exactly like an RPC handler).
func ManageKernel(k *kernel.Kernel) []DaemonSlot {
	var slots []DaemonSlot
	for _, ref := range k.MigratableSlots() {
		ref := ref
		slots = append(slots, DaemonSlot{
			Name:   ref.Name(),
			Region: ref.Region,
			Migrate: func(p *sim.Proc, to int) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.MigrateSlot(h, ref.Cluster, ref.Slot, to)
				})
			},
		})
	}
	return slots
}

// ReplicateKernel builds the replication policy's slot list from the same
// kernel: per-slot read/write vectors come from the live aggregate's
// split region matrices, and the actuators dispatch through the kernel's
// interrupt gate like migrations do. Pair with ManageKernel on one
// autonomic.Plane — the daemon skips replicated slots and the replicator
// collapses write-hot ones, so the two policies hand objects back and
// forth instead of fighting.
func ReplicateKernel(k *kernel.Kernel, agg *trace.Aggregate) []autonomic.ReplicaSlot {
	var slots []autonomic.ReplicaSlot
	for _, ref := range k.MigratableSlots() {
		ref := ref
		region := ref.Region
		slots = append(slots, autonomic.ReplicaSlot{
			Name:   ref.Name(),
			Region: region,
			Reads:  func() []uint64 { return agg.RegionReads[region] },
			Writes: func() []uint64 { return agg.RegionWrites[region] },
			Replicate: func(p *sim.Proc, to int) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.ReplicateSlot(h, ref.Cluster, ref.Slot, to)
				})
			},
			Collapse: func(p *sim.Proc) {
				k.Gate.Dispatch(p, func(h *sim.Proc) {
					k.CollapseSlot(h, ref.Cluster, ref.Slot)
				})
			},
		})
	}
	return slots
}
