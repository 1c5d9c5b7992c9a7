package autonomic

import (
	"fmt"
	"strings"

	"hurricane/internal/sim"
)

// ReplicaSlot is one kernel-data region under replication management. The
// read/write vectors come from the live trace aggregate; the actuators
// dispatch through the kernel (closures, so this package needs no kernel
// dependency). The policy detects completion by watching the region's
// replica set, not by callback — actuations may defer behind an interrupt
// gate.
type ReplicaSlot struct {
	// Name labels the slot in the action log.
	Name string
	// Region is the slot's sim memory region id.
	Region int
	// Reads and Writes return the cumulative per-source-module read and
	// write vectors for the region (nil while no traffic has arrived).
	Reads, Writes func() []uint64
	// Replicate installs a replica of the region on module to, charging
	// the copy to processor p (possibly deferred through a gate).
	Replicate func(p *sim.Proc, to int)
	// Collapse drops all replicas, leaving the primary copy.
	Collapse func(p *sim.Proc)
}

// ReplicatorParams bounds the replication policy. The zero value takes
// defaults. The shape is the placement daemon's — EWMA-smoothed windows,
// confirmation streak, per-slot budget and cooldown, priced actuation —
// with a write-fraction hysteresis band choosing between the two
// actuators: a read-mostly region (write fraction at most 0.05) is worth
// replicating (every write then pays an update per replica), a write-hot
// one (at least 0.25) must collapse back to a single copy that migration
// alone may place.
type ReplicatorParams struct {
	// Decay is the per-window EWMA retention of the smoothed read/write
	// vectors (default 0.75 — the shared controller horizon).
	Decay float64
	// MinWeight is the smoothed per-window access mass (reads + writes) a
	// slot must carry before the policy considers it (default 16).
	MinWeight float64
	// Budget caps replicate+collapse actions per slot over the whole run
	// (default 4).
	Budget int
	// Confirm is the consecutive-window confirmation streak (default 2).
	Confirm int
	// Payback is the rent-vs-buy horizon in windows (default 64): a
	// replica's projected per-window read saving, net of the write-update
	// penalty, must repay the copy cost (region words x ring weight).
	Payback int
	// Cooldown is the minimum time between two actions on the same slot
	// (default 800us, eight windows of the default 100us plane).
	Cooldown sim.Duration
	// Exec picks the processor that executes an action, given the slot's
	// primary home (default: the co-located processor).
	Exec func(home int) int
}

// writeLow and writeHigh are the write-fraction hysteresis band: replicate
// only at or below writeLow, collapse only at or above writeHigh. The gap
// is what keeps an alternating workload from flapping replicate<->collapse
// every phase shift.
const (
	writeLow  = 0.05
	writeHigh = 0.25
)

func (p ReplicatorParams) withDefaults() ReplicatorParams {
	if p.Decay == 0 {
		p.Decay = 0.75
	}
	if p.MinWeight == 0 {
		p.MinWeight = 16
	}
	if p.Budget == 0 {
		p.Budget = 4
	}
	if p.Confirm == 0 {
		p.Confirm = 2
	}
	if p.Payback == 0 {
		p.Payback = 64
	}
	if p.Cooldown == 0 {
		p.Cooldown = sim.Micros(800)
	}
	return p
}

// ReplicaAction records one executed (requested) actuation.
type ReplicaAction struct {
	// Slot names the replicated kernel data slot.
	Slot string
	// Kind is "replicate" or "collapse".
	Kind string
	// Module is the replica's module for a replicate, -1 for a collapse.
	Module int
	// At is the simulated time the action was requested.
	At sim.Time
}

// collapseCand is the Streak candidate code for a collapse (replicate
// candidates are module numbers >= 0).
const collapseCand = -2

// Replicator is the replication policy: per window it folds each slot's
// read and write traffic into smoothed vectors, and on a read-mostly slot
// (write fraction through writeLow) installs a replica on the module where
// the projected read saving — each reader rerouted to its nearest copy —
// net of the write-update penalty best repays the copy within the payback
// horizon. A slot that turns write-hot (write fraction through writeHigh)
// collapses back to its primary, returning it to the migration policy's
// jurisdiction: the daemon skips replicated regions, so replicate vs
// migrate vs pin is decided by the write fraction alone and the two
// policies can never fight over one slot.
type Replicator struct {
	m       *sim.Machine
	topo    Topo
	costs   Costs
	p       ReplicatorParams
	slots   []*replicaSlotState
	actions []ReplicaAction
	ticks   uint64
}

type replicaSlotState struct {
	ReplicaSlot
	snapR, snapW     []uint64
	smoothR, smoothW []float64
	gate             Gate
	streak           Streak
	// pending is an in-flight action: a target module for a replicate,
	// collapseCand for a collapse, -1 when idle.
	pending int
}

// NewReplicator builds the policy over machine m managing the given
// slots. Register it on a Plane to begin sampling.
func NewReplicator(m *sim.Machine, topo Topo, costs Costs, params ReplicatorParams, slots []ReplicaSlot) *Replicator {
	r := &Replicator{m: m, topo: topo, costs: costs, p: params.withDefaults()}
	n := topo.Modules()
	for _, s := range slots {
		r.slots = append(r.slots, &replicaSlotState{
			ReplicaSlot: s,
			snapR:       make([]uint64, n),
			snapW:       make([]uint64, n),
			smoothR:     make([]float64, n),
			smoothW:     make([]float64, n),
			gate:        Gate{Budget: r.p.Budget, Cooldown: r.p.Cooldown},
			streak:      NewStreak(r.p.Confirm),
			pending:     -1,
		})
	}
	return r
}

// Params returns the defaulted parameters.
func (r *Replicator) Params() ReplicatorParams { return r.p }

// Actions returns the action log (oldest first).
func (r *Replicator) Actions() []ReplicaAction { return r.actions }

// SlotActions reports how many actions the named slot has spent.
func (r *Replicator) SlotActions(name string) int {
	for _, s := range r.slots {
		if s.Name == name {
			return s.gate.Used()
		}
	}
	return 0
}

// Claimed reports whether the policy considers the region its jurisdiction:
// already replicated, or carrying enough smoothed traffic to act on and not
// write-hot. A co-scheduled migration policy passes this as its Yield hook,
// so the plane's division of labor — replicate read-mostly, migrate
// write-hot — holds even before the first replica is installed, instead of
// the daemon racing the replicator to move a slot it is about to copy.
func (r *Replicator) Claimed(region int) bool {
	for _, s := range r.slots {
		if s.Region != region {
			continue
		}
		if len(r.m.Mem.Replicas(region)) > 0 {
			return true
		}
		var sumR, sumW float64
		for i := range s.smoothR {
			sumR += s.smoothR[i]
			sumW += s.smoothW[i]
		}
		weight := sumR + sumW
		return weight >= r.p.MinWeight && sumW < writeHigh*weight
	}
	return false
}

// Name implements Policy.
func (r *Replicator) Name() string { return "replicate" }

// Tick implements Policy: one observation window.
func (r *Replicator) Tick(now sim.Time) {
	r.ticks++
	n := r.topo.Modules()
	for _, s := range r.slots {
		// Fold the window into the EWMAs even when the slot cannot act —
		// the signal must stay fresh for when it can.
		fold := func(vec func() []uint64, snap []uint64, smooth []float64) {
			var cum []uint64
			if vec != nil {
				cum = vec()
			}
			for i := 0; i < n; i++ {
				var cur uint64
				if cum != nil && i < len(cum) {
					cur = cum[i]
				}
				w := float64(cur - snap[i])
				snap[i] = cur
				smooth[i] = r.p.Decay*smooth[i] + (1-r.p.Decay)*w
			}
		}
		fold(s.Reads, s.snapR, s.smoothR)
		fold(s.Writes, s.snapW, s.smoothW)

		replicas := r.m.Mem.Replicas(s.Region)
		if s.pending != -1 {
			if s.pending == collapseCand {
				if len(replicas) > 0 {
					continue // collapse still in flight behind a gate
				}
			} else {
				found := false
				for _, m := range replicas {
					if m == s.pending {
						found = true
					}
				}
				if !found {
					continue // replica copy still in flight
				}
			}
			s.pending = -1
		}
		if !s.gate.Ready(now) {
			continue
		}
		var sumR, sumW float64
		for i := 0; i < n; i++ {
			sumR += s.smoothR[i]
			sumW += s.smoothW[i]
		}
		weight := sumR + sumW
		if weight < r.p.MinWeight {
			continue
		}
		wf := sumW / weight
		home := r.m.Mem.Home(s.Region)

		if len(replicas) > 0 && wf >= writeHigh {
			// Write-hot while replicated: every write is paying an update
			// per replica. Collapse back to the single migratable copy.
			if !s.streak.Observe(collapseCand) {
				continue
			}
			s.streak.Clear()
			s.pending = collapseCand
			s.gate.Spend(now)
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "collapse", Module: -1, At: now})
			r.dispatch(home, s.Collapse)
			continue
		}
		// One copy per station is where the read saving saturates, so a
		// slot holds at most Stations-1 extra copies (at least one).
		if wf <= writeLow && len(replicas) < max(r.topo.Stations-1, 1) {
			cand, benefit := r.bestReplica(s, home, replicas, sumW)
			if cand < 0 {
				s.streak.Clear()
				continue
			}
			copyCost := float64(r.m.Mem.RegionWords(s.Region)) * r.costs.Ring
			if !Worthwhile(benefit, r.p.Payback, copyCost) {
				s.streak.Clear()
				continue
			}
			if !s.streak.Observe(cand) {
				continue
			}
			s.streak.Clear()
			to := cand
			s.pending = to
			s.gate.Spend(now)
			r.actions = append(r.actions, ReplicaAction{Slot: s.Name, Kind: "replicate", Module: to, At: now})
			rep := s.Replicate
			r.dispatch(home, func(p *sim.Proc) { rep(p, to) })
			continue
		}
		// Inside the hysteresis band (or already fully replicated): no
		// action, and no stale streak to confirm later.
		s.streak.Clear()
	}
}

// bestReplica picks the candidate module whose replica yields the largest
// net per-window benefit: each reader's traffic rerouted from its current
// nearest copy to the candidate when closer, minus the write-update
// penalty of one more copy. Returns (-1, 0) when no candidate nets out
// positive.
func (r *Replicator) bestReplica(s *replicaSlotState, home int, replicas []int, sumW float64) (int, float64) {
	n := r.topo.Modules()
	serving := func(src int) float64 {
		c := r.costs.Of(r.topo.Dist(src, home))
		for _, m := range replicas {
			if v := r.costs.Of(r.topo.Dist(src, m)); v < c {
				c = v
			}
		}
		return c
	}
	best, bestBenefit := -1, 0.0
	for cand := 0; cand < n; cand++ {
		if cand == home {
			continue
		}
		taken := false
		for _, m := range replicas {
			if m == cand {
				taken = true
			}
		}
		if taken {
			continue
		}
		var saving float64
		for src := 0; src < n; src++ {
			if s.smoothR[src] == 0 {
				continue
			}
			cur := serving(src)
			if c := r.costs.Of(r.topo.Dist(src, cand)); c < cur {
				saving += s.smoothR[src] * (cur - c)
			}
		}
		// Every write to the region now also updates the new copy.
		benefit := saving - sumW*r.costs.Of(r.topo.Dist(home, cand))
		if benefit > bestBenefit {
			best, bestBenefit = cand, benefit
		}
	}
	return best, bestBenefit
}

// dispatch interrupts the executing processor with the actuation.
func (r *Replicator) dispatch(home int, fn func(*sim.Proc)) {
	exec := home
	if r.p.Exec != nil {
		exec = r.p.Exec(home)
	}
	r.m.SendIPI(exec, fn)
}

// Report renders the action log as an indented block.
func (r *Replicator) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "replication policy: %d windows, %d actions\n", r.ticks, len(r.actions))
	for _, a := range r.actions {
		if a.Kind == "collapse" {
			fmt.Fprintf(&b, "  t=%-12v %-12s collapse to primary\n", a.At, a.Slot)
		} else {
			fmt.Fprintf(&b, "  t=%-12v %-12s replicate -> module %d\n", a.At, a.Slot, a.Module)
		}
	}
	return b.String()
}
