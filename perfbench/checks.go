package main

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

// exclusive wraps a lock and counts every acquisition that returns while
// another processor still holds it, and every release by a non-holder.
// It charges no simulated time.
type exclusive struct {
	locks.Lock
	holder     int // processor id, -1 when free
	violations int
}

func (x *exclusive) Acquire(p *sim.Proc) {
	x.Lock.Acquire(p)
	if x.holder >= 0 {
		x.violations++
	}
	x.holder = p.ID()
}

func (x *exclusive) Release(p *sim.Proc) {
	if x.holder != p.ID() {
		x.violations++
	}
	x.holder = -1
	x.Lock.Release(p)
}

// conservation checks that the server accounted for every request it was
// offered: each was admitted or dropped, and each admitted one completed
// or was abandoned.
func conservation(r *workload.ServerResult) error {
	if r.Offered != r.Admitted+r.Dropped {
		return fmt.Errorf("request conservation: offered %d != admitted %d + dropped %d", r.Offered, r.Admitted, r.Dropped)
	}
	if r.Admitted != r.Completed+r.Abandoned {
		return fmt.Errorf("request conservation: admitted %d != completed %d + abandoned %d", r.Admitted, r.Completed, r.Abandoned)
	}
	return nil
}

// holdChecker finds overlapping lock.hold spans of one lock. A lock's
// holds are emitted at release, so they arrive in release order and each
// must start no earlier than the previous one ended.
type holdChecker struct {
	lastEnd    map[string]sim.Time
	violations int
	first      string
}

func (h *holdChecker) observe(ev sim.TraceEvent) {
	if h.lastEnd == nil {
		h.lastEnd = make(map[string]sim.Time)
	}
	if end, ok := h.lastEnd[ev.Name]; ok && ev.Start < end {
		if h.violations == 0 {
			h.first = fmt.Sprintf("%q held from %d while held until %d", ev.Name, ev.Start, end)
		}
		h.violations++
	}
	h.lastEnd[ev.Name] = ev.End
}
