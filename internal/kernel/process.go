package kernel

import (
	"fmt"

	"hurricane/internal/cluster"
	"hurricane/internal/hybrid"
	"hurricane/internal/sim"
)

// Process-descriptor payload layout (words after hybrid.EntData).
const (
	dParent     = 0 // parent's descriptor key (0 for roots)
	dFirstChild = 1 // head of the child list
	dNextSib    = 2 // next sibling in the parent's child list
	dMsgs       = 3 // messages received
	dSent       = 4 // messages sent
	dState      = 5 // 1 = alive
)

const descPayload = 6

// ProcessManager implements the clustered process subsystem: descriptors
// live in per-cluster tables (single copy each — process state is
// write-shared, so it is never replicated), the family tree's links run
// through the descriptors across clusters (the §2.5 "data structure
// design" lesson), and destruction and message passing follow the
// configured deadlock-management protocol.
type ProcessManager struct {
	k      *Kernel
	tables []*hybrid.Table
}

func newProcessManager(k *Kernel) *ProcessManager {
	pm := &ProcessManager{
		k:      k,
		tables: make([]*hybrid.Table, k.Topo.N),
	}
	for c := 0; c < k.Topo.N; c++ {
		home := k.Topo.SlotModule(c, 3)
		t := hybrid.NewShared(k.M, k.newLock(home), home, buckets, descPayload)
		t.Guard = k.Gate
		pm.tables[c] = t
	}
	return pm
}

// PIDKey builds the descriptor key for process n homed on cluster c.
func PIDKey(c int, n uint64) uint64 { return MakeKey(c, classProc, n) }

// Table exposes cluster c's descriptor table (tests).
func (pm *ProcessManager) Table(c int) *hybrid.Table { return pm.tables[c] }

// --- descriptor primitives: local direct or one RPC each ---

func (pm *ProcessManager) local(p *sim.Proc, key uint64) bool {
	return HomeOf(key) == pm.k.Topo.ClusterOf(p.ID())
}

// run executes fn on the descriptor's home cluster (directly if local).
func (pm *ProcessManager) run(p *sim.Proc, key uint64, fn func(h *sim.Proc) cluster.Status) cluster.Status {
	home := HomeOf(key)
	if pm.local(p, key) {
		return fn(p)
	}
	return pm.k.RPC.Call(p, home, fn)
}

// reserveDesc try-reserves the descriptor and leaves it held by the caller.
func (pm *ProcessManager) reserveDesc(p *sim.Proc, key uint64) cluster.Status {
	t := pm.tables[HomeOf(key)]
	return pm.run(p, key, func(h *sim.Proc) cluster.Status {
		var st cluster.Status
		t.WithLock(h, func() {
			e := t.SearchLocked(h, key)
			if e == 0 {
				st = cluster.StatusAbsent
				return
			}
			if !t.TryReserveLocked(h, e, hybrid.Exclusive) {
				st = cluster.StatusRetry
				return
			}
			st = cluster.StatusOK
		})
		return st
	})
}

// releaseDesc drops a reservation taken with reserveDesc.
func (pm *ProcessManager) releaseDesc(p *sim.Proc, key uint64) {
	t := pm.tables[HomeOf(key)]
	pm.run(p, key, func(h *sim.Proc) cluster.Status {
		if e, ok := t.Lookup(h, key); ok {
			h.Store(e+hybrid.EntStatus, 0)
		}
		return cluster.StatusOK
	})
}

// readDesc reads a field; the caller should hold the reservation.
func (pm *ProcessManager) readDesc(p *sim.Proc, key uint64, off sim.Addr) (uint64, cluster.Status) {
	t := pm.tables[HomeOf(key)]
	var v uint64
	st := pm.run(p, key, func(h *sim.Proc) cluster.Status {
		e, ok := t.Lookup(h, key)
		if !ok {
			return cluster.StatusAbsent
		}
		v = h.Load(e + hybrid.EntData + off)
		return cluster.StatusOK
	})
	return v, st
}

// writeDesc writes a field; the caller should hold the reservation.
func (pm *ProcessManager) writeDesc(p *sim.Proc, key uint64, off sim.Addr, v uint64) cluster.Status {
	t := pm.tables[HomeOf(key)]
	return pm.run(p, key, func(h *sim.Proc) cluster.Status {
		e, ok := t.Lookup(h, key)
		if !ok {
			return cluster.StatusAbsent
		}
		h.Store(e+hybrid.EntData+off, v)
		return cluster.StatusOK
	})
}

// withDesc reserves the descriptor, runs fn on its home cluster, and
// releases — one round trip. fn's status is returned; Retry means the
// reservation could not be taken.
func (pm *ProcessManager) withDesc(p *sim.Proc, key uint64, fn func(h *sim.Proc, t *hybrid.Table, e sim.Addr) cluster.Status) cluster.Status {
	t := pm.tables[HomeOf(key)]
	return pm.run(p, key, func(h *sim.Proc) cluster.Status {
		var st cluster.Status
		var e sim.Addr
		t.WithLock(h, func() {
			e = t.SearchLocked(h, key)
			if e == 0 {
				st = cluster.StatusAbsent
				return
			}
			if !t.TryReserveLocked(h, e, hybrid.Exclusive) {
				st = cluster.StatusRetry
				return
			}
			st = cluster.StatusOK
		})
		if st != cluster.StatusOK {
			return st
		}
		st = fn(h, t, e)
		h.Store(e+hybrid.EntStatus, 0)
		return st
	})
}

// removeDesc unlinks the descriptor from its table; the caller holds the
// reservation (removal clears the status word, waking any spinner into a
// re-search that discovers the removal).
func (pm *ProcessManager) removeDesc(p *sim.Proc, key uint64) {
	t := pm.tables[HomeOf(key)]
	pm.run(p, key, func(h *sim.Proc) cluster.Status {
		t.WithLock(h, func() { t.RemoveLocked(h, key) })
		return cluster.StatusOK
	})
}

func (pm *ProcessManager) backoff(p *sim.Proc, d *sim.Duration) {
	p.Think(*d/2 + p.RNG().Duration(*d/2+1))
	if *d < sim.Micros(400) {
		*d *= 2
	}
}

// --- public operations ---

// Create installs a descriptor for pidKey and, if parentKey is nonzero,
// links it at the head of the parent's child list. The link takes the
// child's reservation across the parent update so concurrent tree walkers
// never observe a half-linked child.
func (pm *ProcessManager) Create(p *sim.Proc, pidKey, parentKey uint64) error {
	pm.k.checkKey(pidKey, classProc)
	home := HomeOf(pidKey)
	t := pm.tables[home]
	st := pm.run(p, pidKey, func(h *sim.Proc) cluster.Status {
		e := t.NewEntry(h, pm.k.Topo.HomeModule(home), pidKey)
		h.Store(e+hybrid.EntData+dParent, parentKey)
		h.Store(e+hybrid.EntData+dState, 1)
		if !t.Insert(h, e) {
			return cluster.StatusAbsent
		}
		return cluster.StatusOK
	})
	if st != cluster.StatusOK {
		return fmt.Errorf("kernel: process %#x already exists", pidKey)
	}
	if parentKey == 0 {
		return nil
	}
	pm.k.checkKey(parentKey, classProc)

	delay := sim.Micros(4)
	for {
		if st := pm.reserveDesc(p, pidKey); st != cluster.StatusOK {
			if st == cluster.StatusAbsent {
				return fmt.Errorf("kernel: new process %#x vanished", pidKey)
			}
			pm.backoff(p, &delay)
			continue
		}
		var oldHead uint64
		st := pm.withDesc(p, parentKey, func(h *sim.Proc, t *hybrid.Table, e sim.Addr) cluster.Status {
			oldHead = h.Load(e + hybrid.EntData + dFirstChild)
			h.Store(e+hybrid.EntData+dFirstChild, pidKey)
			return cluster.StatusOK
		})
		switch st {
		case cluster.StatusOK:
			pm.writeDesc(p, pidKey, dNextSib, oldHead)
			pm.releaseDesc(p, pidKey)
			return nil
		case cluster.StatusAbsent:
			pm.releaseDesc(p, pidKey)
			return fmt.Errorf("kernel: parent %#x missing", parentKey)
		default:
			pm.releaseDesc(p, pidKey)
			pm.backoff(p, &delay)
		}
	}
}

// Alive reports whether the descriptor exists. Uncharged instrumentation,
// callable from outside the simulation.
func (pm *ProcessManager) Alive(pidKey uint64) bool {
	return pm.tables[HomeOf(pidKey)].PeekSearch(pidKey) != 0
}

// PeekField reads a descriptor field with no simulated cost
// (instrumentation). Returns 0 for missing descriptors.
func (pm *ProcessManager) PeekField(pidKey uint64, off sim.Addr) uint64 {
	e := pm.tables[HomeOf(pidKey)].PeekSearch(pidKey)
	if e == 0 {
		return 0
	}
	return pm.k.M.Mem.Peek(e + hybrid.EntData + off)
}

// Msgs reads the received-message counter (uncharged instrumentation).
func (pm *ProcessManager) Msgs(pidKey uint64) uint64 {
	return pm.PeekField(pidKey, dMsgs)
}

// Sent reads the sent-message counter (uncharged instrumentation).
func (pm *ProcessManager) Sent(pidKey uint64) uint64 {
	return pm.PeekField(pidKey, dSent)
}

// FirstChild reads the family-tree head link (uncharged instrumentation).
func (pm *ProcessManager) FirstChild(pidKey uint64) uint64 {
	return pm.PeekField(pidKey, dFirstChild)
}

// NextSibling reads the family-tree sibling link (uncharged
// instrumentation).
func (pm *ProcessManager) NextSibling(pidKey uint64) uint64 {
	return pm.PeekField(pidKey, dNextSib)
}

// Destroy removes a leaf process from the system and from its parent's
// child list — the paper's program-destruction case: up to three
// descriptors (victim, parent, predecessor sibling), potentially in three
// clusters, must be updated consistently. The optimistic protocol holds
// the victim's reserve bit across the remote steps and rolls everything
// back on any conflict; the pessimistic protocol walks the chain holding
// nothing, then re-establishes (revalidates) before the final splice.
func (pm *ProcessManager) Destroy(p *sim.Proc, victim uint64) error {
	pm.k.checkKey(victim, classProc)
	if pm.k.cfg.Protocol == Pessimistic {
		return pm.destroyPessimistic(p, victim)
	}
	return pm.destroyOptimistic(p, victim)
}

func (pm *ProcessManager) destroyOptimistic(p *sim.Proc, victim uint64) error {
	delay := sim.Micros(4)
	for {
		switch pm.reserveDesc(p, victim) {
		case cluster.StatusAbsent:
			return fmt.Errorf("kernel: destroy of missing process %#x", victim)
		case cluster.StatusRetry:
			pm.k.Stats.DestroyRetries++
			pm.backoff(p, &delay)
			continue
		}
		if fc, _ := pm.readDesc(p, victim, dFirstChild); fc != 0 {
			pm.releaseDesc(p, victim)
			return fmt.Errorf("kernel: destroy of non-leaf process %#x", victim)
		}
		parent, _ := pm.readDesc(p, victim, dParent)
		vnext, _ := pm.readDesc(p, victim, dNextSib)

		st := cluster.StatusOK
		if parent != 0 {
			st = pm.unlink(p, parent, victim, vnext)
		}
		if st == cluster.StatusRetry {
			// Conflict somewhere in the chain: release our reserve bits,
			// back off, restart from scratch (§2.3).
			pm.releaseDesc(p, victim)
			pm.k.Stats.DestroyRetries++
			pm.backoff(p, &delay)
			continue
		}
		pm.removeDesc(p, victim)
		return nil
	}
}

func (pm *ProcessManager) destroyPessimistic(p *sim.Proc, victim uint64) error {
	delay := sim.Micros(4)
	for {
		// Brief hold just to read; nothing is held across remote steps.
		switch pm.reserveDesc(p, victim) {
		case cluster.StatusAbsent:
			return fmt.Errorf("kernel: destroy of missing process %#x", victim)
		case cluster.StatusRetry:
			pm.k.Stats.DestroyRetries++
			pm.backoff(p, &delay)
			continue
		}
		if fc, _ := pm.readDesc(p, victim, dFirstChild); fc != 0 {
			pm.releaseDesc(p, victim)
			return fmt.Errorf("kernel: destroy of non-leaf process %#x", victim)
		}
		parent, _ := pm.readDesc(p, victim, dParent)
		pm.releaseDesc(p, victim)

		// Re-establish: take the victim again for the splice+remove, and
		// re-read the (possibly changed) sibling link.
		if st := pm.reserveDesc(p, victim); st != cluster.StatusOK {
			pm.k.Stats.DestroyRetries++
			pm.backoff(p, &delay)
			continue
		}
		pm.k.Stats.Reestablishments++
		vnext, _ := pm.readDesc(p, victim, dNextSib)
		st := cluster.StatusOK
		if parent != 0 {
			st = pm.unlink(p, parent, victim, vnext)
		}
		if st == cluster.StatusRetry {
			pm.releaseDesc(p, victim)
			pm.k.Stats.DestroyRetries++
			pm.backoff(p, &delay)
			continue
		}
		pm.removeDesc(p, victim)
		return nil
	}
}

// unlink splices victim out of parent's child list (victim is reserved by
// the caller, so its own links are frozen). Returns StatusRetry on any
// reserve conflict along the chain.
func (pm *ProcessManager) unlink(p *sim.Proc, parent, victim, vnext uint64) cluster.Status {
	var head uint64
	found := false
	st := pm.withDesc(p, parent, func(h *sim.Proc, t *hybrid.Table, e sim.Addr) cluster.Status {
		head = h.Load(e + hybrid.EntData + dFirstChild)
		if head == victim {
			h.Store(e+hybrid.EntData+dFirstChild, vnext)
			found = true
		}
		return cluster.StatusOK
	})
	if st != cluster.StatusOK {
		return st
	}
	if found {
		return cluster.StatusOK
	}
	cur := head
	for cur != 0 {
		var next uint64
		st := pm.withDesc(p, cur, func(h *sim.Proc, t *hybrid.Table, e sim.Addr) cluster.Status {
			next = h.Load(e + hybrid.EntData + dNextSib)
			if next == victim {
				h.Store(e+hybrid.EntData+dNextSib, vnext)
				found = true
			}
			return cluster.StatusOK
		})
		if st == cluster.StatusRetry {
			return st
		}
		if st == cluster.StatusAbsent {
			// The chain changed under us (a sibling died): retry.
			return cluster.StatusRetry
		}
		if found {
			return cluster.StatusOK
		}
		cur = next
	}
	// Walked off the end: the chain mutated between our reads; retry.
	return cluster.StatusRetry
}

// Send delivers a message from one process to another: both descriptors
// must be held, and the pair is arbitrary — exactly the no-natural-order
// case §2.5 blames for retries. The optimistic protocol reserves the
// sender, then try-reserves the receiver remotely, rolling back on
// conflict; the pessimistic protocol releases the sender before the remote
// step and re-establishes afterwards.
func (pm *ProcessManager) Send(p *sim.Proc, from, to uint64) error {
	pm.k.checkKey(from, classProc)
	pm.k.checkKey(to, classProc)
	delay := sim.Micros(4)
	pessimistic := pm.k.cfg.Protocol == Pessimistic
	for {
		switch pm.reserveDesc(p, from) {
		case cluster.StatusAbsent:
			return fmt.Errorf("kernel: sender %#x missing", from)
		case cluster.StatusRetry:
			pm.k.Stats.MsgRetries++
			pm.backoff(p, &delay)
			continue
		}
		if pessimistic {
			pm.releaseDesc(p, from)
		}
		st := pm.withDesc(p, to, func(h *sim.Proc, t *hybrid.Table, e sim.Addr) cluster.Status {
			n := h.Load(e + hybrid.EntData + dMsgs)
			h.Store(e+hybrid.EntData+dMsgs, n+1)
			return cluster.StatusOK
		})
		if st == cluster.StatusRetry {
			if !pessimistic {
				pm.releaseDesc(p, from)
			}
			pm.k.Stats.MsgRetries++
			pm.backoff(p, &delay)
			continue
		}
		if st == cluster.StatusAbsent {
			if !pessimistic {
				pm.releaseDesc(p, from)
			}
			return fmt.Errorf("kernel: receiver %#x missing", to)
		}
		if pessimistic {
			// Re-establish the sender to record the send.
			for {
				st := pm.reserveDesc(p, from)
				if st == cluster.StatusAbsent {
					return fmt.Errorf("kernel: sender %#x died mid-send", from)
				}
				if st == cluster.StatusOK {
					break
				}
				pm.backoff(p, &delay)
			}
			pm.k.Stats.Reestablishments++
		}
		n, _ := pm.readDesc(p, from, dSent)
		pm.writeDesc(p, from, dSent, n+1)
		pm.releaseDesc(p, from)
		return nil
	}
}
