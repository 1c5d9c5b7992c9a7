package sim

import (
	"fmt"
	"iter"
)

// IRQHandler is code run by a processor when it takes an inter-processor
// interrupt. It executes inline on the interrupted processor with further
// interrupts disabled, exactly like an exception handler in the paper's
// exception-based kernel.
type IRQHandler func(*Proc)

// InstrCounters tallies executed instructions by category, matching the
// columns of the paper's Figure 4 (atomic read-modify-write, memory
// loads/stores, register-to-register, branches).
type InstrCounters struct {
	Atomic uint64
	Mem    uint64
	Reg    uint64
	Branch uint64
}

// Sub returns c - o, for measuring a region of execution.
func (c InstrCounters) Sub(o InstrCounters) InstrCounters {
	return InstrCounters{
		Atomic: c.Atomic - o.Atomic,
		Mem:    c.Mem - o.Mem,
		Reg:    c.Reg - o.Reg,
		Branch: c.Branch - o.Branch,
	}
}

type procKilled struct{}

// Proc is a simulated processor: a coroutine that executes an instruction
// stream against the simulated memory system. Exactly one Proc (or the
// engine) runs at any real-time instant, so simulated code needs no Go-level
// synchronization. The coroutine is an iter.Pull pair: suspending and
// resuming a processor is a direct coroutine switch with no scheduler,
// channel, or lock involvement.
type Proc struct {
	id     int
	module int
	eng    *Engine
	mem    *Memory
	mach   *Machine
	rng    *RNG

	next    func() (struct{}, bool) // resume the coroutine (engine side)
	stop    func()                  // unwind the coroutine (engine side)
	yieldFn func(struct{}) bool     // suspend the coroutine (proc side)

	started  bool
	finished bool
	parked   bool
	killed   bool

	// watchNext/watching link the processor into a Memory watch list while
	// it sleeps on a write-watch (see Memory.watch).
	watchNext *Proc
	watching  bool

	irqEnabled bool
	inISR      bool
	pendingIRQ []IRQHandler

	counters InstrCounters
}

func newProc(id int, mach *Machine) *Proc {
	return &Proc{
		id:         id,
		module:     id,
		eng:        mach.Eng,
		mem:        mach.Mem,
		mach:       mach,
		rng:        NewRNG(mach.cfg.Seed*0x9e3779b9 + uint64(id)*0x7f4a7c15 + 1),
		irqEnabled: true,
	}
}

// ID reports the processor number (also its memory module number).
func (p *Proc) ID() int { return p.id }

// Station reports the station (bus group) the processor belongs to.
func (p *Proc) Station() int { return p.mem.stationOf(p.module) }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.Now() }

// RNG returns the processor's private random generator.
func (p *Proc) RNG() *RNG { return p.rng }

// Machine returns the machine the processor belongs to.
func (p *Proc) Machine() *Machine { return p.mach }

// Counters returns the instruction counters accumulated so far.
func (p *Proc) Counters() InstrCounters { return p.counters }

// start launches the processor's program as a pull-style coroutine and runs
// it to its first blocking point (or completion) inline. Must be called from
// engine (event) context. A panic in the program propagates out of the
// resuming next() call — i.e. into engine context — except for the internal
// procKilled unwind, which is swallowed so kill() can reap parked
// processors silently.
func (p *Proc) start(program func(*Proc)) {
	if p.started {
		panic(fmt.Sprintf("sim: proc %d started twice", p.id))
	}
	p.started = true
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yieldFn = yield
		defer func() {
			if r := recover(); r != nil {
				if _, isKill := r.(procKilled); !isKill {
					panic(r)
				}
			}
		}()
		program(p)
	})
	p.wakeEvent()
}

// wakeEvent resumes the coroutine from engine context; it returns when the
// processor blocks again or finishes.
func (p *Proc) wakeEvent() {
	if p.finished {
		return
	}
	if _, ok := p.next(); !ok {
		p.finished = true
	}
}

// block suspends the processor until the engine resumes it.
func (p *Proc) block() {
	if !p.yieldFn(struct{}{}) || p.killed {
		panic(procKilled{})
	}
}

// sleepUntil advances the processor to simulated time t. When nothing else
// can run before t the engine elides the wake-up entirely (see
// Engine.sleepOrElide) and this is just a clock bump; otherwise the
// processor blocks on a scheduled wake event.
func (p *Proc) sleepUntil(t Time) {
	if p.eng.sleepOrElide(t, p) {
		return
	}
	p.block()
}

// park blocks the processor with no scheduled wake-up; something must call
// unparkAt later.
func (p *Proc) park() {
	p.parked = true
	if p.eng.tracer != nil {
		now := p.eng.Now()
		p.eng.tracer.Event(TraceEvent{Kind: EvPark, Name: "park", Proc: p.id,
			Start: now, End: now, Src: -1, Dst: -1})
	}
	p.block()
}

// unparkAt schedules the processor to resume at time t if it is parked.
// Safe to call from any proc or engine context.
func (p *Proc) unparkAt(t Time) {
	if !p.parked {
		return
	}
	p.parked = false
	if p.eng.tracer != nil {
		p.eng.tracer.Event(TraceEvent{Kind: EvUnpark, Name: "unpark", Proc: p.id,
			Start: t, End: t, Src: -1, Dst: -1})
	}
	p.eng.atProc(t, p)
}

// kill marks the processor for termination; its coroutine unwinds
// immediately. Must only be used when the processor is parked (idle).
func (p *Proc) kill() {
	if p.finished || !p.started {
		p.finished = true
		return
	}
	if !p.parked {
		panic(fmt.Sprintf("sim: kill of proc %d which is not parked", p.id))
	}
	p.killed = true
	p.parked = false
	p.stop()
	p.finished = true
}

// --- Instruction stream API ---

// Think advances simulated time by d cycles of local computation (no memory
// traffic).
func (p *Proc) Think(d Duration) {
	if d == 0 {
		return
	}
	p.sleepUntil(p.eng.Now() + d)
	p.checkIRQ()
}

// Reg executes n register-to-register instructions.
func (p *Proc) Reg(n int) {
	p.counters.Reg += uint64(n)
	p.Think(p.mem.lat.Reg * Duration(n))
}

// Branch executes n branch (or return) instructions.
func (p *Proc) Branch(n int) {
	p.counters.Branch += uint64(n)
	p.Think(p.mem.lat.Branch * Duration(n))
}

// Load reads the word at a, charging the NUMA access cost.
func (p *Proc) Load(a Addr) uint64 {
	p.counters.Mem++
	v, done, _ := p.mem.access(p, a, accLoad, 0, 0)
	p.sleepUntil(done)
	p.checkIRQ()
	return v
}

// Store writes v to the word at a, charging the NUMA access cost.
func (p *Proc) Store(a Addr, v uint64) {
	p.counters.Mem++
	_, done, _ := p.mem.access(p, a, accStore, v, 0)
	p.sleepUntil(done)
	p.checkIRQ()
}

// Swap atomically exchanges v with the word at a (fetch-and-store), the only
// atomic primitive HECTOR provides. The module is occupied for two accesses
// but the processor proceeds once the fetch half completes.
func (p *Proc) Swap(a Addr, v uint64) uint64 {
	p.counters.Atomic++
	old, done, _ := p.mem.access(p, a, accSwap, v, 0)
	p.sleepUntil(done)
	p.checkIRQ()
	return old
}

// CAS atomically compares the word at a with expect and, if equal, stores v.
// It reports the observed value and whether the store happened. Only
// machines configured with HasCAS support it (the paper's §5 discussion of
// more capable primitives).
func (p *Proc) CAS(a Addr, expect, v uint64) (uint64, bool) {
	if !p.mach.cfg.HasCAS {
		panic("sim: CAS on a machine without compare-and-swap")
	}
	p.counters.Atomic++
	old, done, ok := p.mem.access(p, a, accCAS, v, expect)
	p.sleepUntil(done)
	p.checkIRQ()
	return old, ok
}

// WaitLocal spins on the word at a until pred holds, returning the value
// that satisfied it. Each observation is a charged load; between
// observations the processor sleeps on a write-watch instead of burning
// simulator events, which is timing-equivalent for local spinning (the
// point of distributed locks is precisely that this traffic stays local).
func (p *Proc) WaitLocal(a Addr, pred func(uint64) bool) uint64 {
	for {
		v := p.Load(a)
		p.counters.Branch++ // the spin-test branch
		if pred(v) {
			return v
		}
		// Re-check the instantaneous value before parking: it may have
		// changed while the load above was completing, and the watch is
		// only triggered by future writes.
		if pred(p.mem.Peek(a)) {
			continue
		}
		p.mem.watch(a, p)
		p.park()
		// A write-wake cleared the watch; an IRQ unpark did not — drop the
		// stale registration before it can alias the next watch.
		p.mem.unwatch(a, p)
		p.checkIRQ()
	}
}

// --- Interrupts ---

// SetIRQ enables or disables all interrupts (HECTOR only supports
// enable/disable-all, per §3.2).
func (p *Proc) SetIRQ(on bool) {
	p.irqEnabled = on
	if on {
		p.checkIRQ()
	}
}

// InISR reports whether the processor is currently running an interrupt
// handler.
func (p *Proc) InISR() bool { return p.inISR }

// postIRQ enqueues an interrupt; called from engine context by SendIPI.
func (p *Proc) postIRQ(h IRQHandler) {
	if p.eng.tracer != nil {
		now := p.eng.Now()
		p.eng.tracer.Event(TraceEvent{Kind: EvIRQ, Name: "irq", Proc: p.id,
			Start: now, End: now, Src: -1, Dst: -1})
	}
	p.pendingIRQ = append(p.pendingIRQ, h)
	p.unparkAt(p.eng.Now())
}

// checkIRQ delivers pending interrupts at an instruction boundary.
func (p *Proc) checkIRQ() {
	if !p.irqEnabled || p.inISR {
		return
	}
	p.deliverIRQs()
}

func (p *Proc) deliverIRQs() {
	for len(p.pendingIRQ) > 0 {
		h := p.pendingIRQ[0]
		p.pendingIRQ = p.pendingIRQ[1:]
		p.inISR = true
		h(p)
		p.inISR = false
	}
}

// Park blocks the processor until another processor calls Unpark on it.
// Park/Unpark are zero-cost coordination for workload harnesses (barriers,
// phase starts); simulated kernel code should synchronize through memory.
func (p *Proc) Park() {
	p.park()
	p.checkIRQ()
}

// Unpark wakes a processor blocked in Park (no-op otherwise). Callable from
// any proc or engine context.
func (p *Proc) Unpark() {
	p.unparkAt(p.eng.Now())
}

// WaitIRQ idles the processor until at least one interrupt arrives, then
// delivers all pending interrupts (regardless of the enable flag — this is
// an explicit receive, the kernel idle loop).
func (p *Proc) WaitIRQ() {
	for len(p.pendingIRQ) == 0 {
		p.park()
	}
	p.deliverIRQs()
}
