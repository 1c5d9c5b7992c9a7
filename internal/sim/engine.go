package sim

import (
	"fmt"
	"sync/atomic"
)

// event is a scheduled callback. Events with equal times fire in the order
// they were scheduled (seq breaks ties), which makes runs deterministic.
// Processor wake-ups — the overwhelming majority of events — carry the Proc
// directly instead of a closure, so scheduling one allocates nothing.
// Daemon events are pure observers (statistics samplers): they run like any
// other event but do not keep the simulation alive — once only daemons
// remain the run is over and they are discarded.
type event struct {
	at     Time
	seq    uint64
	proc   *Proc  // non-nil: wake this processor (no closure needed)
	fn     func() // otherwise: call fn
	daemon bool
}

// before orders events by (time, sequence). seq is unique, so this is a
// strict total order: pop order is independent of heap shape or arity.
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// totalDispatched and totalElided accumulate event counts across every
// engine in the process, so the parallel harness can report aggregate
// events/sec. They are the only cross-engine shared state in the simulator
// and are only added to when a Run call returns.
var totalDispatched, totalElided atomic.Uint64

// TotalEvents reports process-wide engine activity: heap events dispatched
// and clock advances elided by the coalescing fast path, summed over all
// completed Run calls of all engines.
func TotalEvents() (dispatched, elided uint64) {
	return totalDispatched.Load(), totalElided.Load()
}

// Engine is the discrete-event core: a clock and an ordered queue of
// callbacks. Processors are coroutines that the engine wakes one at a time,
// so all simulated state is accessed single-threadedly and runs are
// reproducible.
type Engine struct {
	now    Time
	events []event // inlined 4-ary min-heap ordered by event.before
	seq    uint64
	// live counts queued non-daemon events; when it reaches zero the run is
	// over even if daemon (observer) events remain queued.
	live int
	// stopped is set by Stop to abandon the remaining event queue.
	stopped bool
	// running/runUntil hold the bound of the in-progress Run call; the
	// sleepUntil fast path may only advance the clock inside that window.
	running  bool
	runUntil Time
	// processed counts heap events dispatched; elided counts clock advances
	// that the coalescing fast path performed without a heap event. Their
	// sum is the logical event count (a progress/≈cost metric).
	processed uint64
	elided    uint64
	// tracer, when non-nil, observes typed machine events (see tracer.go).
	tracer Tracer
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Processed reports how many events have been processed so far, counting
// both dispatched heap events and elided fast-path clock advances.
func (e *Engine) Processed() uint64 { return e.processed + e.elided }

// push inserts ev into the 4-ary heap. A 4-ary heap trades slightly more
// comparisons on pop for half the swap depth and better cache locality than
// the binary container/heap, and inlining it removes the interface{} boxing
// that made every push allocate.
func (e *Engine) push(ev event) {
	e.events = append(e.events, ev)
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !e.events[i].before(&e.events[parent]) {
			break
		}
		e.events[i], e.events[parent] = e.events[parent], e.events[i]
		i = parent
	}
}

// pop removes and returns the minimum event.
func (e *Engine) pop() event {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events[n] = event{} // drop fn/proc references
	e.events = e.events[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if e.events[c].before(&e.events[min]) {
				min = c
			}
		}
		if !e.events[min].before(&e.events[i]) {
			break
		}
		e.events[i], e.events[min] = e.events[min], e.events[i]
		i = min
	}
	return top
}

// At schedules fn to run at time t. Scheduling in the past panics: it would
// silently corrupt causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.live++
	e.push(event{at: t, seq: e.seq, fn: fn})
}

// atProc schedules a wake-up of p at time t: the closure-free equivalent of
// At(t, p.wakeEvent) for the per-instruction hot path.
func (e *Engine) atProc(t Time, p *Proc) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.live++
	e.push(event{at: t, seq: e.seq, proc: p})
}

// sleepOrElide advances the clock to t on behalf of a sleeping processor.
// When no other event could possibly run in the window (now, t] — the heap
// is empty or its head is strictly later than t, no Stop is pending, and t
// is within the current Run's bound — it simply sets the clock and returns
// true: nothing could have observed the difference, because interrupts and
// memory writes only originate from events, daemons live in the same heap,
// and skipping the wake event's sequence number uniformly shifts later
// sequence numbers without reordering any coexisting pair. Otherwise it
// schedules a real wake event and returns false, and the caller must block.
// This is the coalescing fast path: straight-line Think/Reg/Branch runs and
// the latency tails of uncontended memory accesses never touch the heap or
// switch coroutines.
func (e *Engine) sleepOrElide(t Time, p *Proc) bool {
	if e.running && !e.stopped && t <= e.runUntil &&
		(len(e.events) == 0 || e.events[0].at > t) {
		e.now = t
		e.elided++
		return true
	}
	e.atProc(t, p)
	return false
}

// After schedules fn to run d cycles from now.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+d, fn) }

// AtDaemon schedules fn as a daemon event: it runs at time t in engine
// context like any event, but does not keep the simulation alive. Once only
// daemon events remain queued, Run ends and discards them. Daemon callbacks
// are observation hooks — they must not consume simulated time or schedule
// non-daemon events (that would let an observer alter what it observes).
func (e *Engine) AtDaemon(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn, daemon: true})
}

// Every runs fn as a daemon every period cycles, first at now+period, until
// the simulation drains. fn receives the firing time. Sampling is scheduled
// through the same deterministic (time, sequence) order as everything else,
// so attaching a sampler never perturbs the simulated instruction streams —
// only the observations fn itself publishes can feed back into them.
func (e *Engine) Every(period Duration, fn func(Time)) {
	if period == 0 {
		panic("sim: Every with zero period")
	}
	var tick func()
	tick = func() {
		fn(e.now)
		e.AtDaemon(e.now+period, tick)
	}
	e.AtDaemon(e.now+period, tick)
}

// Stop makes Run return after the current event completes. The request is
// sticky: if no Run is in progress (Stop issued from a completion callback
// after the queue drained, or between Run calls), the next Run observes it
// and returns immediately instead of silently discarding it.
func (e *Engine) Stop() { e.stopped = true }

// Stopped reports whether a Stop request is pending (issued but not yet
// observed by a Run call).
func (e *Engine) Stopped() bool { return e.stopped }

// Run dispatches events in order until the queue is empty, Stop is called,
// or the clock would pass until (events at exactly until still run). It
// returns the number of events processed by this call, counting elided
// fast-path advances. A pending Stop is consumed exactly when it is
// observed — when it prevents a dispatch that would otherwise have
// happened — so a Stop whose Run drained the queue anyway (or that was
// issued between Runs) still halts the next Run instead of being silently
// cleared.
func (e *Engine) Run(until Time) uint64 {
	startDispatched, startElided := e.processed, e.elided
	prevRunning, prevUntil := e.running, e.runUntil
	e.running, e.runUntil = true, until
	for len(e.events) > 0 {
		if e.live == 0 {
			// Only daemon observers remain: the simulation proper is over.
			// Discard them so the queue reads as drained (Shutdown-safe).
			e.events = e.events[:0]
			break
		}
		if e.stopped {
			e.stopped = false
			break
		}
		if e.events[0].at > until {
			break
		}
		ev := e.pop()
		e.now = ev.at
		e.processed++
		if !ev.daemon {
			e.live--
		}
		if ev.proc != nil {
			ev.proc.wakeEvent()
		} else {
			ev.fn()
		}
	}
	e.running, e.runUntil = prevRunning, prevUntil
	totalDispatched.Add(e.processed - startDispatched)
	totalElided.Add(e.elided - startElided)
	return e.processed + e.elided - startDispatched - startElided
}

// RunAll dispatches events until none remain or Stop is called.
func (e *Engine) RunAll() uint64 {
	return e.Run(^Time(0))
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return len(e.events) }
