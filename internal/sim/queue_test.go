package sim

import (
	"slices"
	"testing"
)

// refEvent is the reference model's copy of one scheduled event.
type refEvent struct {
	at, seq Time
	tag     int  // >= 0: closure event; < 0: wake of processor -tag-1
	daemon  bool // observer event
	stop    bool // the callback calls Stop
	spawn   int  // children the callback schedules
	think   Duration
}

// orderHarness drives an Engine and a reference model of it side by side:
// the reference keeps every queued event in a plain slice and always takes
// the (at, seq) minimum, and it runs Run's loop rules itself. Every
// dispatch the engine makes is checked against the event the reference
// says comes next.
type orderHarness struct {
	t     *testing.T
	m     *Machine
	e     *Engine
	rng   *RNG
	ref   []refEvent
	seq   Time // the reference's sequence counter
	live  int
	now   Time
	stop  bool
	until Time
	tags  int
	last  Time // time of the most recently scheduled event
}

const fuzzProcs = 4

func newOrderHarness(t *testing.T, seed uint64) *orderHarness {
	h := &orderHarness{t: t, m: NewMachine(Config{Seed: 1}), rng: NewRNG(seed)}
	h.e = h.m.Eng
	for i := 0; i < fuzzProcs; i++ {
		h.m.Go(i, func(p *Proc) {
			for {
				p.Park()
				h.wake(p)
			}
		})
	}
	h.m.RunAll() // start the processors; each parks with nothing queued
	h.seq, h.now = Time(h.e.seq), h.e.Now()
	return h
}

// expect adds ev to the reference under the next sequence number.
func (h *orderHarness) expect(ev refEvent) {
	h.seq++
	ev.seq = h.seq
	h.ref = append(h.ref, ev)
	h.last = ev.at
	if !ev.daemon {
		h.live++
	}
}

// schedule queues ev on both the engine and the reference.
func (h *orderHarness) schedule(ev refEvent) {
	h.expect(ev)
	switch {
	case ev.tag < 0:
		h.e.atProc(ev.at, h.m.Procs[-ev.tag-1])
	case ev.daemon:
		h.e.AtDaemon(ev.at, func() { h.fire(ev.tag) })
	default:
		h.e.At(ev.at, func() { h.fire(ev.tag) })
	}
	h.checkSeq()
}

func (h *orderHarness) checkSeq() {
	if Time(h.e.seq) != h.seq {
		h.t.Fatalf("engine sequence %d, reference %d", h.e.seq, h.seq)
	}
}

// next reports the event the reference's Run loop would dispatch next
// under the current bound, and its index, or -1 when the loop would stop.
func (h *orderHarness) next() int {
	if len(h.ref) == 0 || h.live == 0 || h.stop {
		return -1
	}
	i := 0
	for j := range h.ref {
		if h.ref[j].at < h.ref[i].at || h.ref[j].at == h.ref[i].at && h.ref[j].seq < h.ref[i].seq {
			i = j
		}
	}
	if h.ref[i].at > h.until {
		return -1
	}
	return i
}

// dispatched checks that the engine just dispatched the reference's next
// event, the one carrying tag, and removes it from the reference.
func (h *orderHarness) dispatched(tag int) refEvent {
	i := h.next()
	if i < 0 {
		h.t.Fatalf("engine dispatched tag %d at %d; the reference would have stopped (pending %d, live %d, stop %v, until %d)",
			tag, h.e.Now(), len(h.ref), h.live, h.stop, h.until)
	}
	ev := h.ref[i]
	if ev.tag != tag || h.e.Now() != ev.at {
		h.t.Fatalf("engine dispatched tag %d at %d; reference next is tag %d at %d (seq %d)",
			tag, h.e.Now(), ev.tag, ev.at, ev.seq)
	}
	h.ref = slices.Delete(h.ref, i, i+1)
	if !ev.daemon {
		h.live--
	}
	h.now = ev.at
	return ev
}

// fire is every closure event's callback.
func (h *orderHarness) fire(tag int) {
	ev := h.dispatched(tag)
	for k := 0; k < ev.spawn; k++ {
		c := refEvent{at: h.now + h.delay(byte(h.rng.Intn(4)), byte(h.rng.Intn(256)), byte(h.rng.Intn(256))),
			tag: h.newTag(), daemon: ev.daemon, spawn: ev.spawn - 1}
		if !ev.daemon && h.rng.Intn(3) == 0 {
			c.tag = -1 - h.rng.Intn(fuzzProcs)
			c.think = Duration(h.rng.Intn(64))
		}
		h.schedule(c)
	}
	if ev.stop {
		h.stop = true
		h.e.Stop()
	}
}

// wake runs on a processor each time one of its wake events dispatches. A
// wake with a think then thinks, which the engine must elide exactly when
// the reference's queue has nothing due by the think's end.
func (h *orderHarness) wake(p *Proc) {
	ev := h.dispatched(-1 - p.ID())
	if ev.think == 0 {
		return
	}
	t := h.now + ev.think
	if !h.stop && t <= h.until && h.headAt() > t {
		elided := h.e.elided
		p.Think(ev.think)
		if h.e.elided != elided+1 || h.e.Now() != t {
			h.t.Fatalf("think to %d with nothing queued before it was not elided (now %d)", t, h.e.Now())
		}
		h.now = t
		return
	}
	h.expect(refEvent{at: t, tag: -1 - p.ID()})
	p.Think(ev.think)
	h.checkSeq()
	h.dispatched(-1 - p.ID())
}

// headAt reports the earliest time the reference holds (^Time(0) if none).
func (h *orderHarness) headAt() Time {
	head := ^Time(0)
	for _, ev := range h.ref {
		head = min(head, ev.at)
	}
	return head
}

func (h *orderHarness) newTag() int {
	h.tags++
	return h.tags
}

// delay decodes a scheduling delay: dense ties inside one slot, a spread
// up to 2^17 cycles, the wheel's window edge, and far past 2^16 cycles.
func (h *orderHarness) delay(class, a, b byte) Duration {
	switch class % 4 {
	case 0:
		return Duration(a % 16)
	case 1:
		return Duration(a) << (b % 10)
	case 2:
		return wheelSpan - 16 + Duration(a%32)
	default:
		return (Duration(a)<<8 | Duration(b)) << 2
	}
}

// run calls Run(until) on the engine and checks that it stopped where the
// reference's loop stops, leaving the clock where the last dispatch put it
// — discarding a daemon-only queue must not move it.
func (h *orderHarness) run(until Time) {
	h.until = until
	h.e.Run(until)
	if h.next() >= 0 {
		h.t.Fatalf("Run(%d) returned at %d with tag %d still due", until, h.e.Now(), h.ref[h.next()].tag)
	}
	switch {
	case len(h.ref) == 0:
	case h.live == 0:
		h.ref = h.ref[:0] // daemons only: Run discards them
	case h.stop:
		h.stop = false // the Stop was observed
	}
	if h.e.Now() != h.now {
		h.t.Fatalf("clock %d after Run(%d), reference %d", h.e.Now(), until, h.now)
	}
	h.check()
}

func (h *orderHarness) check() {
	if h.e.Pending() != len(h.ref) || h.e.Stopped() != h.stop {
		h.t.Fatalf("engine pending %d stopped %v, reference %d %v", h.e.Pending(), h.e.Stopped(), len(h.ref), h.stop)
	}
}

// FuzzEventOrder checks the event queue against a sorted-slice reference:
// every dispatch is the (at, seq) minimum of what the reference holds,
// Run(until) cuts and Stop requests end a Run exactly where the reference
// does, the elision fast path fires exactly when nothing is due before a
// processor's think ends, Pending matches the reference, and discarding a
// daemon-only queue leaves the clock alone. Each 4-byte record is one
// operation: schedule a closure event (which may schedule children, or call
// Stop), a daemon, a processor wake (which may think) or a tie with the
// last scheduled time; Run to a bound; RunAll; or Stop between Runs. The
// seed corpus is in testdata/fuzz/FuzzEventOrder.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newOrderHarness(t, uint64(len(ops))+1)
		for i := 0; i+4 <= len(ops) && i < 4*256; i += 4 {
			op, cls, a, b := ops[i], ops[i+1], ops[i+2], ops[i+3]
			ev := refEvent{at: h.e.Now() + h.delay(cls, a, b), tag: h.newTag()}
			switch op % 8 {
			case 0:
				ev.spawn = int(b % 3)
				h.schedule(ev)
			case 1:
				ev.daemon, ev.spawn = true, int(b%2)
				h.schedule(ev)
			case 2:
				ev.tag, ev.think = -1-int(b%fuzzProcs), Duration(a%64)
				h.schedule(ev)
			case 3:
				h.run(ev.at)
			case 4:
				h.run(^Time(0))
			case 5:
				h.stop = true
				h.e.Stop()
			case 6:
				ev.stop = true
				h.schedule(ev)
			case 7:
				ev.at = max(h.last, h.e.Now())
				h.schedule(ev)
			}
			h.check()
		}
		for h.e.Pending() > 0 {
			h.run(^Time(0))
		}
		h.m.Shutdown()
	})
}
