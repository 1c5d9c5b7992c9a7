package sim

import "math/bits"

// The event queue is a bucketed time wheel backed by an overflow heap. The
// wheel has wheelSlots slots, each slotWidth cycles wide, and holds every
// event due in the window [base, base+wheelSpan); base is the clock rounded
// down to a slot boundary. Later events wait in a 4-ary heap and move into
// the wheel, in (at, seq) order, as soon as the clock advances far enough
// to bring them into the window. Both hold indices into one pool of events. Every queued event therefore lies in one
// of two disjoint time ranges — the wheel's window, then the overflow — and
// the earliest event is the head of the first non-empty slot at or after
// the clock's slot, or the overflow's minimum when the wheel is empty.
const (
	slotShift  = 3
	slotWidth  = 1 << slotShift // cycles per slot
	wheelSlots = 1024
	wheelSpan  = wheelSlots * slotWidth // cycles the wheel covers
)

// noEvent is the nil pool index.
const noEvent = -1

// queue orders events by (at, seq). Each slot is a circular singly linked
// list through event.next, kept in (at, seq) order; the slot records only
// its last event, whose next is the first. Because seq grows with every
// schedule, a new event in a slot almost always sorts last and is appended
// at the tail; only an earlier-time event in the same 8-cycle slot walks
// the (short) list.
type queue struct {
	pool []event // every queued event; freed entries chain via next
	free int32   // first free pool index, or noEvent
	tail [wheelSlots]int32
	used [wheelSlots / 64]uint64 // bit s: slot s is non-empty
	n    int                     // events in the wheel
	over []int32                 // 4-ary min-heap of the events past the window
	base Time                    // start of the wheel's window, slot-aligned
	// head is the time of the earliest queued event (^Time(0) when empty),
	// so Run and the elision fast path never rescan the wheel.
	head Time
}

func (q *queue) init() {
	q.free = noEvent
	q.head = ^Time(0)
}

// len reports how many events are queued.
func (q *queue) len() int { return q.n + len(q.over) }

func slotOf(t Time) int { return int(t>>slotShift) & (wheelSlots - 1) }

// push queues ev, which must not be earlier than base.
func (q *queue) push(ev event) {
	if ev.at < q.head {
		q.head = ev.at
	}
	i := q.alloc(ev)
	if ev.at-q.base < wheelSpan {
		q.link(i)
	} else {
		q.pushOver(i)
	}
}

// link puts pool entry i into its wheel slot in (at, seq) order.
func (q *queue) link(i int32) {
	s := slotOf(q.pool[i].at)
	w, b := s>>6, uint64(1)<<(s&63)
	q.n++
	if q.used[w]&b == 0 {
		q.used[w] |= b
		q.pool[i].next = i
		q.tail[s] = i
		return
	}
	t := q.tail[s]
	if q.pool[t].before(&q.pool[i]) {
		q.pool[i].next = q.pool[t].next
		q.pool[t].next = i
		q.tail[s] = i
		return
	}
	// i sorts before the tail: walk from the first event to its place.
	prev := t
	for c := q.pool[t].next; q.pool[c].before(&q.pool[i]); c = q.pool[c].next {
		prev = c
	}
	q.pool[i].next = q.pool[prev].next
	q.pool[prev].next = i
}

// pop removes the earliest event and returns what dispatching it needs.
// The queue must be non-empty. (Returning the fields rather than the event
// reads each at the width it was written, which keeps the load from
// stalling behind the stores that just filled the entry.)
func (q *queue) pop() (at Time, proc *Proc, fn func(), daemon bool) {
	var f int32
	s := slotOf(q.head)
	if q.n == 0 {
		f = q.popOver()
	} else {
		t := q.tail[s]
		f = q.pool[t].next
		q.n--
		if f == t {
			q.used[s>>6] &^= 1 << (s & 63)
		} else {
			q.pool[t].next = q.pool[f].next
		}
	}
	ev := &q.pool[f]
	at, proc, fn, daemon = ev.at, ev.proc, ev.fn, ev.daemon
	ev.proc, ev.fn = nil, nil // drop references
	ev.next = q.free
	q.free = f
	q.head = q.earliest(s)
	return at, proc, fn, daemon
}

// earliest reports the time of the earliest queued event, given that no
// wheel event lies in a slot before s (in window order).
func (q *queue) earliest(s int) Time {
	if q.n > 0 {
		w := s >> 6
		m := q.used[w] &^ (1<<(s&63) - 1)
		for m == 0 {
			// Coming back to s's own word reads its low half: the window
			// wraps around the ring of slots.
			w = (w + 1) % len(q.used)
			m = q.used[w]
		}
		t := q.tail[w<<6|bits.TrailingZeros64(m)]
		return q.pool[q.pool[t].next].at
	}
	if len(q.over) > 0 {
		return q.pool[q.over[0]].at
	}
	return ^Time(0)
}

// advance moves the window to the clock's slot and migrates the overflow
// events the window now covers. It runs whenever the clock leaves the
// window's first slot, so no event is ever inserted into the wheel while
// an earlier one still waits in the overflow.
func (q *queue) advance(now Time) {
	b := now &^ (slotWidth - 1)
	q.base = b
	for len(q.over) > 0 && q.pool[q.over[0]].at-b < wheelSpan {
		q.link(q.popOver())
	}
}

// clear drops every queued event without touching the window.
func (q *queue) clear() {
	clear(q.pool)
	q.pool = q.pool[:0]
	q.free = noEvent
	q.used = [wheelSlots / 64]uint64{}
	q.n = 0
	q.over = q.over[:0]
	q.head = ^Time(0)
}

func (q *queue) alloc(ev event) int32 {
	if i := q.free; i != noEvent {
		q.free = q.pool[i].next
		q.pool[i] = ev
		return i
	}
	q.pool = append(q.pool, ev)
	return int32(len(q.pool) - 1)
}

// less orders two pool entries by (at, seq).
func (q *queue) less(a, b int32) bool { return q.pool[a].before(&q.pool[b]) }

// pushOver inserts pool entry i into the 4-ary overflow heap. A 4-ary heap
// trades slightly more comparisons on pop for half the swap depth and
// better cache locality than the binary container/heap.
func (q *queue) pushOver(i int32) {
	q.over = append(q.over, i)
	h := q.over
	c := len(h) - 1
	for c > 0 {
		parent := (c - 1) / 4
		if !q.less(h[c], h[parent]) {
			break
		}
		h[c], h[parent] = h[parent], h[c]
		c = parent
	}
}

// popOver removes the overflow's minimum event and returns its pool index.
func (q *queue) popOver() int32 {
	h := q.over
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	q.over = h
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		least := first
		for c := first + 1; c < min(first+4, n); c++ {
			if q.less(h[c], h[least]) {
				least = c
			}
		}
		if !q.less(h[least], h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	return top
}
