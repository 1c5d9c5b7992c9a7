package sim

import "fmt"

// DistClass is the topological distance of a memory access on the simulated
// machine: same processor-memory module, same station, across a local ring,
// or — on machines with a multi-level ring hierarchy — across the global
// ring connecting ring groups. It is the unit the paper reasons in —
// "remote" spinning is anything past DistLocal. Flat (single-ring) machines
// never produce DistGlobal.
type DistClass int

const (
	DistLocal DistClass = iota
	DistStation
	DistRing
	DistGlobal
)

// NumDistClasses sizes arrays indexed by DistClass.
const NumDistClasses = 4

// String names the distance class for reports and trace args.
func (d DistClass) String() string {
	switch d {
	case DistLocal:
		return "local"
	case DistStation:
		return "station"
	case DistRing:
		return "ring"
	case DistGlobal:
		return "global"
	}
	return fmt.Sprintf("DistClass(%d)", int(d))
}

// Distance classifies the topological distance from module src to module
// dst given the machine's station grouping. Region ids resolve to the
// physical module currently backing them, so the class reflects where the
// words live right now, not where they were first allocated.
func (m *Memory) Distance(src, dst int) DistClass {
	src, dst = m.Home(src), m.Home(dst)
	switch {
	case src == dst:
		return DistLocal
	case m.stationOf(src) == m.stationOf(dst):
		return DistStation
	case m.localRings == nil || m.groupOf(m.stationOf(src)) == m.groupOf(m.stationOf(dst)):
		return DistRing
	default:
		return DistGlobal
	}
}

// EventKind is the type of a trace event.
type EventKind int

const (
	// EvAccess is one memory reference (load/store/swap/cas) from a
	// processor to a module, spanning issue to completion.
	EvAccess EventKind = iota
	// EvPark marks a processor blocking with no scheduled wake-up.
	EvPark
	// EvUnpark marks a parked processor being rescheduled.
	EvUnpark
	// EvIRQ marks delivery of an inter-processor interrupt.
	EvIRQ
	// EvSpan is a duration event emitted by instrumentation layered above
	// the machine; Span says which kind (lock wait, page fault, RPC, ...).
	EvSpan
	// EvInstant is a generic point event emitted by instrumentation.
	EvInstant
)

// String names the kind for the trace category field.
func (k EventKind) String() string {
	switch k {
	case EvAccess:
		return "mem"
	case EvPark, EvUnpark:
		return "sched"
	case EvIRQ:
		return "irq"
	case EvSpan:
		return "span"
	case EvInstant:
		return "instant"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// SpanKind types the EvSpan records of the unified pipeline, so sinks can
// aggregate by meaning instead of parsing names: lock wait/hold from
// locks.Stats, the kernel's fault path and its per-table lock sections,
// and the cluster layer's RPCs and IPI handler executions.
type SpanKind int

const (
	// SpanNone marks an untyped span (instrumentation that predates, or
	// does not care about, the typed pipeline).
	SpanNone SpanKind = iota
	// SpanLockWait covers an Acquire call, arrival to lock grant.
	SpanLockWait
	// SpanLockHold covers grant to Release.
	SpanLockHold
	// SpanFault covers a kernel page fault, trap entry to trap exit.
	SpanFault
	// SpanUnmap covers a kernel Unmap call.
	SpanUnmap
	// SpanRegionSection is the region-table search under the mm lock.
	SpanRegionSection
	// SpanFCBSection is the file-cache-block search under the mm lock.
	SpanFCBSection
	// SpanPageSection is the page-descriptor search + reserve under the
	// mm lock.
	SpanPageSection
	// SpanRPC covers the caller side of a cross-cluster RPC, issue to
	// reply.
	SpanRPC
	// SpanIPI covers the handler side of an RPC: the IPI handler's
	// execution on the target processor.
	SpanIPI
	// SpanMigrate covers an online migration of a kernel-data region: the
	// copy burst plus the brief migration lock hold. Arg is the words moved.
	SpanMigrate
	// SpanRequest covers one server request, arrival to completion — the
	// sojourn time the open-loop workloads report. Arg is the tenant rank.
	SpanRequest
)

// String names the span kind for trace args and aggregation keys.
func (k SpanKind) String() string {
	switch k {
	case SpanNone:
		return "span"
	case SpanLockWait:
		return "lock.wait"
	case SpanLockHold:
		return "lock.hold"
	case SpanFault:
		return "vm.fault"
	case SpanUnmap:
		return "vm.unmap"
	case SpanRegionSection:
		return "vm.region"
	case SpanFCBSection:
		return "vm.fcb"
	case SpanPageSection:
		return "vm.page"
	case SpanRPC:
		return "rpc.call"
	case SpanIPI:
		return "rpc.serve"
	case SpanMigrate:
		return "vm.migrate"
	case SpanRequest:
		return "server.request"
	}
	return fmt.Sprintf("SpanKind(%d)", int(k))
}

// SpanKindFromString inverts String (trace files round-trip through JSON).
// Unknown names map to SpanNone.
func SpanKindFromString(s string) SpanKind {
	for k := SpanNone; k <= SpanRequest; k++ {
		if k.String() == s {
			return k
		}
	}
	return SpanNone
}

// TraceEvent is one typed record of simulated activity. Start==End for
// point events; Src/Dst are memory modules (-1 when not applicable).
// Every record that names both endpoints carries their distance class, so
// sinks can weigh it without re-deriving topology.
type TraceEvent struct {
	Kind  EventKind
	Span  SpanKind // meaning of an EvSpan record; SpanNone otherwise
	Name  string
	Proc  int // processor id; the trace row the event renders on
	Start Time
	End   Time
	Src   int // accessor's module (memory access or span), -1 otherwise
	Dst   int // accessed/home module (memory access or span), -1 otherwise
	Dist  DistClass
	Arg   uint64 // kind-specific payload (e.g. the address accessed)
}

// Tracer receives typed events from the machine (memory accesses,
// park/unpark, IRQ delivery) and from instrumentation built on top of it
// (lock wait/hold spans, kernel fault/RPC spans). A nil tracer costs one
// pointer check per potential event.
type Tracer interface {
	Event(TraceEvent)
}

// SetTracer installs (or, with nil, removes) the tracer that observes this
// engine's machine.
func (e *Engine) SetTracer(t Tracer) { e.tracer = t }

// Tracer reports the installed tracer, nil if none.
func (e *Engine) Tracer() Tracer { return e.tracer }

// Emit forwards an event to the installed tracer, if any. Instrumentation
// code calls this so it need not track whether tracing is on.
func (e *Engine) Emit(ev TraceEvent) {
	if e.tracer != nil {
		e.tracer.Event(ev)
	}
}

// SetTracer installs the tracer on the machine's engine.
func (m *Machine) SetTracer(t Tracer) {
	m.Eng.SetTracer(t)
}

// Tracing reports whether a tracer is installed — instrumentation checks
// this before building span names, so disabled tracing costs nothing.
func (m *Machine) Tracing() bool { return m.Eng.tracer != nil }

// EmitSpan forwards a typed span to the installed tracer, computing the
// src→dst distance class from the emitting processor's module and the
// object's home module (dst may be -1 when the object has no home; a
// region id is resolved to the physical module currently backing it). It
// charges no simulated time.
func (m *Machine) EmitSpan(kind SpanKind, name string, proc int, start, end Time, dst int, arg uint64) {
	t := m.Eng.tracer
	if t == nil {
		return
	}
	if dst >= 0 {
		dst = m.Mem.Home(dst)
	}
	ev := TraceEvent{Kind: EvSpan, Span: kind, Name: name, Proc: proc,
		Start: start, End: end, Src: proc, Dst: dst, Arg: arg}
	if dst >= 0 {
		ev.Dist = m.Mem.Distance(proc, dst)
	}
	t.Event(ev)
}
