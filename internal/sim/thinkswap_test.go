package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// thinkSwapCase is one scenario of TestThinkSwapEquivalence. setup starts
// the processors, each retry going through step; drive runs the engine,
// calling snap after every Run so mid-run states are compared too.
type thinkSwapCase struct {
	name  string
	setup func(m *Machine, a Addr, step stepFn, log func(string, ...any))
	drive func(m *Machine, snap func())
}

type stepFn func(p *Proc, d Duration, a Addr, v uint64) uint64

// thinkSwapRun is everything a run exposes: the processors' own logs, the
// trace, and engine and processor state at each snapshot.
type thinkSwapRun struct {
	log   []string
	trace []TraceEvent
	snaps []string
}

func runThinkSwapCase(c thinkSwapCase, step stepFn) thinkSwapRun {
	var r thinkSwapRun
	m := NewMachine(Config{Seed: 3})
	tr := &collectTracer{}
	m.SetTracer(tr)
	a := m.Alloc(0, 1)
	c.setup(m, a, step, func(format string, args ...any) {
		r.log = append(r.log, fmt.Sprintf("t=%d ", m.Eng.Now())+fmt.Sprintf(format, args...))
	})
	snap := func() {
		s := fmt.Sprintf("now=%d pending=%d dispatched=%d elided=%d stopped=%v word=%d",
			m.Eng.Now(), m.Eng.Pending(), m.Eng.processed, m.Eng.elided, m.Eng.Stopped(), m.Mem.Peek(a))
		for _, p := range m.Procs {
			s += fmt.Sprintf(" %+v", p.Counters())
		}
		r.snaps = append(r.snaps, s)
	}
	c.drive(m, snap)
	m.RunAll()
	snap()
	m.Shutdown()
	r.trace = tr.events
	return r
}

func runAll(m *Machine, snap func()) { m.RunAll() }

// splitStep is the reference the fused step must match.
func splitStep(p *Proc, d Duration, a Addr, v uint64) uint64 {
	p.Think(d)
	return p.Swap(a, v)
}

// retries runs n retries of step on processor p, logging each result.
func retries(p *Proc, n int, a Addr, step stepFn, delay func(p *Proc, k int) Duration, log func(string, ...any)) {
	for k := 0; k < n; k++ {
		old := step(p, delay(p, k), a, uint64(p.ID()+1))
		p.Branch(1)
		log("p%d swap %d got %d", p.ID(), k, old)
	}
}

// TestThinkSwapEquivalence runs each scenario twice, once with ThinkSwap
// and once with Think followed by Swap, and requires identical results:
// every value returned, every clock, the instruction counters, the split
// between dispatched and elided events, and the traced event sequence.
// The scenarios cover the engine-performed swap (contended retries, including
// simultaneous wakes), the elided path, an interrupt due at the wake (the
// processor must take it before swapping), interrupts disabled, Run bounds
// at and just after the wake, and Stop from an event.
func TestThinkSwapEquivalence(t *testing.T) {
	cases := []thinkSwapCase{
		{
			name: "contended",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				for i := 0; i < 12; i++ {
					m.Go(i, func(p *Proc) {
						retries(p, 25, a, step, func(p *Proc, k int) Duration { return Duration(8 * (1 + (k+p.ID())%3)) }, log)
					})
				}
			},
			drive: runAll,
		},
		{
			// Every retry wakes on the next 256-cycle boundary, so all
			// swaps of a round start at one time, in the order the
			// wakes were scheduled. Processor 6 always thinks and swaps
			// separately: an engine-performed swap that fell behind it (a
			// fresh sequence number) would change what everyone reads.
			name: "simultaneous-wakes",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				grid := func(p *Proc, _ int) Duration { return 256 - Duration(p.Now()%256) }
				for i := 0; i < 12; i++ {
					s := step
					if i == 6 {
						s = splitStep
					}
					m.Go(i, func(p *Proc) { retries(p, 10, a, s, grid, log) })
				}
			},
			drive: runAll,
		},
		{
			name: "uncontended",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				m.Go(5, func(p *Proc) {
					retries(p, 30, a, step, func(_ *Proc, k int) Duration { return Duration(k % 4 * 7) }, log)
				})
			},
			drive: runAll,
		},
		{
			name: "irq-due-at-wake",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				m.Go(1, func(p *Proc) {
					retries(p, 3, a, step, func(*Proc, int) Duration { return 200 }, log)
				})
				m.Eng.At(10, func() {
					m.SendIPI(1, func(p *Proc) {
						log("irq on p%d", p.ID())
						p.Store(a, 99)
					})
				})
			},
			drive: runAll,
		},
		{
			name: "irq-disabled",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				m.Go(1, func(p *Proc) {
					p.SetIRQ(false)
					retries(p, 3, a, step, func(*Proc, int) Duration { return 200 }, log)
					p.SetIRQ(true)
					log("p1 enabled irqs")
				})
				m.Go(2, func(p *Proc) {
					retries(p, 6, a, step, func(*Proc, int) Duration { return 90 }, log)
				})
				m.Eng.At(10, func() {
					m.SendIPI(1, func(p *Proc) {
						log("irq on p%d", p.ID())
						p.Store(a, 99)
					})
				})
			},
			drive: runAll,
		},
		{
			// p1's only think wakes at 100; its swap completes later.
			name: "run-until-wake-then-mid-swap",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				m.Go(12, func(p *Proc) {
					retries(p, 1, a, step, func(*Proc, int) Duration { return 100 }, log)
				})
				m.Go(2, func(p *Proc) {
					retries(p, 4, a, step, func(*Proc, int) Duration { return 30 }, log)
				})
			},
			drive: func(m *Machine, snap func()) {
				m.Run(100)
				snap()
				m.Run(103)
				snap()
			},
		},
		{
			name: "stop-from-event",
			setup: func(m *Machine, a Addr, step stepFn, log func(string, ...any)) {
				m.Eng.At(100, func() { log("stop before the wakes"); m.Eng.Stop() })
				for i := 0; i < 8; i++ {
					m.Go(i, func(p *Proc) {
						retries(p, 4, a, step, func(*Proc, int) Duration { return 100 }, log)
					})
				}
				// Runs after the processors have started, so this Stop is
				// queued behind their wakes.
				m.Eng.At(0, func() {
					m.Eng.At(100, func() { log("stop after the wakes"); m.Eng.Stop() })
				})
			},
			drive: func(m *Machine, snap func()) {
				for i := 0; i < 3; i++ {
					m.RunAll()
					snap()
				}
			},
		},
	}
	fused := func(p *Proc, d Duration, a Addr, v uint64) uint64 { return p.ThinkSwap(d, a, v) }
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := runThinkSwapCase(c, fused), runThinkSwapCase(c, splitStep)
			if !reflect.DeepEqual(got.log, want.log) {
				t.Fatalf("logs differ:\nThinkSwap:  %q\nThink+Swap: %q", got.log, want.log)
			}
			if !reflect.DeepEqual(got.snaps, want.snaps) {
				t.Fatalf("state differs:\nThinkSwap:  %q\nThink+Swap: %q", got.snaps, want.snaps)
			}
			if !reflect.DeepEqual(got.trace, want.trace) {
				t.Fatalf("traces differ: %d events vs %d", len(got.trace), len(want.trace))
			}
			if len(want.log) == 0 {
				t.Fatal("scenario logged nothing")
			}
		})
	}
}
