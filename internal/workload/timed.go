package workload

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

// The time-gated loop's fixed shape (see TimedStressConfig).
const (
	timedHome                = 0
	timedHold   sim.Duration = 6 * sim.CyclesPerMicrosecond
	timedThink  sim.Duration = 20 * sim.CyclesPerMicrosecond
	timedWarmup sim.Duration = 200 * sim.CyclesPerMicrosecond
)

// TimedStressConfig parameterizes the time-gated lock stress loop, a
// variant of the Figure 5 loop. The classic loop is round-gated and
// phase-aligned with a Barrier, so its cost grows with the slowest lock's
// rounds. Here every processor instead runs until a simulated-time
// deadline and measurement is gated by simulated time alone: every lock
// gets the same window, and a lock that collapses under dense contention
// shows as few rounds rather than as a run that never ends.
//
// The loop's shape is fixed. Each round holds a lock homed on module 0 for
// 6us, then thinks for a time jittered uniformly in [0, 20us) per
// processor. The first 200us of simulated time are unmeasured, so the locks
// (and the Tuned controller) settle first. The w-th participant runs on
// processor (w mod stations)*procsPerStation + w/stations, round-robin
// across stations, so a partial-machine run still generates cross-station
// lock traffic.
type TimedStressConfig struct {
	// Machine is the hardware configuration, including the seed.
	Machine sim.Config
	// Kind selects the lock algorithm; ignored when MakeLock is set.
	Kind locks.Kind
	// MakeLock, when non-nil, overrides lock construction (to pass
	// tune.Params or keep a controller handle).
	MakeLock func(m *sim.Machine, home int) locks.Lock
	// Procs is how many processors run the loop.
	Procs int
	// Window bounds the run in simulated time: rounds whose acquire starts
	// in [200us, 200us+Window) are measured, and every processor stops
	// starting rounds at 200us+Window.
	Window sim.Duration
}

// timedSlot is one processor's private counters.
type timedSlot struct {
	rounds, handoffs, localHandoffs, waitCycles uint64
}

// TimedStressResult summarizes a timed stress run.
type TimedStressResult struct {
	// Rounds is the total measured acquisitions; PerProc the per-processor
	// breakdown (indexed by participant, not processor ID).
	Rounds  uint64
	PerProc []uint64
	// Handoffs counts measured acquisitions whose previous holder was a
	// different processor; LocalHandoffs those from the same station.
	Handoffs, LocalHandoffs uint64
	// WaitUS is the mean acquire latency over measured rounds.
	WaitUS float64
	// RoundsPerMS is measured throughput: rounds per simulated
	// millisecond of window.
	RoundsPerMS float64
	// Elapsed is the final simulated time.
	Elapsed sim.Time
}

// Fingerprint renders everything the run publishes, per processor, so two
// runs can be compared byte for byte.
func (r *TimedStressResult) Fingerprint() string {
	s := fmt.Sprintf("rounds=%d handoffs=%d local=%d wait=%.4f thr=%.4f elapsed=%d\n",
		r.Rounds, r.Handoffs, r.LocalHandoffs, r.WaitUS, r.RoundsPerMS, r.Elapsed)
	for i, n := range r.PerProc {
		s += fmt.Sprintf("proc %d rounds=%d\n", i, n)
	}
	return s
}

// TimedStressRun executes the time-gated stress loop and aggregates the
// per-processor slots after the machine has stopped.
func TimedStressRun(cfg TimedStressConfig) *TimedStressResult {
	m := sim.NewMachine(cfg.Machine)
	mcfg := m.Config()
	mk := cfg.MakeLock
	if mk == nil {
		mk = func(m *sim.Machine, home int) locks.Lock { return locks.New(m, cfg.Kind, home) }
	}
	pps := mcfg.ProcsPerStation
	// The protected data lives with the lock, as kernel data does; the
	// owner word carries the previous holder's identity in-band (through
	// simulated memory, under the lock), which is how hand-off locality is
	// tracked.
	l := mk(m, timedHome)
	data := m.Alloc(timedHome, 8)
	owner := m.Alloc(timedHome, 1)
	deadline := sim.Time(timedWarmup + cfg.Window)

	slots := make([]timedSlot, cfg.Procs)
	for w := 0; w < cfg.Procs; w++ {
		id := (w%mcfg.Stations)*pps + w/mcfg.Stations
		slot := &slots[w]
		m.Go(id, func(p *sim.Proc) {
			for {
				t0 := p.Now()
				if t0 >= deadline {
					return
				}
				l.Acquire(p)
				wait := p.Now() - t0
				prev := p.Swap(owner, uint64(1+p.ID()))
				if t0 >= sim.Time(timedWarmup) {
					slot.rounds++
					slot.waitCycles += uint64(wait)
					if prev != 0 && prev != uint64(1+p.ID()) {
						slot.handoffs++
						if int(prev-1)/pps == p.Station() {
							slot.localHandoffs++
						}
					}
				}
				holdWork(p, data, timedHold)
				l.Release(p)
				p.Think(p.RNG().Duration(timedThink))
			}
		})
	}
	m.RunAll()
	m.Shutdown()

	res := &TimedStressResult{Elapsed: m.Eng.Now(), PerProc: make([]uint64, cfg.Procs)}
	var waitCycles uint64
	for i := range slots {
		res.PerProc[i] = slots[i].rounds
		res.Rounds += slots[i].rounds
		res.Handoffs += slots[i].handoffs
		res.LocalHandoffs += slots[i].localHandoffs
		waitCycles += slots[i].waitCycles
	}
	if res.Rounds > 0 {
		res.WaitUS = sim.Duration(waitCycles).Microseconds() / float64(res.Rounds)
	}
	if cfg.Window > 0 {
		res.RoundsPerMS = float64(res.Rounds) / (cfg.Window.Microseconds() / 1000)
	}
	return res
}
