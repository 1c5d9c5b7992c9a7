package tune

import (
	"fmt"

	"hurricane/internal/sim"
)

// sampler is the controller's observation hook as an autonomic policy:
// each Tick samples the home module's utilization over the elapsed window
// plus the lock's cumulative counters (via probe, read at zero simulated
// cost) and feeds the windowed diff to the controller. It neither consumes
// simulated time nor keeps the run alive — determinism is preserved, and
// the only feedback path into the simulation is the constants the
// controller publishes. Its decisions also go to the trace, as instants.
//
// Resource statistics are windowed (experiments call ResetStats mid-run to
// open a measurement window), so the sampler diffs the cumulative busy
// counter and resynchronizes whenever it observes the counter move
// backwards: the window that straddles a reset is dropped rather than
// mis-measured. Lock counters are monotone and need no such handling.
type sampler struct {
	c      *Controller
	m      *sim.Machine
	region int // the lock word's module (or migratable region) id
	home   *sim.Resource
	probe  func() Counters

	lastBusy sim.Duration
	lastTime sim.Time
	last     Counters
}

// Name implements autonomic.Policy.
func (s *sampler) Name() string { return "tune" }

// Tick implements autonomic.Policy: one observation window.
func (s *sampler) Tick(now sim.Time) {
	busy := s.home.Busy
	cur := s.probe()
	defer func() {
		s.lastBusy, s.lastTime = busy, now
		s.last = cur
	}()
	if busy < s.lastBusy || now <= s.lastTime {
		// A ResetStats landed inside this window; skip it.
		return
	}
	d, ok := s.c.Observe(Sample{
		Now:      now,
		HomeUtil: float64(busy-s.lastBusy) / float64(now-s.lastTime),
		Lock: Counters{
			Attempts:           cur.Attempts - s.last.Attempts,
			Failures:           cur.Failures - s.last.Failures,
			Acquisitions:       cur.Acquisitions - s.last.Acquisitions,
			WaitCycles:         cur.WaitCycles - s.last.WaitCycles,
			RemoteAcquisitions: cur.RemoteAcquisitions - s.last.RemoteAcquisitions,
		},
	})
	if ok {
		d.Emit(s.m, s.m.Mem.Home(s.region))
	}
}

// Attach wires a Controller to the lock whose word is at address word on
// machine m, naming the lock by the word in its decisions. With
// Params.Plane set the sampler registers on the shared autonomics plane
// (one daemon cadence ticks every policy in phase order); otherwise it
// self-schedules a private daemon event every Period — the historical
// shape, byte-identical to the plane at the same period because daemon
// events at one timestamp fire in registration order either way.
func Attach(m *sim.Machine, word sim.Addr, probe func() Counters, c *Controller) {
	region := word.Module()
	c.object = fmt.Sprintf("lock@%d.%d", region, uint32(word))
	s := &sampler{c: c, m: m, region: region, home: m.Mem.Module(region), probe: probe, last: probe()}
	s.lastBusy = s.home.Busy
	if pl := c.p.Plane; pl != nil {
		pl.Add(s)
		return
	}
	m.Eng.Every(Period, s.Tick)
}
