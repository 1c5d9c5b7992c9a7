// Package tune closes the feedback loop the paper leaves open: instead of
// hard-coding the backoff cap (the kernel's 35us) and the spin-vs-queue
// choice per lock, a Controller consumes the simulator's windowed
// telemetry — home-module utilization from sim.Resource windows and
// per-lock acquire-latency and fast-path counters — and adjusts the
// constants at runtime. The controller's own thresholds are fixed package
// constants; only the cap ceiling, the machine's station count and the
// sampling plane are parameters (Params).
//
// The policy follows the paper's §2.1/§4.2 analysis with one measured
// refinement. Two signals drive the backoff cap:
//
//   - The windowed mean acquire latency. A spinner's useful poll rate is
//     set by how long it actually waits — Figure 5b's sweep shows the best
//     fixed cap grows with contention roughly like the wait itself — so
//     the cap multiplicatively tracks WaitFactor x the measured wait,
//     staying within a factor of two of the target. This is what lets one
//     lock match the best fixed cap at every contention level.
//
//   - The home module's measured utilization. Spinning remote to a lock's
//     home module steals memory bandwidth from the holder (§2.1), so a
//     saturated module forces the cap up regardless of wait, and when even
//     the maximum cap cannot bring the module out of saturation the
//     controller crosses over from test-and-set spinning to a queue lock,
//     where waiters spin locally and the home module carries only
//     hand-offs.
//
// The controller is deterministic by construction: it observes only at
// daemon sampling events (sim.Engine.Every), which are ordered by the same
// (time, sequence) discipline as all simulation events and consume no
// simulated time, so attaching a tuner changes nothing about a run except
// through the decisions it publishes.
//
// This package, trace/placement's online Daemon, and the autonomic
// Replicator are three instances of one controller pattern, built on the
// shared signal and decision pieces of internal/autonomic: sample at a
// fixed Engine.Every cadence (or on the shared autonomic.Plane), smooth
// the windowed signal (decayed ratios and an EWMA, all at 0.75 retention —
// NUMA traffic and lock waits are equally bursty per window), and act only
// past a threshold with hysteresis (the utilization saturation/relief band
// here; the cost-improvement indifference band plus confirmation streak
// there; the write-fraction band in the replicator). The difference is the
// actuator: this controller publishes constants (backoff cap, lock mode),
// which are free to change, while the placement daemon and replicator move
// or copy kernel data, which charges real traffic — hence their extra
// payback and budget guards.
package tune

import (
	"fmt"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
)

// Mode is the lock shape the controller has currently chosen.
type Mode int

const (
	// ModeSpin: contenders poll the lock word with capped exponential
	// backoff — lowest latency while the home module has headroom.
	ModeSpin Mode = iota
	// ModeQueue: contenders enqueue and spin locally; only the queue head
	// polls the word — the distributed-lock regime past saturation.
	ModeQueue
	// ModeCohort: contenders serialize through a hierarchical cohort lock
	// whose grants batch by station — the regime where even local-spin
	// queueing leaves the home module saturated because every hand-off
	// crosses the ring. Only reachable on machines with more than one
	// station (Params.Stations).
	ModeCohort
)

// String names the mode for reports and table rows.
func (m Mode) String() string {
	switch m {
	case ModeQueue:
		return "queue"
	case ModeCohort:
		return "cohort"
	}
	return "spin"
}

// The controller's fixed constants: the thresholds and bounds of the cap
// law and the mode chain. Every tuned lock runs at these values.
const (
	// Period is the sampling window of a self-scheduled sampler. Shorter
	// windows react faster; longer windows smooth transient bursts. A
	// plane-scheduled sampler ticks at the plane's period instead.
	Period sim.Duration = 100 * sim.CyclesPerMicrosecond
	// SatHigh is the home-module utilization above which the module counts
	// as saturating: the cap doubles, and if the cap is already at MaxCap
	// the lock crosses over to queue mode. It sits between the holder-only
	// baseline and the ~1.0 a saturated small-cap spin lock measures.
	SatHigh = 0.70
	// SatLow is the utilization below which a queue-mode lock returns to
	// spinning. The [SatLow, SatHigh] gap is the mode hysteresis band.
	SatLow = 0.45
	// WaitFactor scales the windowed mean acquire latency into the cap
	// target: the cap climbs while below half the target and decays while
	// above double it.
	WaitFactor = 1.0
	// MinCap is the smallest backoff cap, and DefaultMaxCap the largest
	// when Params.MaxCap is zero — the two ends of the paper's own Figure 5
	// sweep.
	MinCap        sim.Duration = 8 * sim.CyclesPerMicrosecond
	DefaultMaxCap sim.Duration = 2000 * sim.CyclesPerMicrosecond
	// MinHead and MaxHead clamp the queue head's polling backoff in queue
	// and cohort modes.
	MinHead sim.Duration = 2 * sim.CyclesPerMicrosecond
	MaxHead sim.Duration = 64 * sim.CyclesPerMicrosecond
	// RingFrac is the smoothed cross-station acquisition fraction above
	// which a saturated queue-mode lock escalates to cohort mode. The
	// fraction is measured ring traffic — the share of acquisitions
	// arriving from stations other than the lock's home — so the escalation
	// fires only when ring-crossing hand-offs really are the traffic, not
	// merely because the machine has stations to spare.
	RingFrac = 0.5
	// CohortWait is the ring-bound escalation threshold, the unconstrained
	// spin stance's largest backoff: in queue mode, a smoothed mean acquire
	// wait at or above it while ring traffic exceeds RingFrac escalates to
	// cohort mode even though the home module looks idle. On a large
	// machine the ring serializes hand-offs while the home module sleeps,
	// so the utilization signal alone reads that regime as "contention
	// gone" and thrashes queue<->spin. It is an absolute duration,
	// deliberately not tied to Params.MaxCap: a latency-bounded deployment
	// clamps MaxCap far below any wait that should force the cohort shape.
	CohortWait sim.Duration = 2000 * sim.CyclesPerMicrosecond
	// DwellWindows is the minimum number of observation windows between
	// mode switches (the EWMA horizon). A switch resets the smoothed
	// signals, and the dwell holds the new mode until the fresh windows can
	// speak, so stale pre-switch samples can never bounce the mode straight
	// back.
	DwellWindows = 4
	// LogLimit bounds the retained window and decision logs.
	LogLimit = 256
)

// Params bounds the controller. The zero value takes defaults.
type Params struct {
	// MaxCap clamps the backoff cap from above (default DefaultMaxCap). A
	// latency-bounded deployment lowers it; the controller then crosses
	// to queue mode sooner, since it cannot back off further.
	MaxCap sim.Duration
	// Stations is the machine's station count. Cohort mode only exists on
	// hierarchical machines, so it is reachable only when Stations > 1
	// (default 1: disabled).
	Stations int
	// Plane, when non-nil, registers the controller's sampler on the shared
	// autonomics plane instead of a private Engine.Every daemon: the plane's
	// single cadence then ticks it alongside the placement and replication
	// policies, so each phase observes the others' actions. The plane's
	// period rules; Period applies only to a self-scheduled sampler.
	Plane *autonomic.Plane
}

func (p Params) withDefaults() Params {
	if p.MaxCap == 0 {
		p.MaxCap = DefaultMaxCap
	}
	if p.Stations == 0 {
		p.Stations = 1
	}
	return p
}

// waitDecay is the per-window retention of the decayed wait sums and the
// utilization EWMA (a ~4 window horizon); waitDenFloor is the decayed-
// acquisition mass below which the wait estimate is frozen rather than
// computed from noise.
const (
	waitDecay    = 0.75
	waitDenFloor = 0.5
)

// Counters is the cumulative per-lock telemetry a sampling hook reads;
// the sampler diffs successive snapshots into per-window Samples. All
// counters must be monotone non-decreasing.
type Counters struct {
	// Attempts and Failures count fast-path swaps and how many found the
	// word taken.
	Attempts, Failures uint64
	// Acquisitions counts completed Acquire calls.
	Acquisitions uint64
	// WaitCycles accumulates the total acquire latency of those
	// acquisitions, in cycles.
	WaitCycles sim.Duration
	// RemoteAcquisitions counts the subset of Acquisitions made by
	// processors on a different station than the lock's home — the
	// ring-traffic signal the queue→cohort escalation feeds on.
	RemoteAcquisitions uint64
}

// Sample is one observation window delivered to Observe: the home module's
// utilization over the window plus the lock's own windowed counters.
type Sample struct {
	// Now is the sampling time.
	Now sim.Time
	// HomeUtil is the home module's busy fraction over the window.
	HomeUtil float64
	// Lock is the lock telemetry accumulated over the window.
	Lock Counters
}

// failFrac is the window's fast-path failure fraction (0 with no attempts).
func (s Sample) failFrac() float64 {
	if s.Lock.Attempts == 0 {
		return 0
	}
	return float64(s.Lock.Failures) / float64(s.Lock.Attempts)
}

// Window is the controller's telemetry for one observation. HomeUtil is
// the raw window measurement; UtilEWMA is the smoothed value the
// controller acted on.
type Window struct {
	// At is the simulated time of the observation window's end.
	At sim.Time
	// HomeUtil is the window's raw home-module utilization.
	HomeUtil float64
	// UtilEWMA is the smoothed utilization the decision used.
	UtilEWMA float64
	// WaitUS is the per-acquisition wait estimate, in microseconds.
	WaitUS float64
	// FailFrac is the window's failed-swap fraction.
	FailFrac float64
	// RingFrac is the smoothed cross-station acquisition fraction.
	RingFrac float64
	// Cap is the spin backoff cap in force after the window.
	Cap sim.Duration
	// Head is the backoff head start in force after the window.
	Head sim.Duration
	// Mode is the lock shape in force after the window.
	Mode Mode
}

// trigger is the signal that moved a constant: its name, the value the
// controller acted on, and the threshold that value crossed.
type trigger struct {
	signal           string
	value, threshold float64
}

// Controller adapts one lock's constants from measured utilization. All
// methods are called from simulation context (engine or proc), which is
// single-threaded, so no synchronization is needed — and none is wanted:
// the controller's reads are the zero-cost observation the sampling hook
// promises.
type Controller struct {
	p    Params
	mode Mode
	cap  sim.Duration
	head sim.Duration
	// wait is the decayed ratio of windowed wait cycles to completed
	// acquisitions. Under an unfair spin lock the per-window mean is
	// bimodal — windows where only lucky near-release winners complete
	// read a few microseconds while the true long-waiters are still
	// pending — so a single window is a biased estimator. Decaying both
	// sums weights each completion by its actual wait, smooths the
	// alternation, and the floor leaves the ratio untouched (frozen)
	// across windows in which nothing completes.
	wait autonomic.DecayedRatio
	// ring decays remote over total acquisitions on the same horizon — the
	// measured share of acquisitions arriving from off-home stations, the
	// queue→cohort escalation signal.
	ring autonomic.DecayedRatio
	// att decays windowed lock attempts over the same horizon. Its job is
	// to tell "idle" apart from "wedged": a queue forming behind a convoy
	// shows polling attempts with no completed acquisitions, while a
	// genuinely idle lock shows neither — only the latter may walk the
	// mode chain back down.
	att autonomic.DecayedSum
	// util smooths home-module utilization over the same horizon. Windowed
	// spin-lock utilization is bimodal too: each completed acquisition
	// restarts the winner's backoff at 1us, so windows catching a restart
	// burst read near saturation while their neighbors read the long-cap
	// baseline. Decisions are taken on the smoothed value, so only
	// sustained saturation — not a one-window burst — can force the cap up
	// or cross the lock over to queue mode.
	util autonomic.EWMA
	// band is the [SatLow, SatHigh] utilization hysteresis band the mode
	// chain walks on.
	band autonomic.Band
	// dwell counts observation windows remaining before another mode
	// switch is permitted. A switch resets the decayed signals (they were
	// measured under the old mode and say nothing about the new one), so
	// the dwell also covers the windows the fresh EWMA needs to mean
	// anything.
	dwell autonomic.Dwell
	// switches counts mode transitions; samples counts observations.
	switches, samples uint64
	log               []Window
	decisions         []autonomic.Decision
	// object names the tuned lock in its decisions (set by Attach).
	object string
}

// NewController builds a controller starting in spin mode at MinCap — the
// optimistic stance: assume no contention until the measurements say
// otherwise.
func NewController(p Params) *Controller {
	return &Controller{
		p: p.withDefaults(), mode: ModeSpin, cap: MinCap, head: MinHead,
		wait:  autonomic.DecayedRatio{Decay: waitDecay, Floor: waitDenFloor},
		ring:  autonomic.DecayedRatio{Decay: waitDecay, Floor: waitDenFloor},
		att:   autonomic.DecayedSum{Decay: waitDecay},
		util:  autonomic.EWMA{Decay: waitDecay},
		band:  autonomic.Band{Low: SatLow, High: SatHigh},
		dwell: autonomic.Dwell{Windows: DwellWindows},
	}
}

// Params returns the defaulted parameters.
func (c *Controller) Params() Params { return c.p }

// Mode reports the currently chosen lock shape.
func (c *Controller) Mode() Mode { return c.mode }

// BackoffCap reports the current backoff cap for spinning contenders.
func (c *Controller) BackoffCap() sim.Duration { return c.cap }

// HeadBackoff reports the current cap on queue-head polling.
func (c *Controller) HeadBackoff() sim.Duration { return c.head }

// Switches reports how many mode transitions have occurred, in any
// direction along the spin, queue and cohort chain.
func (c *Controller) Switches() uint64 { return c.switches }

// RingFrac reports the smoothed cross-station acquisition fraction.
func (c *Controller) RingFrac() float64 { return c.ring.Value() }

// Samples reports how many observation windows have been consumed.
func (c *Controller) Samples() uint64 { return c.samples }

// NextCap is the pure cap-update law. The target is WaitFactor x the
// measured mean acquire latency, clamped to [MinCap, MaxCap]; the cap
// moves multiplicatively toward it — doubling while below half the
// target, halving while above double it — so it is always within a factor
// of two of a stable target. Home-module saturation (util >= SatHigh)
// overrides the wait signal in the upward direction only: it forces an
// increase regardless of the wait and blocks any decrease, but a module
// merely inside the hysteresis band never pins an overshot cap in place.
// The law is monotone non-decreasing in util and in waitUS for fixed prev
// — the metamorphic property the tests pin down: raising offered load
// raises both signals, so offered load can never lower the chosen backoff
// cap.
func (p Params) NextCap(prev sim.Duration, util, waitUS float64) sim.Duration {
	next, _ := p.nextCap(prev, util, waitUS)
	return next
}

// nextCap is NextCap together with the trigger of the branch that fired.
func (p Params) nextCap(prev sim.Duration, util, waitUS float64) (sim.Duration, trigger) {
	p = p.withDefaults()
	target := sim.Micros(WaitFactor * waitUS)
	next, why := prev, trigger{}
	switch {
	case util >= SatHigh:
		next, why = prev*2, trigger{"util", util, SatHigh}
	case target >= 2*prev:
		next, why = prev*2, trigger{"wait_us", waitUS, (2 * prev).Microseconds() / WaitFactor}
	case target <= prev/2:
		next, why = prev/2, trigger{"wait_us", waitUS, (prev / 2).Microseconds() / WaitFactor}
	}
	if next < MinCap {
		next = MinCap
	}
	if next > p.MaxCap {
		next = p.MaxCap
	}
	return next, why
}

// nextHead applies the utilization half of the law to the queue-head
// polling cap. Only the utilization signal drives it: in queue mode the
// head is the sole poller, so its wait reflects hold time, not bandwidth
// pressure.
func nextHead(prev sim.Duration, util float64) (sim.Duration, trigger) {
	next, why := prev, trigger{}
	switch {
	case util >= SatHigh:
		next, why = prev*2, trigger{"util", util, SatHigh}
	case util <= SatLow:
		next, why = prev/2, trigger{"util", util, SatLow}
	}
	return min(max(next, MinHead), MaxHead), why
}

// Observe consumes one sampling window and updates the published constants.
// Both signals are smoothed over a ~4-window horizon before any decision is
// taken. The cap walks multiplicatively (NextCap) and the mode chain runs
// spin → queue → cohort as pressure grows:
// spinning is abandoned only when the home module stays saturated with the
// cap already at MaxCap — i.e. when backing off further is impossible and
// the module still has no headroom — and queue mode escalates to the
// hierarchical cohort shape (multi-station machines only) when the
// ring-traffic signal shows that ring-crossing hand-offs themselves are the
// traffic — either alongside sustained saturation, or alone once the mean
// wait passes CohortWait (on a large machine the ring serializes hand-offs
// while the home module idles, so utilization alone never sees this
// regime). Retreats require smoothed utilization through SatLow and
// evidence that the calm is real: attempts still arriving without
// completions mean a queue is forming, not that the lock is idle.
//
// A mode switch resets the decayed wait sums and the utilization EWMA:
// they were measured under the old mode's protocol, and letting them bleed
// into the first post-switch windows is what used to bounce the mode
// straight back. The EWMA restarts from the middle of the hysteresis band
// (neutral: forces no decision either way) and no further switch is
// permitted for DwellWindows windows — at most one switch per dwell
// period, by construction.
// A window that changes the mode, cap or head returns a Decision naming
// the most significant change, the trigger of its branch, and the state
// left as the runner-up.
func (c *Controller) Observe(s Sample) (autonomic.Decision, bool) {
	c.samples++
	prevMode, prevCap, prevHead := c.mode, c.cap, c.head
	c.wait.Observe(float64(s.Lock.WaitCycles), float64(s.Lock.Acquisitions))
	waitUS := c.wait.Value() / sim.CyclesPerMicrosecond
	ringFrac := c.ring.Observe(float64(s.Lock.RemoteAcquisitions), float64(s.Lock.Acquisitions))
	c.att.Add(float64(s.Lock.Attempts))
	util := c.util.Observe(s.HomeUtil)
	atMax := c.cap == c.p.MaxCap
	var capWhy, headWhy, modeWhy trigger
	c.cap, capWhy = c.p.nextCap(c.cap, util, waitUS)
	c.head, headWhy = nextHead(c.head, util)
	if c.dwell.Ready() {
		// ringBound: most acquisitions arrive over the ring AND the mean
		// wait is past the CohortWait threshold. Home-module utilization
		// cannot see this regime — on a large machine the ring serializes
		// hand-offs while the home module idles — so without this signal
		// the controller reads the idle module as "contention gone" and
		// thrashes queue<->spin forever.
		ringBound := c.p.Stations > 1 && ringFrac >= RingFrac &&
			waitUS >= CohortWait.Microseconds()
		// wedged: attempts keep arriving but nothing completes — a queue
		// still forming behind a convoy, not an idle lock. A low home-module
		// reading in this state means the ring (or the queue hand-off
		// chain), not the workload, is the bottleneck; retreating to spin on
		// it would re-create the convoy that wedged the lock.
		wedged := c.att.S >= 1 && c.ring.Mass() < waitDenFloor
		switch c.mode {
		case ModeSpin:
			if c.band.Above(util) && atMax {
				c.mode, modeWhy = ModeQueue, trigger{"util", util, SatHigh}
			}
		case ModeQueue:
			switch {
			case ringBound:
				c.mode, modeWhy = ModeCohort, trigger{"wait_us", waitUS, CohortWait.Microseconds()}
			case c.band.Above(util) && c.p.Stations > 1 && ringFrac >= RingFrac:
				// Saturated with local-only spinning AND most acquisitions
				// arrive over the ring: hand-off traffic itself is the load,
				// which is what station-batched cohort grants relieve.
				c.mode, modeWhy = ModeCohort, trigger{"ring_frac", ringFrac, RingFrac}
			case c.band.Below(util) && !wedged && waitUS <= c.cap.Microseconds():
				// Retreat to spin only when the waits actually being served
				// fit under the backoff cap the spin stance would resume
				// with; a wait the cap cannot absorb means the low module
				// reading is drain, not idleness.
				c.mode, modeWhy = ModeSpin, trigger{"util", util, SatLow}
			}
		case ModeCohort:
			// The ring signal cannot arbitrate a cohort retreat: station
			// batching makes whole windows read all-local or all-remote by
			// construction. Retreat on the wait signal instead, with a
			// half-threshold hysteresis band under the CohortWait that
			// forced the escalation.
			if c.band.Below(util) && !wedged &&
				waitUS < CohortWait.Microseconds()/2 {
				c.mode, modeWhy = ModeQueue, trigger{"wait_us", waitUS, CohortWait.Microseconds() / 2}
			}
		}
	}
	if c.mode != prevMode {
		c.switches++
		// Start the new mode from clean windows: drop the old-mode wait
		// mass (the estimate freezes until fresh acquisitions arrive) and
		// restart the utilization EWMA from the neutral mid-band.
		c.wait.Reset()
		c.ring.Clear()
		// att is deliberately NOT reset: it only ever blocks a retreat,
		// and the attempts backlog it carries across a switch is exactly the
		// evidence that waiters from the old mode are still in flight.
		c.util.Set(c.band.Mid())
		c.dwell.Arm()
	}
	if len(c.log) < LogLimit {
		c.log = append(c.log, Window{
			At: s.Now, HomeUtil: s.HomeUtil, UtilEWMA: util, WaitUS: waitUS,
			FailFrac: s.failFrac(), RingFrac: c.ring.Value(),
			Cap: c.cap, Head: c.head, Mode: c.mode,
		})
	}
	kind, why := "mode", modeWhy
	switch {
	case c.mode != prevMode:
	case c.cap != prevCap:
		kind, why = "cap", capWhy
	case c.head != prevHead:
		kind, why = "head", headWhy
	default:
		return autonomic.Decision{}, false
	}
	d := autonomic.Decision{At: s.Now, Policy: "tune", Object: c.object, Kind: kind,
		Choice: state(c.mode, c.cap, c.head), RunnerUp: state(prevMode, prevCap, prevHead),
		Signal: why.signal, Value: why.value, Threshold: why.threshold}
	if len(c.decisions) < LogLimit {
		c.decisions = append(c.decisions, d)
	}
	return d, true
}

// state names a controller state in a decision.
func state(m Mode, cap, head sim.Duration) string {
	return fmt.Sprintf("%s cap %gus head %gus", m, cap.Microseconds(), head.Microseconds())
}

// Log returns the retained window log (oldest first).
func (c *Controller) Log() []Window { return c.log }

// Decisions returns the retained decision log (oldest first): every window
// that changed the mode, the cap or the head.
func (c *Controller) Decisions() []autonomic.Decision { return c.decisions }
