package model

import "math"

// Shape is the lock shape an Advisor recommends. It mirrors tune.Mode
// without importing it (tune sits above model in the dependency order and
// maps Shape onto its own Mode).
type Shape int

const (
	// ShapeSpin recommends test-and-set with the advised backoff cap.
	ShapeSpin Shape = iota
	// ShapeQueue recommends a local-spin FIFO queue lock.
	ShapeQueue
	// ShapeCohort recommends the station-batched hierarchical shape.
	ShapeCohort
)

// String names the shape for logs and reports.
func (s Shape) String() string {
	switch s {
	case ShapeQueue:
		return "queue"
	case ShapeCohort:
		return "cohort"
	}
	return "spin"
}

// Advice is one priced recommendation: the cheapest shape for the inferred
// operating point, with the model's estimates attached so a consumer can
// judge (and log) the reasoning.
type Advice struct {
	// Shape is the recommended lock shape.
	Shape Shape
	// CapUS is the recommended spin backoff cap (the closed-form BestCap,
	// clamped to the advisor's bounds). Meaningful for every shape: it is
	// the cap the spin stance would resume with.
	CapUS float64
	// Procs and HoldUS are the operating point inferred from the measured
	// signals — published for observability.
	Procs int
	// HoldUS is the inferred critical-section hold time.
	HoldUS float64
	// PairUS is the predicted per-round overhead of the chosen shape.
	PairUS float64
	// WaitUS is the predicted mean acquire wait of the chosen shape.
	WaitUS float64
	// HeadUS is the queue-head polling bound that balances hand-off
	// latency against the head's home-module traffic at this operating
	// point (BestHeadUS). Meaningful for the queue and cohort shapes.
	HeadUS float64
}

// Advisor turns windowed lock telemetry into priced shape advice: the
// model-driven half of the tuner. Where the reactive controller walks the
// backoff cap multiplicatively and escalates through the mode chain on
// saturation evidence, an Advisor inverts the closed forms — inferring the
// contender count and hold time from the measured wait and completion
// interval — and jumps straight to the analytically cheapest shape.
type Advisor struct {
	// Pr evaluates the calibrated model.
	Pr Predictor
	// MinCapUS and MaxCapUS clamp the advised backoff cap; they should
	// match the consuming controller's MinCap/MaxCap.
	MinCapUS, MaxCapUS float64
	// Batch is the hierarchical families' batch knob used for pricing
	// (0 takes the lock zoo's default).
	Batch int
	// RefSpinCapUS names the fitted spin configuration whose residuals
	// price the advisor's own spin stance (default 2000, the Figure-5
	// unconstrained cap). The advisor re-caps its spin lock every window,
	// so it never occupies the pinned badly-capped regime the small-cap
	// fit cells measure; the well-capped cells are the representative
	// ones, and their residual carries the one effect the closed form
	// deliberately omits — release self-handoff ("hogging"), which makes
	// a well-capped test-and-set cheaper than the fair-FIFO form predicts.
	RefSpinCapUS float64
}

// refSpin is the fitted spin configuration standing in for the advisor's
// re-capped spin stance in residual lookups.
func (a *Advisor) refSpin() Lock {
	cap := a.RefSpinCapUS
	if cap <= 0 {
		cap = 2000
	}
	return Lock{Family: FamilySpin, CapUS: cap}
}

// predictSpin evaluates the spin closed form at an arbitrary cap with the
// reference configuration's residuals (see RefSpinCapUS): the cap the
// advisor prices is rarely one the calibration fitted, and an unit
// residual would forget the hogging discount.
func (a *Advisor) predictSpin(pt Point, capUS float64) Prediction {
	l := Lock{Family: FamilySpin, CapUS: capUS}
	ref := a.refSpin()
	pEff := a.Pr.M.effectiveProcs(l, pt)
	c := a.Pr.M.overhead(l, Point{Procs: pEff, HoldUS: pt.HoldUS}) * a.Pr.Cal.PairResidual(ref)
	wait := c / 2
	if pEff > 1 {
		wait = float64(pEff-1) * (pt.HoldUS + c) * a.Pr.Cal.WaitResidual(ref)
	}
	return Prediction{PairUS: c, WaitUS: wait, Throughput: 1000 / (pt.HoldUS + c)}
}

// NewAdvisor builds an advisor over a calibrated machine with the tuner's
// default cap bounds (8us..2ms).
func NewAdvisor(m Machine, cal Calibration) *Advisor {
	return &Advisor{Pr: Predictor{M: m, Cal: cal}, MinCapUS: 8, MaxCapUS: 2000}
}

// lockFor maps a shape to the model lock the advisor prices it as. The
// spin shape carries the cap it is priced at; the hierarchical shapes use
// the advisor's batch knob.
func (a *Advisor) lockFor(s Shape, capUS float64) Lock {
	switch s {
	case ShapeQueue:
		return Lock{Family: FamilyQueue}
	case ShapeCohort:
		return Lock{Family: FamilyCohort, Batch: a.Batch}
	}
	return Lock{Family: FamilySpin, CapUS: capUS}
}

// Infer reconstructs the operating point from two windowed measurements —
// waitUS, the mean acquire latency, and svcUS, the mean completion
// interval (window length over completed acquisitions) — given the shape
// and cap the measurements were taken under. Under the saturated closed
// loop one round completes every H + C, so svcUS estimates H + C and the
// FIFO bound W = (p-1)(H + C) gives p = W/svc + 1.
//
// Recovering H from svc has a subtlety: C itself grows with H (the
// holder's paced shared-data accesses each pay the contended word
// latency, so dC/dH can exceed 1 on a large machine), and a naive
// "H = svc - C(0)" hands that whole exposure term to the inferred hold.
// The advisor then prices candidate shapes at a phantom operating point
// with double-counted exposure — and because the fitted residuals scale
// exposure per family, the phantom point can invert the family ranking
// and trap the tuner in a shape whose own overhead manufactured the
// evidence for it. C is affine in H to within the model's floor stepping,
// so inverting the current shape's own closed form,
// H = (svc - C(p, 0)) / (1 + dC/dH), removes the feedback: overhead
// excess the model knows about is divided back out instead of being
// misread as critical section.
func (a *Advisor) Infer(cur Shape, curCapUS, waitUS, svcUS float64) Point {
	if !(svcUS > 0) {
		return Point{Procs: 1}
	}
	// Clamp in float64 before converting: an out-of-range float-to-int
	// conversion (1e30, +Inf) is implementation-defined, and NaN fails
	// every comparison, so both fall through to the most contended point.
	r := waitUS/svcUS + 1.5
	p := a.Pr.M.Procs()
	if r < 1 {
		p = 1
	} else if r < float64(p) {
		p = int(r)
	}
	l := a.lockFor(cur, curCapUS)
	rl := l
	if cur == ShapeSpin {
		rl = a.refSpin()
	}
	res := a.Pr.Cal.PairResidual(rl)
	base := a.Pr.M.overhead(l, Point{Procs: p}) * res
	// Probe the closed form at a representative hold to read off dC/dH
	// (the forms are affine in H up to nd's floor stepping).
	const probeUS = 20
	slope := (a.Pr.M.overhead(l, Point{Procs: p, HoldUS: probeUS})*res - base) / probeUS
	if slope < 0 {
		slope = 0
	}
	if cur != ShapeSpin {
		base += a.Pr.M.implTaxUS(p)
	}
	hold := (svcUS - base) / (1 + slope)
	if hold < 0.5 {
		hold = 0.5
	}
	return Point{Procs: p, HoldUS: hold}
}

// adaptHeadUS is the queue-head polling bound the implementation tax
// assumes. The tuned lock's controller walks the head cap between 2us and
// 64us on measured utilization; 8us is the mid-range the walk settles
// around in the contended regimes where the advisor's queue-vs-spin
// decision is close.
const adaptHeadUS = 8.0

// implTaxUS prices the gap between the bare queue/cohort families the
// validation grid measures (plain MCS, plain cohort) and the shapes a
// tuned lock can actually switch to. The tuned lock's queue and cohort
// modes both ride the Adaptive grant discipline — a test-and-set word in
// front of the queue so spinners and queuers stay correct during mode
// transitions — and that machinery is not free: each hand-off serializes
// a grant store, the head's poll of the word, and the next head's
// promotion (three remote words), waits out half the head's mean backoff,
// and every arrival's fast-path swap occupies the home module once. The
// advisor adds this tax to the queue and cohort prices so it compares
// implementable configurations, not idealized ones; without it the
// advisor jumps to queue mode in regimes where the bare-MCS price wins on
// paper but the grant machinery gives the win back.
func (m Machine) implTaxUS(p int) float64 {
	return 3*m.avgWordUS(p) + backoffDuty*adaptHeadUS/2 + m.moduleOccupancyUS()
}

// spinSatFloorUS bounds the spin price from below in deep saturation.
// The closed form's clamped-rho inflation term charges at most half a
// module service per holder access — accurate up to the point where the
// poll demand w*occ matches the backoff interval's capacity, wildly
// optimistic beyond it (a 256-processor storm on a 35us cap oversubscribes
// the home module fourteenfold; the measured overhead is two orders above
// the clamp). The floor prices that regime: per holder access, the
// expected delay grows with the oversubscription ratio — linearly below
// capacity, quadratically above it (each delayed poll is itself queued
// behind the others), capped at all w contenders being in flight.
func (m Machine) spinSatFloorUS(pt Point, capUS float64) float64 {
	w := float64(pt.Procs - 1)
	if w <= 0 {
		return 0
	}
	if capUS < 1 {
		capUS = 1
	}
	occ := m.moduleOccupancyUS()
	rho := w * occ / (backoffDuty * capUS)
	blow := rho * math.Max(1, rho)
	if blow > w {
		blow = w
	}
	nd := pt.HoldUS / holdAccessPeriodUS
	return (nd + 2) * (occ / 2) * blow
}

// BestHeadUS is the closed-form optimal queue-head polling bound at an
// operating point. The head is the only processor polling the lock word,
// so its cap trades hand-off latency (half the mean backoff, 0.375*h per
// round) against home-module traffic that delays the holder's paced
// stores (nd accesses, each behind occ/(0.75*h) poll utilization).
// Minimizing 0.375*h + nd*(occ/2)*occ/(0.75*h) gives h* = occ*sqrt(nd)/0.75.
func (m Machine) BestHeadUS(pt Point) float64 {
	nd := pt.HoldUS / holdAccessPeriodUS
	if nd < 1 {
		nd = 1
	}
	h := m.moduleOccupancyUS() * math.Sqrt(nd) / backoffDuty
	if h < 1 {
		h = 1
	}
	return h
}

// bestCapUS is the spin cap the advisor recommends. The closed-form
// BestCap balances the hand-off gap (grows with the cap) against poll
// interference (shrinks with it) — but the gap cost assumes every
// hand-off really waits out a backed-off poller. The fitted reference
// residual says otherwise: release self-handoff lets a well-capped
// test-and-set skip most hand-off gaps, and that discount lives entirely
// in the excess of the prediction over the family-independent holder
// exposure (the holder's data accesses are paid regardless of who wins
// the word). Re-deriving the gap/interference balance with the gap cost
// scaled by the measured excess ratio stretches the optimum by
// 1/sqrt(hog): the calibrated advisor spins at a larger cap than the raw
// closed form dares, which is exactly what the reactive walk discovers
// empirically one doubling at a time.
func (a *Advisor) bestCapUS(pt Point) float64 {
	m := a.Pr.M
	c := m.BestCap(pt, a.MinCapUS, a.MaxCapUS)
	res := a.Pr.Cal.PairResidual(a.refSpin())
	if res >= 1 || pt.Procs < 2 {
		return c
	}
	pred := m.overhead(Lock{Family: FamilySpin, CapUS: c}, pt)
	exp := m.holdExposureUS(pt.Procs, pt.HoldUS)
	excess := pred - exp
	if excess <= 0 {
		return c
	}
	hog := (res*pred - exp) / excess
	if hog < 0.05 {
		hog = 0.05
	}
	if hog >= 1 {
		return c
	}
	c /= math.Sqrt(hog)
	if c > a.MaxCapUS {
		c = a.MaxCapUS
	}
	return c
}

// Advise prices the candidate shapes at the inferred operating point and
// returns the cheapest by predicted per-round overhead (the throughput
// objective). cur and curCapUS are the incumbent shape and the cap the
// measured signals were produced under (the inference inverts the
// incumbent's own closed form; see Infer). A challenger must undercut the
// incumbent's price by the calibration's own uncertainty margin
// (1 + MedianErr, clamped like Calibration.Worth) before the advisor
// recommends moving — a predicted gain inside the model's error bar is
// noise, and acting on it flaps the shape. The queue and cohort
// candidates carry the implTaxUS surcharge: the advisor prices the tuned
// lock's implementable modes, not the bare families. The spin candidate
// is floored at spinSatFloorUS so the clamped closed form cannot
// recommend spinning into a saturation storm. The cohort shape is only a
// candidate on multi-station machines once the inferred contention spills
// past one station — below that the batch structure is pure overhead.
func (a *Advisor) Advise(cur Shape, curCapUS, waitUS, svcUS float64) Advice {
	pt := a.Infer(cur, curCapUS, waitUS, svcUS)
	capUS := a.bestCapUS(pt)
	// A switch costs a signal reset and a dwell even when the model is
	// right, so an unfitted calibration (MedianErr 0) still demands a 10%
	// predicted gain; a fitted one demands its own leftover error.
	margin := 1 + math.Max(a.Pr.Cal.MedianErr, 0.10)
	if margin > 2 {
		margin = 2
	}
	tax := a.Pr.M.implTaxUS(pt.Procs)
	price := func(s Shape) (float64, float64) {
		switch s {
		case ShapeQueue, ShapeCohort:
			l := Lock{Family: FamilyQueue}
			if s == ShapeCohort {
				l = Lock{Family: FamilyCohort, Batch: a.Batch}
			}
			pred := a.Pr.Predict(l, pt)
			return pred.PairUS + tax, pred.WaitUS + float64(pt.Procs-1)*tax
		}
		pred := a.predictSpin(pt, capUS)
		if floor := a.Pr.M.spinSatFloorUS(pt, capUS); pred.PairUS < floor {
			pred.PairUS = floor
			pred.WaitUS = float64(pt.Procs-1) * (pt.HoldUS + floor)
		}
		return pred.PairUS, pred.WaitUS
	}
	shapes := []Shape{ShapeSpin, ShapeQueue}
	if a.Pr.M.Stations > 1 && pt.Procs > a.Pr.M.ProcsPerStation {
		shapes = append(shapes, ShapeCohort)
	}
	best := Advice{Shape: cur, CapUS: capUS, Procs: pt.Procs, HoldUS: pt.HoldUS}
	best.PairUS, best.WaitUS = price(cur)
	incumbent := best.PairUS
	for _, s := range shapes {
		if s == cur {
			continue
		}
		pair, wait := price(s)
		if pair*margin < incumbent && pair < best.PairUS {
			best.Shape, best.PairUS, best.WaitUS = s, pair, wait
		}
	}
	best.HeadUS = a.Pr.M.BestHeadUS(pt)
	return best
}
