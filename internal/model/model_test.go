package model

import (
	"math"
	"testing"

	"hurricane/internal/sim"
)

// The reference machines of every model test: the paper's HECTOR and the
// §5.3 NUMAchine sketch, built from the same configs the experiments use.
func hector16() Machine {
	return FromConfig(sim.Config{Stations: 4, ProcsPerStation: 4})
}

func numachine64() Machine {
	lat := sim.DefaultLatency()
	lat.Local, lat.Station, lat.Ring = 20, 60, 90
	lat.ModuleService, lat.AtomicExtra, lat.IPI = 12, 6, 60
	return FromConfig(sim.Config{Stations: 8, ProcsPerStation: 8, Lat: lat})
}

func numachine256() Machine {
	lat := sim.DefaultLatency()
	lat.Local, lat.Station, lat.Ring, lat.Ring2 = 20, 60, 90, 150
	lat.ModuleService, lat.AtomicExtra, lat.IPI = 12, 6, 60
	return FromConfig(sim.Config{Stations: 32, ProcsPerStation: 8, StationsPerRing: 4, Lat: lat})
}

var testLocks = []Lock{
	{Family: FamilySpin, CapUS: 35},
	{Family: FamilySpin, CapUS: 2000},
	{Family: FamilyQueue},
	{Family: FamilyCohort},
	{Family: FamilyCNA},
}

// Predicted wait must be nondecreasing in the contender count for every
// family: adding a contender can never shorten anyone's expected wait.
func TestWaitMonotoneInProcs(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64(), numachine256()} {
		pr := Predictor{M: m}
		for _, l := range testLocks {
			for _, hold := range []float64{0, 5, 25, 100} {
				prev := -1.0
				for p := 1; p <= m.Procs(); p++ {
					w := pr.Predict(l, Point{Procs: p, HoldUS: hold}).WaitUS
					if w < prev-1e-9 {
						t.Errorf("%s machine=%dx%d hold=%g: wait(p=%d)=%.3f < wait(p=%d)=%.3f",
							l, m.Stations, m.ProcsPerStation, hold, p, w, p-1, prev)
					}
					prev = w
				}
			}
		}
	}
}

// Predicted wait must be nondecreasing in the hold time: holding longer
// can never drain the queue faster.
func TestWaitMonotoneInHold(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64()} {
		pr := Predictor{M: m}
		for _, l := range testLocks {
			for _, p := range []int{1, 2, 7, m.Procs()} {
				prev := -1.0
				for hold := 0.0; hold <= 200; hold += 2.5 {
					w := pr.Predict(l, Point{Procs: p, HoldUS: hold}).WaitUS
					if w < prev-1e-9 {
						t.Errorf("%s p=%d: wait(hold=%g)=%.3f < wait(hold=%g)=%.3f",
							l, p, hold, w, hold-2.5, prev)
					}
					prev = w
				}
			}
		}
	}
}

// Crossover must agree exactly with a brute-force evaluation of its
// definition — the smallest p from which b stays strictly cheaper than a
// through the top of the range — for every ordered family pair on all
// three reference machines.
func TestCrossoverAgreesWithBruteForce(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64(), numachine256()} {
		pr := Predictor{M: m}
		for _, hold := range []float64{5, 25, 60} {
			for _, a := range testLocks {
				for _, b := range testLocks {
					if a == b {
						continue
					}
					got, gotOK := pr.Crossover(a, b, hold, 1, m.Procs())
					// Brute force: evaluate the predicate at every p, then
					// find the start of the trailing all-true suffix.
					want, wantOK := 0, false
					for p := m.Procs(); p >= 1; p-- {
						pt := Point{Procs: p, HoldUS: hold}
						if !(pr.Predict(b, pt).PairUS < pr.Predict(a, pt).PairUS) {
							break
						}
						want, wantOK = p, true
					}
					if got != want || gotOK != wantOK {
						t.Errorf("machine=%dx%d hold=%g %s->%s: Crossover=%d,%v brute=%d,%v",
							m.Stations, m.ProcsPerStation, hold, a, b, got, gotOK, want, wantOK)
					}
				}
			}
		}
	}
}

// CrossoverHold must bracket the brute-force scan's sign change.
func TestCrossoverHoldAgreesWithScan(t *testing.T) {
	m := hector16()
	pr := Predictor{M: m}
	a := Lock{Family: FamilySpin, CapUS: 35}
	b := Lock{Family: FamilyQueue}
	for _, p := range []int{4, 8, 16} {
		got, ok := pr.CrossoverHold(a, b, p, 0, 500)
		// Brute force on a fine grid.
		want, wantOK := 0.0, false
		for h := 0.0; h <= 500; h += 0.25 {
			pt := Point{Procs: p, HoldUS: h}
			if pr.Predict(b, pt).PairUS < pr.Predict(a, pt).PairUS {
				want, wantOK = h, true
				break
			}
		}
		if ok != wantOK {
			t.Fatalf("p=%d: CrossoverHold ok=%v scan ok=%v", p, ok, wantOK)
		}
		if ok && math.Abs(got-want) > 0.3 {
			t.Errorf("p=%d: CrossoverHold=%.2f scan=%.2f", p, got, want)
		}
	}
}

// The closed-form BestCap must (near-)minimize the model's own spin
// overhead over a dense cap scan.
func TestBestCapMinimizesOverhead(t *testing.T) {
	for _, m := range []Machine{hector16(), numachine64()} {
		for _, p := range []int{2, 4, 8, m.Procs()} {
			for _, hold := range []float64{5, 25, 100} {
				pt := Point{Procs: p, HoldUS: hold}
				best := m.BestCap(pt, 1, 4000)
				atBest := m.spinOverhead(p, hold, best)
				scanMin := math.Inf(1)
				for cap := 1.0; cap <= 4000; cap *= 1.05 {
					if c := m.spinOverhead(p, hold, cap); c < scanMin {
						scanMin = c
					}
				}
				if atBest > scanMin*1.05+0.5 {
					t.Errorf("machine=%dx%d p=%d hold=%g: overhead(BestCap=%.1f)=%.2f vs scan min %.2f",
						m.Stations, m.ProcsPerStation, p, hold, best, atBest, scanMin)
				}
			}
		}
	}
}

// Calibration must drive the fit-grid residual error to (near) zero when
// the observations come from the model itself scaled by per-lock
// constants — the identifiability sanity check.
func TestCalibrateRecoversResiduals(t *testing.T) {
	m := hector16()
	truth := map[string]float64{"spin:35": 2.0, "queue": 1.5, "cohort:16": 0.8}
	var obs []Observation
	for _, l := range []Lock{{Family: FamilySpin, CapUS: 35}, {Family: FamilyQueue}, {Family: FamilyCohort}} {
		for _, p := range []int{2, 4, 8, 16} {
			pt := Point{Procs: p, HoldUS: 25}
			c := m.overhead(l, pt) * truth[l.Key()]
			obs = append(obs, Observation{
				Lock: l, Point: pt,
				PairUS:    c,
				AcquireUS: float64(p-1) * (25 + c),
			})
		}
	}
	cal := m.Calibrate(obs)
	for key, want := range truth {
		if got := cal.Pair[key]; math.Abs(got-want) > 1e-6 {
			t.Errorf("pair residual %s: got %.4f want %.4f", key, got, want)
		}
		if got := cal.Wait[key]; math.Abs(got-1) > 1e-6 {
			t.Errorf("wait residual %s: got %.4f want 1", key, got)
		}
	}
	if cal.MedianErr > 1e-6 {
		t.Errorf("MedianErr = %g on a perfectly fittable grid", cal.MedianErr)
	}
}

// An unfitted calibration must price exactly like autonomic.Worthwhile,
// and a fitted one must demand the uncertainty margin.
func TestWorthMargin(t *testing.T) {
	base := Calibration{}.Worth()
	if !base(10, 10, 100) || base(10, 10, 101) {
		t.Fatalf("unfitted Worth should be the plain payback bar")
	}
	strict := Calibration{MedianErr: 0.5}.Worth()
	if strict(10, 10, 100) {
		t.Errorf("Worth with MedianErr=0.5 accepted a marginal action")
	}
	if !strict(15, 10, 100) {
		t.Errorf("Worth with MedianErr=0.5 rejected a clearly-paying action")
	}
}

// The advisor must recommend spin for an uncontended lock and escalate to
// the hierarchical shape for ring-dominated contention on the large
// machine — the two ends of the mode chain.
func TestAdvisorEndpoints(t *testing.T) {
	adv := NewAdvisor(hector16(), Calibration{})
	a := adv.Advise(ShapeSpin, 35, 2, 27) // wait ~ svc: nobody queued
	if a.Shape != ShapeSpin {
		t.Errorf("uncontended advice = %v, want spin (advice %+v)", a.Shape, a)
	}
	big := NewAdvisor(numachine256(), Calibration{})
	// 255 waiters at ~30us service: deep ring-crossing queue.
	b := big.Advise(ShapeSpin, 35, 255*30, 30)
	if b.Shape == ShapeSpin {
		t.Errorf("saturated 256-proc advice = %v, want queue or cohort (advice %+v)", b.Shape, b)
	}
	if b.Procs < 200 {
		t.Errorf("inferred procs = %d, want near 256", b.Procs)
	}
}

// A degenerate wait signal (overflowing, infinite, or NaN) is the most
// contended signal there is: Infer must place it at the machine's full
// processor count, and Advise must never pick a less contended shape for
// it than for a large finite wait.
func TestAdvisorDegenerateWait(t *testing.T) {
	const svc = 30
	machines := []struct {
		name string
		m    Machine
	}{{"hector16", hector16()}, {"numachine64", numachine64()}, {"numachine256", numachine256()}}
	for _, mc := range machines {
		adv := NewAdvisor(mc.m, Calibration{})
		ref := adv.Advise(ShapeSpin, 35, 1e5, svc)
		for _, tc := range []struct {
			name string
			wait float64
		}{
			{"1e30", 1e30},
			{"+Inf", math.Inf(1)},
			{"NaN", math.NaN()},
			{"MaxFloat64", math.MaxFloat64},
		} {
			if got := adv.Infer(ShapeSpin, 35, tc.wait, svc).Procs; got != mc.m.Procs() {
				t.Errorf("%s wait=%s: inferred procs = %d, want %d", mc.name, tc.name, got, mc.m.Procs())
			}
			if a := adv.Advise(ShapeSpin, 35, tc.wait, svc); a.Shape < ref.Shape {
				t.Errorf("%s wait=%s: advice %v is less contended than %v for wait=1e5 (advice %+v)",
					mc.name, tc.name, a.Shape, ref.Shape, a)
			}
		}
	}
}

// FromConfig must apply the simulator's defaulting rules.
func TestFromConfigDefaults(t *testing.T) {
	m := FromConfig(sim.Config{})
	if m.Stations != 4 || m.ProcsPerStation != 4 {
		t.Fatalf("default topology = %dx%d, want 4x4", m.Stations, m.ProcsPerStation)
	}
	if m.LocalUS != 10.0/sim.CyclesPerMicrosecond {
		t.Errorf("LocalUS = %g, want %g", m.LocalUS, 10.0/sim.CyclesPerMicrosecond)
	}
	h := FromConfig(sim.Config{Stations: 32, ProcsPerStation: 8, StationsPerRing: 4})
	if h.Ring2US != 2*h.RingUS {
		t.Errorf("hierarchy Ring2US = %g, want 2x RingUS = %g", h.Ring2US, 2*h.RingUS)
	}
}
