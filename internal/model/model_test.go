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

// Predict clamps a point outside its domain instead of extrapolating it:
// Procs to [1, machine size], a NaN or negative hold or think time to 0.
// Every output stays finite and non-negative, and the wait stays
// nondecreasing in Procs up to the machine size and flat beyond it.
func TestPredictDomain(t *testing.T) {
	nan := math.NaN()
	for _, m := range []Machine{hector16(), numachine64(), numachine256()} {
		n := m.Procs()
		pr := Predictor{M: m}
		cases := []struct {
			name    string
			in, out Point
		}{
			{"procs far above machine", Point{Procs: 1000, HoldUS: 25}, Point{Procs: n, HoldUS: 25}},
			{"procs one above machine", Point{Procs: n + 1, HoldUS: 25}, Point{Procs: n, HoldUS: 25}},
			{"zero procs", Point{Procs: 0, HoldUS: 25}, Point{Procs: 1, HoldUS: 25}},
			{"negative procs", Point{Procs: -3, HoldUS: 25}, Point{Procs: 1, HoldUS: 25}},
			{"negative hold", Point{Procs: 8, HoldUS: -50}, Point{Procs: 8}},
			{"NaN hold", Point{Procs: 8, HoldUS: nan}, Point{Procs: 8}},
			{"negative think", Point{Procs: 8, HoldUS: 25, ThinkUS: -10}, Point{Procs: 8, HoldUS: 25}},
			{"NaN think", Point{Procs: 8, HoldUS: 25, ThinkUS: nan}, Point{Procs: 8, HoldUS: 25}},
		}
		for _, l := range testLocks {
			for _, c := range cases {
				got, want := pr.Predict(l, c.in), pr.Predict(l, c.out)
				if got != want {
					t.Errorf("%s %dp %s: %+v, want the in-domain %+v", l, n, c.name, got, want)
				}
				for _, v := range []float64{got.PairUS, got.WaitUS, got.Throughput} {
					if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Errorf("%s %dp %s: non-finite or negative output %+v", l, n, c.name, got)
						break
					}
				}
			}
			prev := -1.0
			for p := -3; p <= n+8; p++ {
				w := pr.Predict(l, Point{Procs: p, HoldUS: 25}).WaitUS
				if w < prev-1e-9 {
					t.Errorf("%s %dp: wait(p=%d)=%.3f < wait(p=%d)=%.3f", l, n, p, w, p-1, prev)
				}
				prev = w
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

// A non-finite measurement is skipped, not fitted: one +Inf or NaN cell
// must leave every residual what the clean grid fits, every prediction
// finite, and the spin->queue crossover where the clean grid puts it.
// Fitted, an +Inf pair cell makes the spin residual +Inf and the crossover
// p=1, and a NaN one resets its whole key's residual to 1.
func TestCalibrateSkipsNonFiniteMeasurements(t *testing.T) {
	m := hector16()
	spin, queue := Lock{Family: FamilySpin, CapUS: 35}, Lock{Family: FamilyQueue}
	truth := map[string]float64{"spin:35": 2.0, "queue": 1.5}
	var clean []Observation
	for _, l := range []Lock{spin, queue} {
		for _, p := range []int{2, 4, 8, 16} {
			pt := Point{Procs: p, HoldUS: 25}
			c := m.overhead(l, pt) * truth[l.Key()]
			clean = append(clean, Observation{Lock: l, Point: pt, PairUS: c, AcquireUS: float64(p-1) * (25 + c)})
		}
	}
	cleanCal := m.Calibrate(clean)
	wantCross, wantOK := Predictor{M: m, Cal: cleanCal}.Crossover(spin, queue, 25, 1, 16)
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name      string
		pair, acq float64
	}{
		{"+Inf pair", inf, 100},
		{"NaN pair", nan, 100},
		{"+Inf acquire", 1, inf},
		{"NaN acquire", 1, nan},
		{"both non-finite", nan, inf},
	} {
		bad := Observation{Lock: spin, Point: Point{Procs: 8, HoldUS: 25}, PairUS: c.pair, AcquireUS: c.acq}
		// The corrupt cell's finite half must agree with the grid too, so
		// the fit is exact only if the non-finite half is skipped.
		if !math.IsInf(c.pair, 0) && !math.IsNaN(c.pair) {
			bad.PairUS = clean[2].PairUS
		}
		if !math.IsInf(c.acq, 0) && !math.IsNaN(c.acq) {
			bad.AcquireUS = clean[2].AcquireUS
		}
		cal := m.Calibrate(append(append([]Observation(nil), clean...), bad))
		for key := range truth {
			if math.Abs(cal.Pair[key]-cleanCal.Pair[key]) > 1e-9 || math.Abs(cal.Wait[key]-cleanCal.Wait[key]) > 1e-9 {
				t.Errorf("%s: %s residuals pair %v wait %v, clean grid fits %v %v",
					c.name, key, cal.Pair[key], cal.Wait[key], cleanCal.Pair[key], cleanCal.Wait[key])
			}
		}
		if math.IsNaN(cal.MedianErr) || math.IsInf(cal.MedianErr, 0) {
			t.Errorf("%s: MedianErr %v", c.name, cal.MedianErr)
		}
		pr := Predictor{M: m, Cal: cal}
		for _, l := range testLocks {
			for p := 1; p <= m.Procs(); p++ {
				pred := pr.Predict(l, Point{Procs: p, HoldUS: 25})
				if math.IsInf(pred.PairUS, 0) || math.IsNaN(pred.PairUS) || math.IsInf(pred.WaitUS, 0) || math.IsNaN(pred.WaitUS) {
					t.Fatalf("%s: %s at p=%d predicts pair %v wait %v", c.name, l, p, pred.PairUS, pred.WaitUS)
				}
			}
		}
		if got, ok := pr.Crossover(spin, queue, 25, 1, 16); got != wantCross || ok != wantOK {
			t.Errorf("%s: spin->queue crossover p=%d,%v, clean grid gives p=%d,%v", c.name, got, ok, wantCross, wantOK)
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
