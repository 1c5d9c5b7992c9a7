package tune

import (
	"encoding/binary"
	"math"
	"testing"

	"hurricane/internal/sim"
)

// fuzzMaxCap folds an arbitrary value into a cap ceiling in
// [MinCap, 2^40 cycles] — every bound a deployment could set, from the
// floor itself up to hours of simulated time.
func fuzzMaxCap(raw uint64) sim.Duration {
	return MinCap + sim.Duration(raw%(1<<40))
}

// finiteNonNeg reports whether x is a finite non-negative float.
func finiteNonNeg(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// FuzzNextCap checks the cap law over arbitrary signals: the result always
// lies in [MinCap, MaxCap] for a previous cap in that range, and for finite
// non-negative signals it is monotone non-decreasing in util and in waitUS
// — more load never lowers the backoff cap.
func FuzzNextCap(f *testing.F) {
	f.Fuzz(func(t *testing.T, maxRaw, prevRaw uint64, u1, u2, w1, w2 float64) {
		p := Params{MaxCap: fuzzMaxCap(maxRaw)}
		prev := MinCap + sim.Duration(prevRaw%uint64(p.MaxCap-MinCap+1))
		for _, s := range [][2]float64{{u1, w1}, {u2, w2}, {u1, w2}, {u2, w1}} {
			if got := p.NextCap(prev, s[0], s[1]); got < MinCap || got > p.MaxCap {
				t.Fatalf("NextCap(%v, %v, %v) = %v, outside [%v, %v]", prev, s[0], s[1], got, MinCap, p.MaxCap)
			}
		}
		if !finiteNonNeg(u1) || !finiteNonNeg(u2) || !finiteNonNeg(w1) || !finiteNonNeg(w2) {
			return
		}
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		if w1 > w2 {
			w1, w2 = w2, w1
		}
		lo := p.NextCap(prev, u1, w1)
		if hi := p.NextCap(prev, u2, w1); hi < lo {
			t.Fatalf("more util lowered the cap: NextCap(%v, %v, %v) = %v < %v at util %v", prev, u2, w1, hi, lo, u1)
		}
		if hi := p.NextCap(prev, u1, w2); hi < lo {
			t.Fatalf("more wait lowered the cap: NextCap(%v, %v, %v) = %v < %v at wait %v", prev, u1, w2, hi, lo, w1)
		}
	})
}

// fuzzWindowBytes is the encoded size of one Sample in FuzzObserve's input.
const fuzzWindowBytes = 7

// decodeSample reads one observation window from b: the home utilization
// in hundredths (0 to 2.55, so both saturation and idleness occur), then
// small attempt, failure, acquisition and remote-acquisition counts, then
// the window's wait in units of 256 cycles. Any field may be zero, so the
// sequence covers empty windows and windows with attempts but no
// acquisitions.
func decodeSample(now sim.Time, b []byte) Sample {
	return Sample{
		Now:      now,
		HomeUtil: float64(b[0]) / 100,
		Lock: Counters{
			Attempts:           uint64(b[1]),
			Failures:           uint64(b[2]),
			Acquisitions:       uint64(b[3]),
			RemoteAcquisitions: uint64(b[4]),
			WaitCycles:         sim.Duration(binary.LittleEndian.Uint16(b[5:])) << 8,
		},
	}
}

// FuzzObserve drives a controller through an arbitrary sequence of
// observation windows and checks its invariants after every one: cap and
// head stay within their bounds, consecutive mode switches are more than
// DwellWindows windows apart, the switch counter matches the observed
// transitions, cohort mode is never reached on a one-station machine, and
// a window yields a decision exactly when it changes the state — a mode
// decision when the mode changed — naming the signal that fired.
func FuzzObserve(f *testing.F) {
	f.Fuzz(func(t *testing.T, stations uint8, maxRaw uint64, windows []byte) {
		p := Params{MaxCap: fuzzMaxCap(maxRaw), Stations: 1 + int(stations%16)}
		c := NewController(p)
		last, switches := -1, uint64(0)
		for i := 0; (i+1)*fuzzWindowBytes <= len(windows); i++ {
			prev, prevCap, prevHead := c.Mode(), c.BackoffCap(), c.HeadBackoff()
			d, ok := c.Observe(decodeSample(sim.Time(i+1)*Period, windows[i*fuzzWindowBytes:]))
			changed := c.Mode() != prev || c.BackoffCap() != prevCap || c.HeadBackoff() != prevHead
			if ok != changed || ok && (d.Signal == "" || (d.Kind == "mode") != (c.Mode() != prev)) {
				t.Fatalf("window %d: decision %+v (ok=%v) for a state change of %v", i, d, ok, changed)
			}
			if cap := c.BackoffCap(); cap < MinCap || cap > p.MaxCap {
				t.Fatalf("window %d: cap %v outside [%v, %v]", i, cap, MinCap, p.MaxCap)
			}
			if head := c.HeadBackoff(); head < MinHead || head > MaxHead {
				t.Fatalf("window %d: head %v outside [%v, %v]", i, head, MinHead, MaxHead)
			}
			if c.Mode() == ModeCohort && p.Stations == 1 {
				t.Fatalf("window %d: cohort mode on a one-station machine", i)
			}
			if c.Mode() == prev {
				continue
			}
			switches++
			if last >= 0 && i-last <= DwellWindows {
				t.Fatalf("windows %d and %d: mode switches %d windows apart (dwell %d)", last, i, i-last, DwellWindows)
			}
			last = i
		}
		if c.Switches() != switches {
			t.Fatalf("Switches() = %d, observed %d transitions", c.Switches(), switches)
		}
	})
}
