package workload

import (
	"fmt"
	"testing"

	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
)

// timedPresets are the four machine presets the determinism test sweeps.
// NUMAchine-1024 gets a shorter window: the point is covering the
// two-level ring hierarchy, not simulating 1024 processors for long.
var timedPresets = []struct {
	name   string
	cfg    func(seed uint64) sim.Config
	procs  int
	window sim.Duration
}{
	{"hector16", machine.Hector16, 16, sim.Micros(400)},
	{"numachine64", machine.NUMAchine64, 32, sim.Micros(400)},
	{"numachine256", machine.NUMAchine256, 64, sim.Micros(300)},
	{"numachine1024", machine.NUMAchine1024, 64, sim.Micros(150)},
}

// timedKinds is the lock zoo the timed stress loop is exercised against.
var timedKinds = []locks.Kind{locks.KindSpin, locks.KindH2MCS, locks.KindCohort, locks.KindCNA, locks.KindTuned}

func timedFingerprint(t *testing.T, cfg func(seed uint64) sim.Config, procs int, window sim.Duration, kind locks.Kind, seed uint64) string {
	t.Helper()
	r := TimedStressRun(TimedStressConfig{
		Machine: cfg(seed),
		Kind:    kind,
		Procs:   procs,
		Window:  window,
	})
	return r.Fingerprint()
}

// TestTimedStressDeterminism: on every machine preset and lock, the same
// seed yields the same bytes; a different seed must change the result (the
// loop is actually jittered).
func TestTimedStressDeterminism(t *testing.T) {
	for _, mp := range timedPresets {
		for _, k := range timedKinds {
			t.Run(fmt.Sprintf("%s/%s", mp.name, k), func(t *testing.T) {
				a := timedFingerprint(t, mp.cfg, mp.procs, mp.window, k, 42)
				if b := timedFingerprint(t, mp.cfg, mp.procs, mp.window, k, 42); a != b {
					t.Fatalf("same seed diverged:\n%s\nvs\n%s", a, b)
				}
			})
		}
	}
	a := timedFingerprint(t, machine.NUMAchine256, 64, sim.Micros(300), locks.KindCohort, 7)
	if c := timedFingerprint(t, machine.NUMAchine256, 64, sim.Micros(300), locks.KindCohort, 8); c == a {
		t.Fatal("different seed produced identical bytes")
	}
}
