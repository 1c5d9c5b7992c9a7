package exp

import (
	"fmt"
	"testing"

	"hurricane/internal/locks"
)

// TestParStressShape pins the two findings the quick stress sweep exists
// to show on NUMAchine-256: test-and-set collapses under 256-way
// ring-crossing contention, and the cohort lock wins by keeping hand-offs
// inside a station. Cohort must complete the most rounds of every lock,
// more than 90% of its hand-offs must be station-local, and Spin-35us must
// manage at most a tenth of Cohort's rounds.
func TestParStressShape(t *testing.T) {
	tb := ParStress(1, 2500, false)
	rounds := func(k locks.Kind) float64 {
		return metric(t, tb, fmt.Sprintf("numachine256.%s.rounds", k))
	}
	cohort := rounds(locks.KindCohort)
	for _, k := range parStressKinds {
		if k != locks.KindCohort && rounds(k) >= cohort {
			t.Errorf("numachine256 %s ran %.0f rounds, not fewer than Cohort's %.0f", k, rounds(k), cohort)
		}
	}
	if v := metric(t, tb, fmt.Sprintf("numachine256.%s.local_handoff", locks.KindCohort)); v <= 90 {
		t.Errorf("numachine256 Cohort local hand-offs = %.1f%%, want > 90%%", v)
	}
	if spin := rounds(locks.KindSpin); spin > cohort/10 {
		t.Errorf("numachine256 Spin-35us ran %.0f rounds, want <= 1/10 of Cohort's %.0f", spin, cohort)
	}
}
