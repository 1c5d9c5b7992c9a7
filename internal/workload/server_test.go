package workload

import (
	"testing"

	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace/placement"
	"hurricane/internal/tune"
)

// serverTestConfig is a small open-loop run on HECTOR-16: ~1.2x offered
// load with MMPP bursts and a flash crowd, fork/exec churn on every 8th
// request.
func serverTestConfig(seed uint64, kind locks.Kind) ServerConfig {
	return ServerConfig{
		Machine:     machine.Hector16(seed),
		ClusterSize: 4,
		LockKind:    kind,
		Tenants:     16,
		ZipfS:       1.0,
		Arrivals: ArrivalSpec{
			MeanGap:     sim.Micros(14),
			Horizon:     sim.Micros(8000),
			BurstFactor: 3,
			OnMean:      sim.Micros(300),
			OffMean:     sim.Micros(600),
			FlashAt:     0.6, FlashFor: 0.15, FlashFactor: 2,
		},
		Warmup:     sim.Micros(2000),
		ChurnEvery: 8,
	}
}

// TestServerRunCompletes is the basic liveness + accounting check: the
// run drains, every admitted measured request completes, and the tail
// summary is populated and finite.
func TestServerRunCompletes(t *testing.T) {
	r := ServerRun(serverTestConfig(1, locks.KindH2MCS))
	if r.Offered == 0 || r.Completed == 0 {
		t.Fatalf("no measured traffic: %+v", r)
	}
	if r.Completed != r.Admitted {
		t.Fatalf("admitted %d but completed %d: requests lost", r.Admitted, r.Completed)
	}
	if r.Offered != r.Admitted+r.Dropped {
		t.Fatalf("offered %d != admitted %d + dropped %d", r.Offered, r.Admitted, r.Dropped)
	}
	tail := r.Lat.Tail()
	if tail.P999 <= 0 || tail.P999 < tail.P50 {
		t.Fatalf("degenerate tail summary: %s", tail)
	}
	if r.GoodputRPS <= 0 {
		t.Fatal("no goodput reported")
	}
	if r.KStats.Requests == 0 || r.KStats.Faults == 0 {
		t.Fatalf("kernel request hooks did not fire: %+v", r.KStats)
	}
	// Zipf skew: the hottest tenant saw the most traffic.
	hot := r.Tenants[0].Admitted + r.Tenants[0].Dropped
	cold := r.Tenants[len(r.Tenants)-1].Admitted + r.Tenants[len(r.Tenants)-1].Dropped
	if hot <= cold {
		t.Fatalf("no tenant skew: hot %d <= cold %d", hot, cold)
	}
}

// TestServerDeadlineDrops pins the latency-deadline drop policy: with a
// deadline tight enough to trip under the test load, some measured
// requests are abandoned at dispatch and the accounting extends to
// Admitted == Completed + Abandoned (per tenant too); with a zero
// deadline the run is byte-identical to one that never heard of the
// field.
func TestServerDeadlineDrops(t *testing.T) {
	cfg := serverTestConfig(1, locks.KindH2MCS)
	cfg.Deadline = sim.Micros(200)
	r := ServerRun(cfg)
	if r.Abandoned == 0 {
		t.Fatal("tight deadline abandoned nothing; the policy is inert")
	}
	if r.Admitted != r.Completed+r.Abandoned {
		t.Fatalf("admitted %d != completed %d + abandoned %d", r.Admitted, r.Completed, r.Abandoned)
	}
	var perTenant uint64
	for _, tn := range r.Tenants {
		perTenant += tn.Abandoned
	}
	if perTenant != r.Abandoned {
		t.Fatalf("per-tenant abandoned sum %d != total %d", perTenant, r.Abandoned)
	}
	base := ServerRun(serverTestConfig(1, locks.KindH2MCS))
	zero := serverTestConfig(1, locks.KindH2MCS)
	zero.Deadline = 0
	if got := ServerRun(zero).Fingerprint(); got != base.Fingerprint() {
		t.Fatal("zero deadline changed the run")
	}
}

// TestServerControllerInteraction runs the tuner (KindTuned on every
// kernel lock) and the placement daemon together under a flash-crowd
// shift — load neither controller was tuned on — and checks that neither
// policy oscillates: each lock controller switches modes a bounded number
// of times (the dwell guarantee, end to end), and the daemon's migrations
// stay within its own per-slot budget.
func TestServerControllerInteraction(t *testing.T) {
	cfg := serverTestConfig(5, locks.KindTuned)
	cfg.Migratable = true
	st := placement.NewStack(cfg.Machine, placement.RowDefaults, placement.Policies{Migrate: true})
	cfg.Tracer = st.Agg
	cfg.Attach = func(sys *core.System) { st.AttachKernel(sys.M, sys.K) }
	r := ServerRun(cfg)
	daemon := st.Daemon
	if r.Completed == 0 {
		t.Fatal("no measured completions")
	}
	ctls := r.Sys.K.Controllers()
	if len(ctls) == 0 {
		t.Fatal("tuned kernel exposes no controllers")
	}
	for i, c := range ctls {
		if c.Switches() > 6 {
			t.Errorf("controller %d: %d mode switches under flash crowd (oscillation)", i, c.Switches())
		}
		// The dwell guarantee, end to end: consecutive switches in the
		// decision log are at least DwellWindows windows apart.
		log := c.Log()
		last := -1
		for j := 1; j < len(log); j++ {
			if log[j].Mode == log[j-1].Mode {
				continue
			}
			if last >= 0 && j-last < tune.DwellWindows {
				t.Errorf("controller %d: switches %d windows apart (< dwell %d)",
					i, j-last, tune.DwellWindows)
			}
			last = j
		}
	}
	budget := daemon.Params().Budget
	perSlot := map[string]int{}
	for _, mv := range daemon.Moves() {
		perSlot[mv.Slot]++
	}
	for slot, n := range perSlot {
		if n > budget {
			t.Errorf("slot %s migrated %d times > budget %d", slot, n, budget)
		}
	}
}
