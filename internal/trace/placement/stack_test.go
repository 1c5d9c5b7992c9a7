package placement_test

import (
	"reflect"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace/placement"
)

// TestStackRows pins the autonomics constants table: each row's name, plane
// period and its policies' parameters after defaulting. Which experiment
// builds from which row is pinned in internal/exp (TestStackRowOwners).
func TestStackRows(t *testing.T) {
	us := sim.Micros
	cases := []struct {
		row    placement.Row
		name   string
		period sim.Duration
		daemon placement.DaemonParams
		rep    autonomic.ReplicatorParams
	}{
		{placement.RowDefaults, "defaults", us(100),
			placement.DaemonParams{Decay: 0.75, MinWeight: 16, Improve: 0.10, Budget: 4, Confirm: 2, Payback: 64, Cooldown: us(800)},
			autonomic.ReplicatorParams{Decay: 0.75, MinWeight: 16, WriteLow: 0.05, WriteHigh: 0.25, Budget: 4, Confirm: 2, Payback: 64, Cooldown: us(800), MaxReplicas: 3}},
		{placement.RowServer, "server", us(100),
			placement.DaemonParams{Decay: 0.9, MinWeight: 2, Improve: 0.25, Budget: 2, Confirm: 6, Payback: 64, Cooldown: us(800)},
			autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, WriteLow: 0.05, WriteHigh: 0.25, Budget: 4, Confirm: 3, Payback: 48, Cooldown: us(800), MaxReplicas: 3}},
		{placement.RowFault, "fault", us(25),
			placement.DaemonParams{Decay: 0.9, MinWeight: 0.25, Improve: 0.10, Budget: 4, Confirm: 3, Payback: 64, Cooldown: us(200)},
			autonomic.ReplicatorParams{Decay: 0.9, MinWeight: 0.25, WriteLow: 0.05, WriteHigh: 0.25, Budget: 4, Confirm: 3, Payback: 64, Cooldown: us(800), MaxReplicas: 3}},
	}
	for _, c := range cases {
		cfg := machine.Hector16(1)
		st := placement.NewStack(cfg, c.row, placement.Policies{Tune: true, Migrate: true, Replicate: true})
		st.Attach(sim.NewMachine(cfg), nil, nil, nil)
		if got := c.row.String(); got != c.name {
			t.Errorf("row %d is named %q, want %q", c.row, got, c.name)
		}
		if got := st.Plane.Period(); got != c.period {
			t.Errorf("%s: plane period %v, want %v", c.name, got, c.period)
		}
		// The func fields compare equal only when both are nil.
		dp := st.Daemon.Params()
		dp.Yield, dp.Exec = nil, nil
		if !reflect.DeepEqual(dp, c.daemon) {
			t.Errorf("%s: daemon params\n got %+v\nwant %+v", c.name, dp, c.daemon)
		}
		rp := st.Replicator.Params()
		rp.Exec = nil
		if !reflect.DeepEqual(rp, c.rep) {
			t.Errorf("%s: replicator params\n got %+v\nwant %+v", c.name, rp, c.rep)
		}
	}
}

// A stack with no policy has no plane, and Attach is a no-op on it: the
// aggregate alone observes the run.
func TestStackWithoutPolicies(t *testing.T) {
	cfg := machine.NUMAchine64(1)
	st := placement.NewStack(cfg, placement.RowServer, placement.Policies{})
	st.Attach(sim.NewMachine(cfg), nil, nil, nil)
	if st.Plane != nil || st.Daemon != nil || st.Replicator != nil {
		t.Fatalf("policy-less stack built a plane or a policy: %+v", st)
	}
	if got := st.Agg.Modules(); got != 64 {
		t.Errorf("aggregate sized for %d modules, want the machine's 64", got)
	}
	if w, m, r, c := st.Counts(); w+uint64(m+r+c) != 0 || st.Report() != "" {
		t.Errorf("policy-less stack reports activity: %d %d %d %d %q", w, m, r, c, st.Report())
	}
}
