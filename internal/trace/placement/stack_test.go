package placement_test

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hurricane/internal/autonomic"
	"hurricane/internal/core"
	"hurricane/internal/locks"
	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
	"hurricane/internal/workload"
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
			placement.DaemonParams{Decay: 0.75, MinWeight: 16, Improve: 0.10, Budget: 4, Confirm: 2, Cooldown: us(800)},
			autonomic.ReplicatorParams{Decay: 0.75, MinWeight: 16, Budget: 4, Confirm: 2, Payback: 64, Cooldown: us(800)}},
		{placement.RowServer, "server", us(100),
			placement.DaemonParams{Decay: 0.9, MinWeight: 2, Improve: 0.25, Budget: 2, Confirm: 6, Cooldown: us(800)},
			autonomic.ReplicatorParams{Decay: 0.95, MinWeight: 4, Budget: 4, Confirm: 3, Payback: 48, Cooldown: us(800)}},
		{placement.RowFault, "fault", us(25),
			placement.DaemonParams{Decay: 0.9, MinWeight: 0.25, Improve: 0.10, Budget: 4, Confirm: 3, Cooldown: us(200)},
			autonomic.ReplicatorParams{Decay: 0.9, MinWeight: 0.25, Budget: 4, Confirm: 3, Payback: 64, Cooldown: us(800)}},
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
	if ds := st.Decisions(); len(ds) != 0 {
		t.Errorf("policy-less stack reports decisions: %v", ds)
	}
}

// faultCell runs lockstat -run independent's -migrate or -autonomic cell
// (RowFault, one 16-processor cluster, 4 independent faulters x 8 rounds,
// seed 1), with chrome in the sink chain when non-nil. It returns the stack, the kernel's
// tuned-lock decisions, its managed slot names and the fault result.
func faultCell(pol placement.Policies, chrome *trace.Chrome) (*placement.Stack, []autonomic.Decision, map[string]bool, workload.FaultResult) {
	mc := sim.Config{Seed: 1}
	st := placement.NewStack(mc, placement.RowFault, pol)
	cc := core.Config{Machine: mc, ClusterSize: 16, LockKind: locks.KindH2MCS,
		Tracer: st.Tracer(chrome), Migratable: true}
	if pol.Tune {
		tp := st.TuneParams()
		cc.LockKind, cc.TuneParams = locks.KindTuned, &tp
	}
	sys := core.NewSystem(cc)
	st.AttachKernel(sys.M, sys.K)
	res := workload.IndependentFaults(sys, 4, 4, 8)
	var tuned []autonomic.Decision
	for _, c := range sys.K.Controllers() {
		tuned = append(tuned, c.Decisions()...)
	}
	slots := map[string]bool{}
	for _, ref := range sys.K.MigratableSlots() {
		slots[ref.Name()] = true
	}
	return st, tuned, slots, res
}

// Every data-policy decision of a kernel run names a managed slot and a
// module of the machine, and its chosen price beats its runner-up's.
// Recording and emitting decisions charges no simulated time: the same
// cell traced into a Chrome sink takes identical decisions, reaches an
// identical fault result, and carries each decision as one trace instant.
func TestStackDecisionsExplainAndTraceNeutral(t *testing.T) {
	for _, c := range []struct {
		name string
		pol  placement.Policies
		want string // a Kind the cell must decide at least once
	}{
		{"autonomic", placement.Policies{Tune: true, Migrate: true, Replicate: true}, "replicate"},
		{"migrate", placement.Policies{Migrate: true}, "migrate"},
	} {
		st, tuned, slots, res := faultCell(c.pol, nil)
		kinds := map[string]int{}
		for _, d := range st.Decisions() {
			kinds[d.Kind]++
			var module int
			if _, err := fmt.Sscanf(d.Choice, "module %d", &module); err != nil || module < 0 || module >= 16 {
				t.Errorf("%s: %v names no module of the machine", c.name, d)
			}
			if !slots[d.Object] {
				t.Errorf("%s: %v names no managed slot", c.name, d)
			}
			if d.Signal == "" || d.RunnerUp == "" || !(d.Price < d.RunnerUpPrice) {
				t.Errorf("%s: %v does not explain itself, or its price does not beat the runner-up's", c.name, d)
			}
		}
		if kinds[c.want] == 0 {
			t.Fatalf("%s: no %s decision among %v", c.name, c.want, kinds)
		}

		chrome := trace.NewChrome()
		st2, tuned2, _, res2 := faultCell(c.pol, chrome)
		if !reflect.DeepEqual(st.Decisions(), st2.Decisions()) || !reflect.DeepEqual(tuned, tuned2) {
			t.Errorf("%s: tracing changed the decisions", c.name)
		}
		if !reflect.DeepEqual(res, res2) {
			t.Errorf("%s: tracing changed the fault result", c.name)
		}
		var instants []string
		for _, ev := range chrome.Events() {
			if name, ok := strings.CutPrefix(ev.Name, "decide "); ok && ev.Kind == sim.EvInstant {
				instants = append(instants, name)
			}
		}
		if want := len(tuned) + len(st.Decisions()); len(instants) != want {
			t.Errorf("%s: %d decide instants in the trace, want %d", c.name, len(instants), want)
		}
		for _, d := range st.Decisions() {
			if !slices.Contains(instants, d.String()) {
				t.Errorf("%s: no trace instant for %v", c.name, d)
			}
		}
	}
}
