package main

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace/placement"
)

// lockstat -run server -autonomic must build the stack exp.AutonomicSweep's
// combined row builds (the "server" row, every policy), and -migrate alone
// the one exp.ServerSweep's Tuned+mig row builds: same period, same policy
// order, same defaulted parameters.
func TestServerStackMatchesExperiments(t *testing.T) {
	all := placement.Policies{Tune: true, Migrate: true, Replicate: true}
	for _, c := range []struct {
		auto bool
		row  placement.Row
		pol  placement.Policies
	}{
		{true, placement.RowServer, all},
		{false, placement.RowDefaults, placement.Policies{Migrate: true}},
	} {
		cfg := machine.Hector16(1)
		got, want := serverStack(cfg, c.auto), placement.NewStack(cfg, c.row, c.pol)
		for _, st := range []*placement.Stack{got, want} {
			st.Attach(sim.NewMachine(cfg), nil, nil, nil)
		}
		if got.Plane.Period() != want.Plane.Period() || !reflect.DeepEqual(got.Plane.Names(), want.Plane.Names()) {
			t.Errorf("autonomic=%v: plane %v %v, want %v %v", c.auto,
				got.Plane.Period(), got.Plane.Names(), want.Plane.Period(), want.Plane.Names())
		}
		if (got.TuneParams().Plane == nil) != (want.TuneParams().Plane == nil) {
			t.Errorf("autonomic=%v: tuned locks on the plane: %v, want %v",
				c.auto, got.TuneParams().Plane != nil, want.TuneParams().Plane != nil)
		}
		gd, wd := got.Daemon.Params(), want.Daemon.Params()
		gd.Yield, wd.Yield = nil, nil
		if !reflect.DeepEqual(gd, wd) {
			t.Errorf("autonomic=%v: daemon %+v, want %+v", c.auto, gd, wd)
		}
		if (got.Replicator == nil) != (want.Replicator == nil) ||
			got.Replicator != nil && !reflect.DeepEqual(got.Replicator.Params(), want.Replicator.Params()) {
			t.Errorf("autonomic=%v: replicator differs from the experiment's", c.auto)
		}
	}
}

// Every flag value the run cannot honour is rejected before the run, with
// a message naming the flag; every default and boundary value passes.
func TestValidate(t *testing.T) {
	ok := options{lock: "h2mcs", machine: "hector16", run: "stress",
		procs: 16, home: 0, rounds: 300, warmup: -1, horizonMS: 20, holdUS: 25}
	cases := []struct {
		name string
		edit func(*options)
		want string // substring of the error; "" for none
	}{
		{"defaults", func(*options) {}, ""},
		{"zero hold", func(o *options) { o.holdUS = 0 }, ""},
		{"last home", func(o *options) { o.home = 15 }, ""},
		{"64-proc machine", func(o *options) { o.machine, o.procs, o.home = "numachine64", 64, 63 }, ""},
		{"one round", func(o *options) { o.rounds, o.warmup = 1, 0 }, ""},
		{"server run", func(o *options) { o.run = "server" }, ""},
		{"unknown lock", func(o *options) { o.lock = "bogus" }, "unknown lock"},
		{"unknown machine", func(o *options) { o.machine = "vax" }, "unknown machine"},
		{"unknown run", func(o *options) { o.run = "bogus" }, "unknown -run"},
		{"zero procs", func(o *options) { o.procs = 0 }, "procs"},
		{"too many procs", func(o *options) { o.procs = 17 }, "procs"},
		{"home past machine", func(o *options) { o.home = 99 }, "home"},
		{"home one past machine", func(o *options) { o.home = 16 }, "home"},
		{"negative home", func(o *options) { o.home = -1 }, "home"},
		{"negative hold", func(o *options) { o.holdUS = -5 }, "hold"},
		{"NaN hold", func(o *options) { o.holdUS = math.NaN() }, "hold"},
		{"infinite hold", func(o *options) { o.holdUS = math.Inf(1) }, "hold"},
		{"zero rounds", func(o *options) { o.rounds = 0 }, "rounds"},
		{"warmup eats every round", func(o *options) { o.warmup = 300 }, "warmup"},
		{"negative warmup", func(o *options) { o.warmup = -2 }, "warmup"},
		{"zero horizon", func(o *options) { o.horizonMS = 0 }, "ms"},
	}
	for _, c := range cases {
		o := ok
		c.edit(&o)
		err := validate(o)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: rejected: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: accepted %+v", c.name, o)
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("%s: error %q does not name %q", c.name, err, c.want)
		}
	}
}
