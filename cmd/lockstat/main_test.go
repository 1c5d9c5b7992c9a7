package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"hurricane/internal/machine"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
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
		o := options{run: "server", migrate: true, auto: c.auto}
		sameStack(t, fmt.Sprintf("server autonomic=%v", c.auto), stack(o, cfg), placement.NewStack(cfg, c.row, c.pol))
	}
}

// lockstat -run independent|shared, with -migrate and with -autonomic, must
// build the stack on exp.PlacementOnline's "fault" row: the daemon alone,
// or every policy with the tuned locks on the plane.
func TestFaultStackMatchesExperiments(t *testing.T) {
	for _, run := range []string{"independent", "shared"} {
		for _, auto := range []bool{false, true} {
			cfg := machine.Hector16(1)
			o := options{run: run, migrate: true, auto: auto}
			pol := placement.Policies{Tune: auto, Migrate: true, Replicate: auto}
			sameStack(t, fmt.Sprintf("%s autonomic=%v", run, auto), stack(o, cfg), placement.NewStack(cfg, placement.RowFault, pol))
		}
	}
}

// sameStack attaches both stacks to fresh machines and fails unless they
// run the same plane period, policy order, tuned-lock plane and defaulted
// policy parameters.
func sameStack(t *testing.T, name string, got, want *placement.Stack) {
	t.Helper()
	cfg := machine.Hector16(1)
	for _, st := range []*placement.Stack{got, want} {
		st.Attach(sim.NewMachine(cfg), nil, nil, nil)
	}
	if got.Plane.Period() != want.Plane.Period() || !reflect.DeepEqual(got.Plane.Names(), want.Plane.Names()) {
		t.Errorf("%s: plane %v %v, want %v %v", name,
			got.Plane.Period(), got.Plane.Names(), want.Plane.Period(), want.Plane.Names())
	}
	if (got.TuneParams().Plane == nil) != (want.TuneParams().Plane == nil) {
		t.Errorf("%s: tuned locks on the plane: %v, want %v",
			name, got.TuneParams().Plane != nil, want.TuneParams().Plane != nil)
	}
	gd, wd := got.Daemon.Params(), want.Daemon.Params()
	gd.Yield, wd.Yield = nil, nil
	if !reflect.DeepEqual(gd, wd) {
		t.Errorf("%s: daemon %+v, want %+v", name, gd, wd)
	}
	if (got.Replicator == nil) != (want.Replicator == nil) ||
		got.Replicator != nil && !reflect.DeepEqual(got.Replicator.Params(), want.Replicator.Params()) {
		t.Errorf("%s: replicator differs from the experiment's", name)
	}
}

// validateCase edits a valid option set and names the substring the error
// must hold ("" for none).
type validateCase struct {
	name string
	edit func(*options)
	want string
}

// checkValidate applies each case to ok and fails unless validate accepts
// or rejects it as the case says, with a message naming the flag.
func checkValidate(t *testing.T, ok options, cases []validateCase) {
	t.Helper()
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

// Every flag value the run cannot honour is rejected before the run, with
// a message naming the flag; every default and boundary value passes.
func TestValidate(t *testing.T) {
	ok := options{lock: "h2mcs", machine: "hector16", run: "stress",
		procs: 16, home: 0, rounds: 300, warmup: -1, horizonMS: 20, holdUS: 25, pages: 4}
	checkValidate(t, ok, []validateCase{
		{"defaults", func(*options) {}, ""},
		{"zero hold", func(o *options) { o.holdUS = 0 }, ""},
		{"last home", func(o *options) { o.home = 15 }, ""},
		{"64-proc machine", func(o *options) { o.machine, o.procs, o.home = "numachine64", 64, 63 }, ""},
		{"one round", func(o *options) { o.rounds, o.warmup = 1, 0 }, ""},
		{"server run", func(o *options) { o.run = "server" }, ""},
		{"shortest server horizon", func(o *options) { o.run, o.horizonMS = "server", 3 }, ""},
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
		{"horizon ignored outside the server", func(o *options) { o.horizonMS = 0 }, ""},
		{"zero server horizon", func(o *options) { o.run, o.horizonMS = "server", 0 }, "ms"},
		{"server horizon inside the warm-up", func(o *options) { o.run, o.horizonMS = "server", 2 }, "ms"},
		{"one-ms server horizon", func(o *options) { o.run, o.horizonMS = "server", 1 }, "ms"},
	})
}

// A flag given explicitly to a run mode that never reads it is rejected,
// naming the flag; the same flag left at its default passes.
func TestValidateIgnoredFlags(t *testing.T) {
	for run, names := range ignored {
		ok := options{lock: "h2mcs", machine: "hector16", run: run,
			procs: 16, rounds: 20, warmup: -1, horizonMS: 20, holdUS: 25, pages: 4}
		cases := []validateCase{{run + " defaults", func(*options) {}, ""}}
		for _, name := range names {
			cases = append(cases, validateCase{run + " -" + name,
				func(o *options) { o.set = map[string]bool{name: true} }, "-" + name})
		}
		checkValidate(t, ok, cases)
	}
	checkValidate(t, options{lock: "h2mcs", machine: "hector16", run: "independent",
		procs: 16, rounds: 20, warmup: -1, horizonMS: 20, holdUS: 25, pages: 4}, []validateCase{
		{"fault run reads -size, -pages, -procs and -rounds", func(o *options) {
			o.set = map[string]bool{"size": true, "pages": true, "procs": true, "rounds": true, "lock": true, "seed": true}
		}, ""},
	})
}

// -run server -autonomic shards the write-hot tenants over the kernel's
// clusters, however few a -size leaves: one cluster (-size 16) and two
// (-size 8) are fewer than the machine's four stations.
func TestServerAutonomicHonoursSize(t *testing.T) {
	for _, size := range []int{16, 8} {
		o := options{lock: "tuned", machine: "hector16", run: "server", horizonMS: 3,
			seed: 1, size: size, migrate: true, auto: true}
		var out bytes.Buffer
		runServer(&out, o, machines[o.machine], nil)
		if !strings.Contains(out.String(), "autonomics plane:") {
			t.Errorf("-size %d: no plane log in\n%s", size, out.String())
		}
	}
}

// The kernel fault runs (-run independent|shared) reject every cluster
// size, page count and process count the machine cannot honour; every
// cluster size dividing the machine passes, 0 meaning its own.
func TestValidateFaultRuns(t *testing.T) {
	ok := options{lock: "h2mcs", machine: "hector16", run: "independent",
		procs: 16, rounds: faultRounds, warmup: -1, horizonMS: 20, holdUS: 25, size: 4, pages: 4}
	checkValidate(t, ok, []validateCase{
		{"defaults", func(*options) {}, ""},
		{"one cluster", func(o *options) { o.size = 16 }, ""},
		{"per-processor clusters", func(o *options) { o.size = 1 }, ""},
		{"machine's cluster size", func(o *options) { o.size = 0 }, ""},
		{"64-proc clusters of 8", func(o *options) { o.machine, o.procs, o.size = "numachine64", 64, 8 }, ""},
		{"one process", func(o *options) { o.procs = 1 }, ""},
		{"one page", func(o *options) { o.pages = 1 }, ""},
		{"shared workload", func(o *options) { o.run = "shared" }, ""},
		{"size not dividing", func(o *options) { o.size = 3 }, "size"},
		{"size past machine", func(o *options) { o.size = 32 }, "size"},
		{"negative size", func(o *options) { o.size = -4 }, "size"},
		{"too many procs", func(o *options) { o.procs = 40 }, "procs"},
		{"zero procs", func(o *options) { o.procs = 0 }, "procs"},
		{"zero pages", func(o *options) { o.pages = 0 }, "pages"},
		{"zero rounds", func(o *options) { o.rounds = 0 }, "rounds"},
		{"unknown lock", func(o *options) { o.lock = "bogus" }, "unknown lock"},
		{"unknown workload", func(o *options) { o.run = "mixed" }, "unknown -run"},
	})
}

// -run server -trace writes a trace traceanal reads, alone and behind the
// autonomics stack's aggregate, and tracing moves no simulated number: the
// traced report equals the untraced one.
func TestServerTraceMatchesUntraced(t *testing.T) {
	goTool := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(goTool); err != nil {
		t.Skipf("no go tool to run traceanal: %v", err)
	}
	for _, auto := range []bool{false, true} {
		o := options{lock: "h2mcs", machine: "hector16", run: "server", horizonMS: 3,
			seed: 1, size: 4, migrate: auto, auto: auto}
		if auto {
			o.lock = "tuned"
		}
		var plain, traced bytes.Buffer
		runServer(&plain, o, machines[o.machine], nil)
		chrome := trace.NewChrome()
		m := runServer(&traced, o, machines[o.machine], chrome)
		if plain.String() != traced.String() {
			t.Errorf("autonomic=%v: traced report differs from the untraced one:\n%s\nvs\n%s", auto, traced.String(), plain.String())
		}
		path := filepath.Join(t.TempDir(), "server.json")
		var note bytes.Buffer
		if err := exportTrace(&note, path, chrome, m); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(note.String(), "wrote "+path) {
			t.Errorf("autonomic=%v: export reported %q", auto, note.String())
		}
		out, err := exec.Command(goTool, "run", "hurricane/cmd/traceanal", path).CombinedOutput()
		if err != nil {
			t.Fatalf("autonomic=%v: traceanal rejected the trace: %v\n%s", auto, err, out)
		}
		if !strings.Contains(string(out), "data placement") || !strings.Contains(string(out), "decisions: ") {
			t.Errorf("autonomic=%v: traceanal report lacks its placement or decisions section:\n%s", auto, out)
		}
		if auto && strings.Contains(string(out), "decisions: 0,") {
			t.Errorf("autonomic=%v: the traced plane's decisions are missing from the trace", auto)
		}
	}
}
