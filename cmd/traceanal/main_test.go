package main

import (
	"bytes"
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

// export renders c as the JSON a -trace flag writes.
func export(t *testing.T, c *trace.Chrome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := c.Export(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A trace without machine metadata has no topology to classify accesses
// against, so it must be rejected rather than read as a HECTOR-16.
func TestAnalyzeRejectsTraceWithoutMachine(t *testing.T) {
	c := trace.NewChrome()
	c.Event(sim.TraceEvent{Kind: sim.EvAccess, Name: "load", Proc: 1, Src: 1, Dst: 0})
	_, err := analyze(export(t, c))
	if err == nil || !strings.Contains(err.Error(), "otherData.machine") {
		t.Fatalf("analyze accepted a trace without machine metadata (err %v)", err)
	}
}

// NUMAchine-64 metadata sizes the aggregate for its 64 modules and prices
// accesses at NUMAchine's latencies, not HECTOR's.
func TestAnalyzeReadsMachineMetadata(t *testing.T) {
	cfg := machine.NUMAchine64(1)
	c := trace.NewChrome()
	c.SetMachine(sim.NewMachine(cfg))
	a, err := analyze(export(t, c))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.agg.Modules(); got != 64 {
		t.Errorf("aggregate has %d modules, want 64", got)
	}
	if want := (autonomic.Topo{Stations: 8, ProcsPerStation: 8}); a.topo != want {
		t.Errorf("topology %+v, want %+v", a.topo, want)
	}
	if want := autonomic.CostsFromLatency(cfg.Lat); a.costs != want {
		t.Errorf("costs %+v, want NUMAchine's %+v", a.costs, want)
	}
}

// The offline pipeline (Chrome JSON -> analyze) must rebuild the same
// aggregate, and reach the same placement report, as the in-process
// aggregate of the same traced kernel run: `clustersim -size 16 -procs 8 -rounds 5`,
// whose one cluster spans all four stations, so the report proposes moves.
func TestAnalyzeMatchesInProcessAggregate(t *testing.T) {
	cfg := sim.Config{Seed: 1}
	chrome := trace.NewChrome()
	live := trace.NewAggregate(16)
	sys := core.NewSystem(core.Config{
		Machine:     cfg,
		ClusterSize: 16,
		LockKind:    locks.KindH2MCS,
		Tracer:      trace.NewPipeline(chrome, live),
	})
	chrome.SetMachine(sys.M)
	for c := 0; c < sys.K.Topo.N; c++ {
		sys.K.VM.SetMMLock(c, locks.NewStats(sys.M, sys.K.VM.MMLock(c)))
	}
	workload.IndependentFaults(sys, 8, 4, 5)

	a, err := analyze(export(t, chrome))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.agg.Summary(), live.Summary(); got != want {
		t.Errorf("offline aggregate summary differs from the in-process one:\n%s\nvs\n%s", got, want)
	}
	full := cfg.WithDefaults()
	topo := autonomic.Topo{Stations: full.Stations, ProcsPerStation: full.ProcsPerStation}
	want := placement.Analyze(live, topo, autonomic.CostsFromLatency(full.Lat)).String()
	if got := placement.Analyze(a.agg, a.topo, a.costs).String(); got != want {
		t.Fatalf("offline report differs from the in-process one:\n%s\nvs\n%s", got, want)
	}
	if !strings.Contains(want, "lock placement") || !strings.Contains(want, "-> module") {
		t.Fatalf("report has no lock section or no proposed move:\n%s", want)
	}
}
