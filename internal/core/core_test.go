package core

import (
	"testing"

	"hurricane/internal/kernel"
	"hurricane/internal/locks"
	"hurricane/internal/sim"
)

func TestNewSystemDefaults(t *testing.T) {
	sys := NewSystem(Config{})
	if sys.M.NumProcs() != 16 {
		t.Fatalf("procs = %d", sys.M.NumProcs())
	}
	if sys.K.Topo.N != 1 || sys.K.Topo.Size != 16 {
		t.Fatalf("default clustering = %dx%d, want 1x16", sys.K.Topo.N, sys.K.Topo.Size)
	}
	if sys.K.Config().Protocol != kernel.Optimistic {
		t.Fatal("default protocol not optimistic")
	}
}

func TestSystemConfigPlumbing(t *testing.T) {
	sys := NewSystem(Config{
		Machine:     sim.Config{Seed: 3, Stations: 2, ProcsPerStation: 4},
		ClusterSize: 2,
		LockKind:    locks.KindSpin,
		Protocol:    kernel.Pessimistic,
	})
	if sys.M.NumProcs() != 8 {
		t.Fatalf("procs = %d", sys.M.NumProcs())
	}
	if sys.K.Topo.N != 4 {
		t.Fatalf("clusters = %d", sys.K.Topo.N)
	}
	if sys.K.Config().LockKind != locks.KindSpin || sys.K.Config().Protocol != kernel.Pessimistic {
		t.Fatal("config not plumbed through")
	}
}

func TestSpawnServeRun(t *testing.T) {
	sys := NewSystem(Config{Machine: sim.Config{Seed: 4}, ClusterSize: 4})
	ran := false
	rpcSeen := false
	sys.Spawn(0, func(p *sim.Proc) {
		// A cross-cluster kernel operation forces an RPC, proving the
		// un-spawned processors serve.
		if err := sys.K.PM.Create(p, kernel.PIDKey(2, 1), 0); err != nil {
			t.Error(err)
		}
		rpcSeen = sys.K.RPC.Calls > 0
		ran = true
	})
	sys.ServeOthers()
	end := sys.Run(0)
	if !ran || !rpcSeen {
		t.Fatalf("ran=%v rpcSeen=%v", ran, rpcSeen)
	}
	if end == 0 {
		t.Fatal("no simulated time elapsed")
	}
	if !sys.K.PM.Alive(kernel.PIDKey(2, 1)) {
		t.Fatal("created process missing")
	}
}

func TestRunWithCapStopsEarly(t *testing.T) {
	sys := NewSystem(Config{Machine: sim.Config{Seed: 5}})
	sys.Spawn(0, func(p *sim.Proc) {
		p.Think(sim.Micros(1000))
	})
	end := sys.Run(sim.Micros(10))
	if end > sim.Micros(11) {
		t.Fatalf("cap not honored: %v", end)
	}
}
