// Package machine provides named configurations of the simulated hardware:
// the 16-processor HECTOR prototype the paper measured, plus variants used
// by ablations (CAS-capable machines for the §5 lock-free discussion, and a
// larger NUMAchine-style machine for the §5.3 scaling outlook).
package machine

import "hurricane/internal/sim"

// Hector16 is the machine of the paper's evaluation: 4 stations on a ring,
// 4 processor-memory modules per station, 16 MHz MC88100 processors,
// atomic-swap-only synchronization, 10/19/23-cycle local/station/ring
// access times.
func Hector16(seed uint64) sim.Config {
	return sim.Config{Stations: 4, ProcsPerStation: 4, Seed: seed}
}

// Hector at arbitrary size keeps HECTOR timing but scales the topology.
func Hector(stations, procsPerStation int, seed uint64) sim.Config {
	return sim.Config{Stations: stations, ProcsPerStation: procsPerStation, Seed: seed}
}

// HectorWithCAS is HECTOR extended with a compare-and-swap primitive, used
// by the lock-free ablation (§5.2 "Advanced atomic primitives").
func HectorWithCAS(seed uint64) sim.Config {
	c := Hector16(seed)
	c.HasCAS = true
	return c
}

// NUMAchine64 sketches the paper's §5.3 target: an order of magnitude
// faster processors relative to memory (so remote accesses cost more
// cycles), larger (64 processors), with CAS-class primitives. Used by the
// scaling extension experiments.
func NUMAchine64(seed uint64) sim.Config {
	lat := sim.DefaultLatency()
	lat.Local = 20
	lat.Station = 60
	lat.Ring = 90
	lat.ModuleService = 12
	lat.AtomicExtra = 6
	lat.IPI = 60
	return sim.Config{
		Stations:        8,
		ProcsPerStation: 8,
		Seed:            seed,
		HasCAS:          true,
		Lat:             lat,
	}
}

// NUMAchine256 scales the §5.3 sketch to the regime the paper never
// reached: 32 stations of 8 processors grouped 4 stations per local ring,
// the 8 local rings joined by one global ring (the NUMAchine hierarchy).
// Within-group remote accesses keep the NUMAchine64 ring cost; cross-group
// accesses traverse local ring, global ring and the remote local ring at
// Ring2.
func NUMAchine256(seed uint64) sim.Config {
	c := NUMAchine64(seed)
	c.Stations = 32
	c.StationsPerRing = 4
	c.Lat.Ring2 = 150
	return c
}

// NUMAchine1024 is the full-scale target of the NUMAchine proposal: 64
// stations of 16 processors, 8 stations per local ring, 8 local rings on
// the global ring. Ring costs grow with the larger rings (more hops per
// revolution).
func NUMAchine1024(seed uint64) sim.Config {
	c := NUMAchine64(seed)
	c.Stations = 64
	c.ProcsPerStation = 16
	c.StationsPerRing = 8
	c.Lat.Ring = 100
	c.Lat.Ring2 = 160
	return c
}

// New builds a machine from a config (convenience wrapper).
func New(cfg sim.Config) *sim.Machine { return sim.NewMachine(cfg) }
