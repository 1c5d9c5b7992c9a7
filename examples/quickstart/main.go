// Quickstart: build the simulated HECTOR machine, compare the paper's lock
// algorithms uncontended and under contention, and print a small table.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"hurricane/internal/locks"
	"hurricane/internal/sim"
	"hurricane/internal/workload"
)

func main() {
	fmt.Println("HURRICANE locking on simulated HECTOR (16 MHz, 4 stations x 4 PMMs)")
	fmt.Println()
	fmt.Println("Uncontended acquire+release (lock word one ring hop away):")
	for _, k := range []locks.Kind{locks.KindMCS, locks.KindH1MCS, locks.KindH2MCS, locks.KindSpin} {
		us, counts := workload.UncontendedPair(1, k)
		fmt.Printf("  %-9s %5.2f us   (atomic/mem/reg/br = %d/%d/%d/%d)\n",
			k, us, counts.Atomic, counts.Mem, counts.Reg, counts.Branch)
	}

	fmt.Println()
	fmt.Println("16 processors pounding one lock, 25us critical sections:")
	for _, k := range []locks.Kind{locks.KindMCS, locks.KindH2MCS, locks.KindSpin, locks.KindSpin2ms} {
		r := workload.LockStressRun(workload.StressConfig{
			Machine: sim.Config{Seed: 1}, Kind: k, Procs: 16, Rounds: 150, Hold: sim.Micros(25),
		})
		fmt.Printf("  %-9s mean acquire %7.1f us   worst %8.0f us   >2ms on %4.1f%% of acquires\n",
			k, r.AcquireUS, r.AcquireDist.Max(), r.AcquireDist.FracAbove(2000)*100)
	}
	fmt.Println()
	fmt.Println("Note the distributed locks' bounded worst case (FIFO hand-off) versus")
	fmt.Println("the backoff lock's starvation tail — the paper's Figure 5 story.")
}
