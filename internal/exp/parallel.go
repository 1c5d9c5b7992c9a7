package exp

import (
	"sync"
	"sync/atomic"
)

// The experiment harness is the only Go-level concurrency in the simulator:
// every experiment cell (one machine, one seed, one configuration) is an
// independent single-threaded simulation, so cells can run on a worker pool
// as long as results are merged in declaration order afterwards. One global
// token pool bounds the total number of helper goroutines across nested
// RunParallel calls (hurricane-bench fans out whole experiments, which fan
// out their own cells); the caller always participates without taking a
// token, so nesting can never deadlock — at worst a level runs serially.
var (
	parMu     sync.Mutex
	parTokens chan struct{}
)

// SetParallelism sets the global worker budget: at most n goroutines
// (including every caller of RunParallel) simulate concurrently. n <= 1
// makes RunParallel strictly serial.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parMu.Lock()
	defer parMu.Unlock()
	parTokens = make(chan struct{}, n-1)
	for i := 0; i < n-1; i++ {
		parTokens <- struct{}{}
	}
}

// RunParallel invokes fn(0) .. fn(n-1), each exactly once, spreading calls
// over the helper pool. It returns when every call has finished. The caller
// executes cells itself while helpers drain the same index counter, so a
// RunParallel nested inside a cell makes progress even when the pool is
// exhausted. fn must write its result into a slot owned by its index (never
// shared state); the caller then reduces the slots in declaration order,
// which is what keeps reports byte-identical at any parallelism level. A
// panic in any cell is re-raised in the caller after all cells finish.
func RunParallel(n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	parMu.Lock()
	pool := parTokens
	parMu.Unlock()

	var next atomic.Int64
	var firstPanic atomic.Value
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				firstPanic.CompareAndSwap(nil, panicValue{r})
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}

	var wg sync.WaitGroup
	if pool != nil {
		for spawned := 1; spawned < n; spawned++ {
			select {
			case <-pool:
				wg.Add(1)
				go func() {
					defer wg.Done()
					defer func() { pool <- struct{}{} }()
					work()
				}()
			default:
				spawned = n // pool exhausted; the caller covers the rest
			}
		}
	}
	work()
	wg.Wait()
	if pv := firstPanic.Load(); pv != nil {
		panic(pv.(panicValue).v)
	}
}

// panicValue wraps a recovered value so nil-interface panics still register
// in the atomic.Value.
type panicValue struct{ v interface{} }
