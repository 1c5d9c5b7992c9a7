package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// eventsReport is the part of a hurricane-bench -wall report that the
// events gate reads: each experiment's engine work, present only when the
// suite ran at -jobs 1. BENCH_events.baseline.json holds just these fields.
type eventsReport struct {
	Seed        uint64 `json:"seed"`
	Quick       bool   `json:"quick"`
	Experiments []struct {
		Name         string  `json:"name"`
		EngineEvents *uint64 `json:"engine_events"`
		ElidedEvents *uint64 `json:"elided_events"`
	} `json:"experiments"`
}

func loadEvents(path string) (*eventsReport, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r eventsReport
	if err := json.Unmarshal(buf, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, e := range r.Experiments {
		if e.EngineEvents == nil || e.ElidedEvents == nil {
			return nil, fmt.Errorf("%s: experiment %s has no event counts (they are written only at -jobs 1)", path, e.Name)
		}
	}
	return &r, nil
}

// diffEvents compares the per-experiment engine event counts (dispatched +
// elided, and elided alone) of two reports exactly and returns the exit
// status. Event counts are deterministic, so any difference, or an
// experiment only one side ran, is a change in the engine's work and
// fails, naming the experiment.
func diffEvents(basePath, curPath string) int {
	base, err := loadEvents(basePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
		return 2
	}
	cur, err := loadEvents(curPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-diff: %v\n", err)
		return 2
	}
	if base.Quick != cur.Quick || base.Seed != cur.Seed {
		fmt.Fprintf(os.Stderr, "bench-diff: reports not comparable: baseline seed=%d quick=%v, current seed=%d quick=%v\n",
			base.Seed, base.Quick, cur.Seed, cur.Quick)
		return 2
	}
	type counts struct{ events, elided uint64 }
	want := make(map[string]counts)
	for _, e := range base.Experiments {
		want[e.Name] = counts{*e.EngineEvents, *e.ElidedEvents}
	}
	failed := 0
	for _, e := range cur.Experiments {
		w, ok := want[e.Name]
		delete(want, e.Name)
		switch got := (counts{*e.EngineEvents, *e.ElidedEvents}); {
		case !ok:
			fmt.Printf("NEW      %-16s %d events, %d elided (not in baseline)\n", e.Name, got.events, got.elided)
			failed++
		case got != w:
			fmt.Printf("CHANGED  %-16s %d events, %d elided -> %d events, %d elided\n",
				e.Name, w.events, w.elided, got.events, got.elided)
			failed++
		}
	}
	for _, e := range base.Experiments {
		if _, ok := want[e.Name]; ok {
			fmt.Printf("MISSING  %-16s in the baseline, absent in current\n", e.Name)
			failed++
		}
	}
	fmt.Printf("bench-diff: %d experiments' engine events compared, %d differ\n", len(cur.Experiments), failed)
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: FAIL: engine work changed; regenerate the baseline (make events-baseline) only for an intended change\n")
		return 1
	}
	return 0
}
