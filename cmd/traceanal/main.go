// traceanal analyzes a Chrome trace-event JSON file written by lockstat
// -trace: it rebuilds the access and span aggregates from the
// event stream and runs the placement analyzer over them, proposing the
// home module for each piece of traced kernel data — and each lock — that
// minimizes ring crossings, then lists the autonomics plane's decisions.
//
//	lockstat -run independent -size 16 -rounds 10 -trace trace.json
//	traceanal trace.json
//
// The machine topology and latency weights are read from the trace's
// otherData.machine metadata, which every lockstat trace carries. A trace without it is rejected (exit 1): guessing the machine
// would silently misclassify every access distance.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"hurricane/internal/autonomic"
	"hurricane/internal/sim"
	"hurricane/internal/trace"
	"hurricane/internal/trace/placement"
)

// traceFile mirrors the subset of the Chrome trace-event format the
// pipeline writes (see internal/trace.Chrome).
type traceFile struct {
	TraceEvents []struct {
		Name string                 `json:"name"`
		Cat  string                 `json:"cat"`
		Ph   string                 `json:"ph"`
		TS   float64                `json:"ts"`
		Dur  float64                `json:"dur"`
		TID  int                    `json:"tid"`
		Args map[string]interface{} `json:"args"`
	} `json:"traceEvents"`
	OtherData struct {
		DroppedEvents int `json:"droppedEvents"`
		Machine       *struct {
			Stations        int     `json:"stations"`
			ProcsPerStation int     `json:"procsPerStation"`
			LatLocal        float64 `json:"latLocal"`
			LatStation      float64 `json:"latStation"`
			LatRing         float64 `json:"latRing"`
		} `json:"machine"`
	} `json:"otherData"`
}

func argInt(args map[string]interface{}, key string, def int) int {
	if v, ok := args[key].(float64); ok {
		return int(v)
	}
	return def
}

func distFromString(s string) sim.DistClass {
	switch s {
	case "station":
		return sim.DistStation
	case "ring":
		return sim.DistRing
	}
	return sim.DistLocal
}

// analysis is a trace rebuilt into the aggregate the in-process pipeline
// would have produced, with the topology and cost weights of the machine
// that wrote it.
type analysis struct {
	events, dropped int
	agg             *trace.Aggregate
	topo            autonomic.Topo
	costs           autonomic.Costs
	// decisions are the plane's decision lines, in trace (time) order.
	decisions []string
}

// analyze parses a Chrome trace written by trace.Chrome and replays its
// events into a trace.Aggregate sized for the traced machine.
func analyze(raw []byte) (*analysis, error) {
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	meta := tf.OtherData.Machine
	if meta == nil {
		return nil, errors.New("no otherData.machine metadata: the machine topology is unknown")
	}
	if meta.Stations < 1 || meta.ProcsPerStation < 1 {
		return nil, fmt.Errorf("otherData.machine has %d stations of %d processors", meta.Stations, meta.ProcsPerStation)
	}
	a := &analysis{
		events:  len(tf.TraceEvents),
		dropped: tf.OtherData.DroppedEvents,
		topo:    autonomic.Topo{Stations: meta.Stations, ProcsPerStation: meta.ProcsPerStation},
		costs:   autonomic.Costs{Local: meta.LatLocal, Station: meta.LatStation, Ring: meta.LatRing},
	}
	a.agg = trace.NewAggregate(a.topo.Modules())
	for _, ev := range tf.TraceEvents {
		rec := sim.TraceEvent{
			Name:  ev.Name,
			Proc:  ev.TID,
			Start: sim.Time(ev.TS * sim.CyclesPerMicrosecond),
			End:   sim.Time((ev.TS + ev.Dur) * sim.CyclesPerMicrosecond),
			Src:   argInt(ev.Args, "src", -1),
			Dst:   argInt(ev.Args, "dst", -1),
		}
		if d, ok := ev.Args["dist"].(string); ok {
			rec.Dist = distFromString(d)
		}
		switch ev.Cat {
		case "mem":
			rec.Kind = sim.EvAccess
			rec.Arg = uint64(argInt(ev.Args, "addr", 0))
		case "span":
			rec.Kind = sim.EvSpan
			if k, ok := ev.Args["kind"].(string); ok {
				rec.Span = sim.SpanKindFromString(k)
			}
			rec.Arg = uint64(argInt(ev.Args, "obj", 0))
		case "irq":
			rec.Kind = sim.EvIRQ
		case "sched":
			rec.Kind = sim.EvPark
			if ev.Name == "unpark" {
				rec.Kind = sim.EvUnpark
			}
		default:
			rec.Kind = sim.EvInstant
			if line, ok := strings.CutPrefix(ev.Name, "decide "); ok {
				a.decisions = append(a.decisions, fmt.Sprintf("t=%-12v %s", rec.Start, line))
			}
		}
		a.agg.Event(rec)
	}
	return a, nil
}

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: traceanal trace.json")
		os.Exit(2)
	}
	path := flag.Arg(0)
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceanal: %v\n", err)
		os.Exit(1)
	}
	a, err := analyze(raw)
	if err != nil {
		fmt.Fprintf(os.Stderr, "traceanal: %s: %v\n", path, err)
		os.Exit(1)
	}

	fmt.Printf("%s: %d events\n", path, a.events)
	if a.dropped > 0 {
		fmt.Printf("warning: trace dropped %d events (MaxEvents cap); aggregates are partial\n", a.dropped)
	}
	fmt.Print(a.agg.Summary())
	fmt.Println()
	fmt.Print(placement.Analyze(a.agg, a.topo, a.costs).String())
	fmt.Printf("\ndecisions: %d, in time order\n", len(a.decisions))
	for _, line := range a.decisions {
		fmt.Println("  " + line)
	}
}
