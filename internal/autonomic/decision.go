package autonomic

import (
	"fmt"
	"strings"

	"hurricane/internal/sim"
)

// Decision is the one record of an action the autonomics plane took on its
// own: a tuner's mode or backoff change, a migration, a replication or a
// collapse. Each policy fills it where it already holds the inputs, so
// every action is explainable from the record alone; the policies' logs
// are slices of it, and Render prints any of them.
type Decision struct {
	// At is the simulated time of the window the decision was taken in.
	At sim.Time
	// Policy is the deciding policy's name (tune, migrate, replicate), and
	// Object what it acted on (a data slot or a tuned lock).
	Policy, Object string
	// Kind is the action: migrate, replicate or collapse for the data
	// policies; mode, cap or head for the tuner.
	Kind string
	// Choice is what was chosen (a module, or the tuner's new state);
	// RunnerUp the alternative that lost (staying put, or the state left).
	Choice, RunnerUp string
	// Signal names the measurement that fired.
	Signal string
	// Value is the signal's value the policy acted on, and Threshold the
	// bound it crossed.
	Value, Threshold float64
	// Price and RunnerUpPrice weigh a priced action in access cycles over
	// the payback horizon: the copy it charges against the traffic the
	// runner-up would cost. Both are zero for the unpriced tuner.
	Price, RunnerUpPrice float64
}

// String renders the decision as one line: the text every decision log
// prints after the time, and the name of the decision's trace instant.
func (d Decision) String() string {
	s := fmt.Sprintf("%s %s %s -> %s: %s %.4g, threshold %.4g; runner-up %s",
		d.Policy, d.Object, d.Kind, d.Choice, d.Signal, d.Value, d.Threshold, d.RunnerUp)
	if d.Price != 0 || d.RunnerUpPrice != 0 {
		s += fmt.Sprintf("; price %.0f vs %.0f cycles", d.Price, d.RunnerUpPrice)
	}
	return s
}

// Render prints a decision log under a title: one line with the title and
// the decision count, then one line per decision — its time, then String.
func Render(title string, ds []Decision) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s, %d decisions\n", title, len(ds))
	for _, d := range ds {
		fmt.Fprintf(&b, "  t=%-12v %s\n", d.At, d)
	}
	return b.String()
}

// Emit publishes the decision, when m traces, as an instant on processor
// proc named "decide " and its line, beside the traffic that caused it. It
// charges no simulated time.
func (d Decision) Emit(m *sim.Machine, proc int) {
	if !m.Tracing() {
		return
	}
	m.Eng.Emit(sim.TraceEvent{Kind: sim.EvInstant, Name: "decide " + d.String(),
		Proc: proc, Start: d.At, End: d.At, Src: -1, Dst: -1})
}
