package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestDiffEvents checks the events gate: identical counts pass, and a
// changed dispatched or elided count, an experiment missing from either
// side, a report without counts (a -jobs > 1 run) or a different seed
// fail.
func TestDiffEvents(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("base.json", `{"seed": 1, "quick": true, "experiments": [
		{"name": "fig4", "engine_events": 60, "elided_events": 56},
		{"name": "model", "engine_events": 900, "elided_events": 300}]}`)
	cases := []struct {
		name, current string
		want          int
	}{
		{"same", `{"seed": 1, "quick": true, "jobs": 1, "experiments": [
			{"name": "fig4", "seconds": 0.1, "engine_events": 60, "elided_events": 56},
			{"name": "model", "seconds": 2, "engine_events": 900, "elided_events": 300}]}`, 0},
		{"elided-moved", `{"seed": 1, "quick": true, "experiments": [
			{"name": "fig4", "engine_events": 60, "elided_events": 56},
			{"name": "model", "engine_events": 900, "elided_events": 301}]}`, 1},
		{"events-moved", `{"seed": 1, "quick": true, "experiments": [
			{"name": "fig4", "engine_events": 61, "elided_events": 56},
			{"name": "model", "engine_events": 900, "elided_events": 300}]}`, 1},
		{"missing", `{"seed": 1, "quick": true, "experiments": [
			{"name": "fig4", "engine_events": 60, "elided_events": 56}]}`, 1},
		{"new", `{"seed": 1, "quick": true, "experiments": [
			{"name": "fig4", "engine_events": 60, "elided_events": 56},
			{"name": "model", "engine_events": 900, "elided_events": 300},
			{"name": "cohort", "engine_events": 5, "elided_events": 1}]}`, 1},
		{"no-counts", `{"seed": 1, "quick": true, "jobs": 8, "experiments": [
			{"name": "fig4", "seconds": 0.1},
			{"name": "model", "seconds": 2}]}`, 2},
		{"other-seed", `{"seed": 2, "quick": true, "experiments": [
			{"name": "fig4", "engine_events": 60, "elided_events": 56},
			{"name": "model", "engine_events": 900, "elided_events": 300}]}`, 2},
	}
	for _, c := range cases {
		if got := diffEvents(base, write(c.name+".json", c.current)); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
