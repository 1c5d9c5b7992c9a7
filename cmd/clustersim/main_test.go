package main

import (
	"strings"
	"testing"
)

// Every flag value the run cannot honour is rejected before the run, with
// a message naming the flag; every default and boundary value passes.
func TestValidate(t *testing.T) {
	ok := options{size: 4, procs: 16, pages: 4, rounds: 20, lock: "h2mcs", workload: "independent"}
	cases := []struct {
		name string
		edit func(*options)
		want string // substring of the error; "" for none
	}{
		{"defaults", func(*options) {}, ""},
		{"one cluster", func(o *options) { o.size = 16 }, ""},
		{"per-processor clusters", func(o *options) { o.size = 1 }, ""},
		{"one process", func(o *options) { o.procs = 1 }, ""},
		{"shared workload", func(o *options) { o.workload = "shared" }, ""},
		{"size not dividing", func(o *options) { o.size = 3 }, "size"},
		{"size past machine", func(o *options) { o.size = 32 }, "size"},
		{"zero size", func(o *options) { o.size = 0 }, "size"},
		{"too many procs", func(o *options) { o.procs = 40 }, "procs"},
		{"zero procs", func(o *options) { o.procs = 0 }, "procs"},
		{"zero pages", func(o *options) { o.pages = 0 }, "pages"},
		{"zero rounds", func(o *options) { o.rounds = 0 }, "rounds"},
		{"unknown lock", func(o *options) { o.lock = "bogus" }, "unknown lock"},
		{"unknown workload", func(o *options) { o.workload = "bogus" }, "unknown workload"},
	}
	for _, c := range cases {
		o := ok
		c.edit(&o)
		err := validate(o, 16)
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
