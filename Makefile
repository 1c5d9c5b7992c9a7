# Tier-1 gate: everything a PR must pass. `make ci` is what the README
# documents and what reviewers run.

GO ?= go

.PHONY: ci fmt vet build test race bench bench-wall results quick-jobs1 quick-jobs8 bench-diff bench-baseline jobs-equiv perfbench-test trace-smoke server-smoke autonomic-smoke model-smoke fuzz-smoke doc-lint profile

ci: fmt vet build test race bench-diff jobs-equiv perfbench-test trace-smoke server-smoke autonomic-smoke model-smoke fuzz-smoke doc-lint

# Every Go file must be gofmt-clean; the offending names go to stderr.
fmt:
	test -z "$$(gofmt -l .)" || { gofmt -l . >&2; false; }

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The simulated locks run single-threaded by construction, but the parallel
# experiment harness (exp.RunParallel / hurricane-bench -jobs) and the
# native lock ports are real Go concurrency: keep them provably race-free.
# The hierarchical locks (cohort, CNA) get a second, repeated pass: their
# correctness rests on holder-private state being published by the grant
# hand-off, and that discipline only trips the race detector on schedules
# where goroutines actually interleave at the hand-off — more runs, more
# schedules.
race:
	$(GO) test -race ./internal/native/... ./internal/exp/... ./internal/workload/...
	$(GO) test -race -count=2 -run 'Cohort|CNA|CrossValidation' ./internal/native/
	$(GO) test -race -count=2 -run 'TimedStress' ./internal/workload/
	$(GO) test -race -count=2 ./internal/autonomic/

bench:
	$(GO) test -bench=. -benchmem ./...

# Simulator wall-clock throughput: ns of host time per simulated engine
# event for the engine hot paths (dispatch, coalesced think, memory access,
# contended swap, watch/park hand-off) and the lock acquire paths, plus the
# serial quick suite's per-experiment wall time and events/sec.
bench-wall:
	$(GO) test -bench . -run NONE -benchmem ./internal/sim/ ./internal/locks/
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -wall /tmp/hurricane_wall.json

# Regenerate every table/figure plus the machine-readable BENCH_sim.json.
results:
	$(GO) run ./cmd/hurricane-bench | tee results_full.txt

# The quick suite's summary, run serially and on an 8-way pool. Each is
# produced once per make invocation (the targets are phony, so a stale file
# from an earlier run is never trusted) and shared by every gate below that
# reads quick-suite metrics: jobs-equiv compares the two, bench-diff and
# the server, autonomic and model smokes read the jobs-8 file.
QUICK1 := /tmp/hurricane_jobs1.json
QUICK8 := /tmp/hurricane_jobs8.json

quick-jobs1:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -json $(QUICK1) > /dev/null

quick-jobs8:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 8 -json $(QUICK8) > /dev/null

# Regression gate: compare the quick summary against the checked-in
# baseline; fails on >5% regression in any us-unit figure metric. The
# simulation is deterministic, so an unchanged tree diffs exactly.
bench-diff: quick-jobs8
	$(GO) run ./cmd/bench-diff -current $(QUICK8)

# Determinism gate for the worker pool: the quick summary must be
# byte-identical when cells run serially and on an 8-way pool.
jobs-equiv: quick-jobs1 quick-jobs8
	cmp $(QUICK1) $(QUICK8)
	@echo "jobs-equiv: -jobs 1 and -jobs 8 summaries are byte-identical"

# The benchmark harness is its own Go module, so `go test ./...` above never
# builds it: vet and test it here so an internal API change cannot break it
# unnoticed.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# End-to-end check of the span pipeline: trace a tiny kernel workload,
# feed the trace through traceanal, and require a non-empty placement
# report (both the data and lock sections must render).
trace-smoke:
	$(GO) run ./cmd/clustersim -size 16 -procs 8 -rounds 5 -trace /tmp/hurricane_smoke.json > /dev/null
	$(GO) run ./cmd/traceanal /tmp/hurricane_smoke.json > /tmp/hurricane_smoke.txt
	grep -q "data placement" /tmp/hurricane_smoke.txt
	grep -q "lock placement" /tmp/hurricane_smoke.txt
	grep -q "span vm.fault" /tmp/hurricane_smoke.txt
	@echo "trace-smoke: traced kernel run produced a placement report"
	$(GO) run ./cmd/clustersim -size 16 -procs 4 -rounds 8 -migrate > /tmp/hurricane_migrate.txt
	grep -Eq "migrations: [1-9]" /tmp/hurricane_migrate.txt
	@echo "trace-smoke: online placement daemon migrated kernel data mid-run"

# End-to-end check of the open-loop server harness: a short lockstat
# server run must report a populated sojourn tail and per-tenant skew,
# and the quick server sweep must publish p999 + rank-divergence metrics
# on both machines.
server-smoke: quick-jobs8
	$(GO) run ./cmd/lockstat -run server -lock tuned -ms 6 > /tmp/hurricane_server.txt
	grep -Eq "sojourn \(us\): n=[1-9][0-9]* mean=[0-9.]+ p50=[0-9.]+ p95=[0-9.]+ p99=[0-9.]+ p999=[0-9.]+" /tmp/hurricane_server.txt
	grep -q "per-tenant" /tmp/hurricane_server.txt
	grep -q "kernel lock controller" /tmp/hurricane_server.txt
	grep -q '"hector16.CNA.p999"' $(QUICK8)
	grep -q '"numachine64.Tuned.p999"' $(QUICK8)
	grep -q '"hector16.rank_divergence"' $(QUICK8)
	@echo "server-smoke: open-loop server harness reports tail latency on both machines"

# End-to-end check of the kernel autonomics plane: the combined
# tune+migrate+replicate run must beat every single policy on the mixed
# tenant workload (the tentpole acceptance metric), and both interactive
# harnesses must run the full plane under one cadence.
autonomic-smoke: quick-jobs8
	grep -A 1 '"hector16.combined_wins"' $(QUICK8) | grep -q '"value": 3'
	$(GO) run ./cmd/clustersim -size 16 -procs 4 -rounds 8 -autonomic > /tmp/hurricane_autosim.txt
	grep -q "autonomics plane" /tmp/hurricane_autosim.txt
	grep -Eq "replication policy: [0-9]+ windows, [1-9]" /tmp/hurricane_autosim.txt
	$(GO) run ./cmd/lockstat -run server -autonomic -ms 6 > /tmp/hurricane_autolock.txt
	grep -q "autonomics plane" /tmp/hurricane_autolock.txt
	@echo "autonomic-smoke: combined plane beats every single policy; both CLIs run it"

# End-to-end check of the analytic model pipeline: a CI-scale
# calibrate-and-validate cell must fit residuals, rank the lock zoo
# correctly at every validation point on all three machines, and publish
# the calibrated spin->queue crossover for each of them.
model-smoke: quick-jobs8
	grep -A 1 '"hector16.rank_agreement"' $(QUICK8) | grep -q '"value": 100'
	grep -A 1 '"numachine64.rank_agreement"' $(QUICK8) | grep -q '"value": 100'
	grep -A 1 '"numachine256.rank_agreement"' $(QUICK8) | grep -q '"value": 100'
	grep -q '"hector16.pred_cross_spin_queue"' $(QUICK8)
	grep -q '"numachine64.pred_cross_spin_queue"' $(QUICK8)
	grep -q '"numachine256.pred_cross_spin_queue"' $(QUICK8)
	@echo "model-smoke: calibrated model ranks the lock zoo correctly on all machines"

# Short fuzzing pass over the tuner's pure surface: the cap law and the
# controller over arbitrary window sequences. The checked-in seed corpora
# in internal/tune/testdata/fuzz also run as plain tests under `make test`;
# this target explores past them for a few seconds each.
fuzz-smoke:
	$(GO) test ./internal/tune/ -run '^$$' -fuzz '^FuzzNextCap$$' -fuzztime 5s -parallel 2
	$(GO) test ./internal/tune/ -run '^$$' -fuzz '^FuzzObserve$$' -fuzztime 5s -parallel 2

# Documentation gate: every exported identifier in the model, autonomic,
# and tune packages carries a doc comment, and every intra-repo markdown
# link (file and #anchor) in the top-level docs resolves.
doc-lint:
	$(GO) run ./cmd/doclint

# Refresh the checked-in baseline after an intentional performance change
# (commit the result and explain the shift in the PR).
bench-baseline:
	$(GO) run ./cmd/hurricane-bench -quick -json BENCH_sim.baseline.json > /dev/null

# CPU/allocation profiles of the quick suite (serial, so one experiment's
# profile is not polluted by another's goroutine): start here before any
# perf PR.
profile:
	$(GO) run ./cmd/hurricane-bench -quick -jobs 1 -json /tmp/hurricane_prof.json \
		-cpuprofile cpu.pprof -memprofile mem.pprof > /dev/null
	$(GO) tool pprof -top -nodecount 15 cpu.pprof
