GO ?= go

.PHONY: verify build test vet staticcheck race bench-check loc chaos chaos-rank chaos-preempt chaos-straggler bench bench-smoke bench-evict fuzz-smoke trace-smoke observer-tax slo-smoke results transcript-drift clean

# verify is the pre-merge gate: static checks, a full build, the
# race-enabled test suite (which includes a short chaos soak), and the
# benchmark harness's own vet and tests.
verify: vet staticcheck build race bench-check

# vet also gates the baton contract (DESIGN.md §14): no go statement,
# channel or sync.WaitGroup in non-test model code outside internal/simclock.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }
	$(GO) test -count=1 -run '^TestModelCodeKeepsTheBatonContract$$' ./internal/simclock

# staticcheck runs when the binary is available (CI installs it; local
# environments without it skip with a note rather than failing verify).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# bench-check vets and tests the benchmark harness. bench/ is a module of
# its own, so ./... above never reaches it, yet it compiles against
# internal interfaces (cachebuf.Oracle among them) and defines the
# repository's benchmark.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# loc prints the design inventory every CHANGES.md entry quotes (ROADMAP
# aim 2): non-test Go lines per package and in total outside bench/, and
# the counts of public With* options, core.Params fields, ckptbench flags
# and registered eviction policies.
NONTEST = -name '*.go' -not -name '*_test.go'
loc:
	@for d in $$(find . $(NONTEST) -not -path './bench/*' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 $(NONTEST) | xargs cat | wc -l) $$d; \
	done
	@printf '%7d  non-test lines outside bench/\n' $$(find . $(NONTEST) -not -path './bench/*' | xargs cat | wc -l)
	@printf '%7d  With* options\n' $$(cat *.go | grep -c '^func With')
	@printf '%7d  core.Params fields\n' $$(awk '/^type Params struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n++} END{print n}' internal/core/types.go)
	@printf '%7d  ckptbench flags\n' $$(grep -c ':= fs\.[A-Z][A-Za-z0-9]*("' cmd/ckptbench/main.go)
	@printf '%7d  registered eviction policies\n' $$(grep -c '^	Policy[A-Za-z0-9]*: *"' internal/cachebuf/policy.go)

# chaos replays a longer campaign of seeded fault schedules against the
# checkpoint pipeline (see chaos_test.go and DESIGN.md §8).
chaos:
	$(GO) test -race -run TestChaosSoak . -args -chaos.schedules=200

# chaos-rank soaks the cluster failure model under -race: seeded
# rank/node kills mid-flush, partner-copy recovery, and the restart
# path's bit-exactness contract (DESIGN.md §11).
chaos-rank:
	$(GO) test -race -count 5 -run 'TestRankFailure|TestKillMidFlush|TestDegradedTierHeals' . ./internal/experiments

# chaos-preempt soaks the scheduling-events layer under -race: seeded
# preemption notices with fault rules aimed at the drain window, plus
# live migrations through migrate-site fault schedules (DESIGN.md §13).
# Every run must end in a complete drain manifest or a definitive error.
chaos-preempt:
	$(GO) test -race -run 'TestPreemptChaosSoak|TestMigrateChaosSoak' . -args -preempt.schedules=100

# chaos-straggler soaks the gray-failure machinery under -race: seeded
# latency-only schedules (slowdowns, jitter, stall windows) against
# hedged clients on real stores. Gray faults lose no data, so every
# restore must come back bit-exact and the flush chain must drain
# cleanly (DESIGN.md §16).
chaos-straggler:
	$(GO) test -race -run 'TestStragglerChaosSoak|TestGrayHedgeWheelVsHeap|TestGrayMachineryOffIsByteIdentical' . -args -straggler.schedules=100

bench:
	$(GO) test -bench . -benchtime 1x -run '^$$' .

# bench-smoke runs the chunked-vs-monolithic transfer-pipelining ablation
# once, fails if chunked regresses below the monolithic baseline
# (DESIGN.md §9), and emits the measurements as BENCH_pipeline.json.
# It also gates the simulator engine itself (DESIGN.md §14): measured in
# a process of its own, the 10k-rank sweep must retire at least 0.9x the
# heap reference's events/sec on the default wheel and allocate no more
# than the committed ceiling (testdata/simspeed_baseline.json), emitting
# BENCH_simspeed.json.
bench-smoke:
	$(GO) test -run TestChunkedPipelineSmoke -v . -args -bench.out=BENCH_pipeline.json
	$(GO) test -run TestPreemptDrainSmoke -v . -args -preempt.out=BENCH_preempt.json
	$(GO) test -run TestSimSpeedSmoke -v . -args -simspeed.out=BENCH_simspeed.json
	$(GO) test -run TestStragglerSmoke -v . -args -straggler.out=BENCH_straggler.json
	$(GO) test -bench BenchmarkAblationChunkedPipeline -benchtime 1x -run '^$$' .
	$(GO) test -bench BenchmarkSimSpeed -benchmem -benchtime 1x -run '^$$' .

# bench-evict runs the eviction policy × workload ablation matrix once,
# gates the hit-rate sanity invariants (score ≥ LRU on the RTM scan; at
# least one DBMS-inspired policy beats LRU on the KV-cache workload —
# DESIGN.md §15), and emits the matrix as BENCH_evict.json.
bench-evict:
	$(GO) test -run TestEvictionMatrixSmoke -v . -args -evict.out=BENCH_evict.json

# trace-smoke exercises the observability layer end to end: the trace
# determinism and flow-arrow golden tests, then the pipeline experiment
# with Chrome-trace and score-critpath/v1 exports. -fail-on-unattributed
# makes the run exit non-zero if any durable or restore attribution
# record carries an unattributed latency gap (DESIGN.md §12); the
# emitted trace-pipeline-*.json and critpath.json are the CI artifacts.
# It runs observer-tax first, so the job that guards the trace goldens
# also prints what the observers cost.
trace-smoke: observer-tax
	$(GO) test -run 'TestTraceExportDeterministic|TestFlowArrowsMatchGolden' -v .
	$(GO) run ./cmd/ckptbench -exp pipeline -scale small \
		-trace-out trace.json -critpath-out critpath.json -fail-on-unattributed

# observer-tax prints and gates the observers' host cost as allocation
# ratios (DESIGN.md §10): one small shot plain against the same shot with
# tracing, 10 ms sampling, SLOs and a trace export, and the nil-observer
# calls at zero allocations.
observer-tax:
	$(GO) test -count=1 -run 'TestObserverTaxBudget|TestNilObserversAllocateNothing' -v .

# slo-smoke exercises the SLO engine end to end (DESIGN.md §17): the
# alert-ledger determinism goldens and the straggler alert story
# (healthy control clean, 20× gray straggler firing with xfer
# attribution), emitting the compliance reports as BENCH_slo.json; then
# the pipeline experiment under -fail-on-slo, which must hold its
# checked-in objectives; then the straggler experiment under
# -fail-on-slo, which must breach — the alert path proven live in the
# CLI, not just in tests.
slo-smoke:
	$(GO) test -run 'TestSLOSmoke|TestSLODeterminism' -v . -args -slo.out=BENCH_slo.json
	$(GO) run ./cmd/ckptbench -exp pipeline -scale small -slo -fail-on-slo
	@if $(GO) run ./cmd/ckptbench -exp straggler -slo -fail-on-slo >/dev/null 2>&1; then \
		echo "straggler run unexpectedly passed -fail-on-slo (the 20x straggler must breach)"; exit 1; \
	else \
		echo "straggler breach correctly detected by -fail-on-slo"; \
	fi

# results regenerates the committed full-scale evaluation transcript.
# Rerun after any change that shifts the simulated numbers, and commit
# the diff — a stale transcript fails honest review.
results:
	$(GO) run ./cmd/ckptbench -exp all -scale full > results_full.txt
	@echo "regenerated results_full.txt"

# transcript-drift regenerates the small-scale transcript twice and
# counts the lines that differ, wall-time lines excluded; CI gates on 0.
# Exit 1 is drift (with its count); exit 2 is a run that crashed, named
# with its exit status and panic line — the two are different problems.
transcript-drift:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ckptbench" ./cmd/ckptbench && \
	for i in 1 2; do \
		"$$dir/ckptbench" -exp all -scale small > "$$dir/raw.txt" 2> "$$dir/err.txt"; x=$$?; \
		if [ $$x -ne 0 ]; then \
			echo "transcript drift: run $$i crashed (exit $$x)"; \
			grep -m1 -E '^(panic|fatal error):' "$$dir/err.txt" || tail -n 1 "$$dir/err.txt"; \
			exit 2; \
		fi; \
		grep -v 'wall time)$$' "$$dir/raw.txt" > "$$dir/run$$i.txt"; \
	done && \
	n=$$(diff "$$dir/run1.txt" "$$dir/run2.txt" | grep -c '^<'); \
	echo "transcript drift: $$n of $$(wc -l < "$$dir/run1.txt") lines differ between two runs of ckptbench -exp all -scale small"; \
	test "$$n" -eq 0

# fuzz-smoke gives each fuzz target a short budget on top of its checked-in
# seed corpus; go test accepts one -fuzz pattern per invocation.
FUZZTIME ?= 20s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzIDFIFO -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzCacheEviction -fuzztime $(FUZZTIME) ./internal/cachebuf
	$(GO) test -run '^$$' -fuzz FuzzEvictionPolicy -fuzztime $(FUZZTIME) ./internal/cachebuf
	$(GO) test -run '^$$' -fuzz FuzzChromeString -fuzztime $(FUZZTIME) ./internal/trace

clean:
	$(GO) clean ./...
	rm -f BENCH_pipeline.json BENCH_preempt.json BENCH_simspeed.json BENCH_evict.json BENCH_straggler.json BENCH_slo.json critpath.json trace-pipeline-*.json
