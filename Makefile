GO ?= go

.PHONY: verify build test vet staticcheck race bench-check loc loc-check chaos chaos-rank chaos-preempt chaos-straggler bench bench-smoke bench-evict fuzz-smoke trace-smoke observer-tax slo-smoke results results-check transcript-drift clean

# verify is the pre-merge gate: static checks, a full build, the
# race-enabled test suite (which includes a short chaos soak), the
# benchmark harness's own vet and tests, and the inventory ratchet.
verify: vet staticcheck build race bench-check loc-check

# vet also gates the baton contract (DESIGN.md §14): no go statement,
# channel or sync.WaitGroup in non-test model code outside internal/simclock,
# and nothing of package sync but Pool and Locker (no Mutex, RWMutex, Once or Cond).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); test -z "$$unformatted" || { echo "gofmt -l:"; echo "$$unformatted"; exit 1; }
	$(GO) test -count=1 -run '^(TestModelCodeKeepsTheBatonContract|TestModelCodeDeclaresNoMutex)$$' ./internal/simclock

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
# aim 2): non-test Go lines per package and in total outside bench/, the
# programs (package main directories outside bench/), so a new program
# fails loc-check until the inventory declares it, and the counts of
# public With* options (non-test root files, so a test helper such as
# export_test.go's is not one), core.Params and experiments.ShotConfig
# fields, the exported fields of the
# two baselines' Config structs (uvmsim, adiossim) and of the three
# store-backed scenario configs (rank failure, live migration, elastic
# restart; the preemption and straggler sweeps take none), ckptbench flags,
# registered eviction policies, cond-wake call sites (Broadcast and
# Signal in non-test internal/ code outside internal/simclock), cache-wake
# call sites (.Notify() in non-test internal/ code outside internal/cachebuf
# and internal/simclock: the runtime's wakes of parked cache reservations)
# task spawns (.Go( call sites in non-test code outside bench/ and
# internal/simclock), so a change that turns tasks into events shows,
# zero-default fills (withDefaults methods in non-test code outside
# bench/, which give a zero field a value it does not say), so bringing
# one back is a declared change, and DESIGN.md's line count.
NONTEST = -name '*.go' -not -name '*_test.go'
loc:
	@for d in $$(find . $(NONTEST) -not -path './bench/*' -exec dirname {} \; | sort -u); do \
		printf '%7d  %s\n' $$(find $$d -maxdepth 1 $(NONTEST) | xargs cat | wc -l) $$d; \
	done
	@printf '%7d  non-test lines outside bench/\n' $$(find . $(NONTEST) -not -path './bench/*' | xargs cat | wc -l)
	@printf '%7d  programs (package main outside bench/)\n' $$(find . $(NONTEST) -not -path './bench/*' | xargs grep -l '^package main$$' | xargs -r -n1 dirname | sort -u | wc -l)
	@printf '%7d  With* options\n' $$(find . -maxdepth 1 $(NONTEST) | xargs cat | grep -c '^func With')
	@printf '%7d  core.Params fields\n' $$(awk '/^type Params struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n++} END{print n}' internal/core/types.go)
	@printf '%7d  experiments.ShotConfig fields\n' $$(awk '/^type ShotConfig struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n++} END{print n}' internal/experiments/runner.go)
	@printf '%7d  baseline Config fields\n' $$(awk '/^type Config struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n++} END{print n}' internal/uvmsim/uvm.go internal/adiossim/adios.go)
	@printf '%7d  scenario Config fields\n' $$(awk '/^type (RankFail|Migrate|Elastic)Config struct/{f=1;next} f&&/^}/{f=0} f&&/^\t[A-Z]/{n++} END{print n}' internal/experiments/rankfail.go internal/experiments/migrate.go internal/experiments/elastic.go)
	@printf '%7d  ckptbench flags\n' $$(grep -c ':= fs\.[A-Z][A-Za-z0-9]*("' cmd/ckptbench/main.go)
	@printf '%7d  registered eviction policies\n' $$(grep -c '^	Policy[A-Za-z0-9]*: *"' internal/cachebuf/policy.go)
	@printf '%7d  cond-wake call sites\n' $$(find internal $(NONTEST) -not -path 'internal/simclock/*' | xargs grep -hE '\.(Broadcast|Signal)\(\)' | wc -l)
	@printf '%7d  cache-wake call sites\n' $$(find internal $(NONTEST) -not -path 'internal/cachebuf/*' -not -path 'internal/simclock/*' | xargs grep -h '\.Notify()' | wc -l)
	@printf '%7d  zero-default fills (withDefaults methods)\n' $$(find . $(NONTEST) -not -path './bench/*' | xargs grep -h '^func (.*) withDefaults(' | wc -l)
	@printf '%7d  task spawns (.Go call sites)\n' $$(find . $(NONTEST) -not -path './bench/*' -not -path './internal/simclock/*' | xargs grep -h '\.Go(' | wc -l)
	@printf '%7d  DESIGN.md lines\n' $$(wc -l < DESIGN.md)

# loc-check ratchets that inventory (ROADMAP Direction 12):
# testdata/inventory.txt is make loc's output at the last change that
# moved it. The check fails when a count is above its committed value or
# when make loc prints a label the file lacks. A change that shrinks a
# count lowers it there (make loc > testdata/inventory.txt); one that
# must grow it raises it and says why in CHANGES.md.
loc-check:
	@$(MAKE) -s --no-print-directory loc | awk ' \
		NR == FNR { n = $$1 + 0; $$1 = ""; want[$$0] = n; next } \
		{ n = $$1 + 0; $$1 = "" } \
		!($$0 in want) { print "loc-check: testdata/inventory.txt has no count for" $$0; bad = 1; next } \
		n > want[$$0] { print "loc-check:" $$0 ": " n ", above the committed " want[$$0]; bad = 1 } \
		END { if (bad) exit 1; print "loc-check: no count above testdata/inventory.txt" }' testdata/inventory.txt -

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
# once and fails if chunked regresses below the monolithic baseline
# (DESIGN.md §9), then the preemption-drain and straggler gates, which
# run the sweeps ckptbench -exp preempt and -exp straggler print. It also
# gates the simulator engine itself (DESIGN.md §14): measured in a
# process of its own, the 10k-rank sweep must retire at least 0.9x the
# heap reference's events/sec on the default wheel and allocate no more
# than the committed ceiling (testdata/simspeed_baseline.json).
bench-smoke:
	$(GO) test -run TestChunkedPipelineSmoke -v .
	$(GO) test -run TestPreemptDrainSmoke -v .
	$(GO) test -run TestSimSpeedSmoke -v .
	$(GO) test -run TestStragglerSmoke -v .
	$(GO) test -bench BenchmarkAblationChunkedPipeline -benchtime 1x -run '^$$' .
	$(GO) test -bench BenchmarkSimSpeed -benchmem -benchtime 1x -run '^$$' .

# bench-evict runs the eviction matrix (every registered policy on the
# KV-cache trace) once and gates the hit-rate order that justifies each
# registered policy (score ≥ arc > lru > fifo — DESIGN.md §15).
bench-evict:
	$(GO) test -run TestEvictionMatrixSmoke -v .

# trace-smoke exercises the observability layer end to end: the trace
# determinism and flow-arrow golden tests, then the pipeline experiment's
# run bundle (ckptbench -out: metrics, critical-path records, a Chrome
# trace and a lifecycle ledger per shot) written twice and diffed, so any
# byte that differs between two runs fails, then the preemption sweep's
# bundle, a fault scenario. A run under -out exits non-zero if any
# durable or restore attribution record carries an unattributed latency
# gap (DESIGN.md §12), and the target fails on any run that warns a
# trace or ledger "is incomplete" (spans or ledger events dropped at a
# ring cap); bundle/pipeline and bundle/preempt are the CI artifacts.
# It runs observer-tax first, so the job that guards the trace goldens
# also prints what the observers cost.
trace-smoke: observer-tax
	$(GO) test -run 'TestTraceExportDeterministic|TestFlowArrowsMatchGolden' -v .
	rm -rf bundle/pipeline bundle/pipeline-rerun bundle/preempt
	mkdir -p bundle/pipeline bundle/pipeline-rerun bundle/preempt
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ckptbench" ./cmd/ckptbench && \
	for run in "pipeline bundle/pipeline" "pipeline bundle/pipeline-rerun" "preempt bundle/preempt"; do \
		set -- $$run; \
		echo "ckptbench -exp $$1 -scale small -out $$2"; \
		"$$dir/ckptbench" -exp $$1 -scale small -out $$2 2> "$$dir/err.txt"; x=$$?; \
		cat "$$dir/err.txt" >&2; \
		test $$x -eq 0 || exit $$x; \
		if grep -q 'is incomplete' "$$dir/err.txt"; then \
			echo "trace-smoke: ckptbench -exp $$1 wrote an incomplete trace or ledger into $$2"; exit 1; \
		fi; \
	done
	diff -r bundle/pipeline bundle/pipeline-rerun
	rm -rf bundle/pipeline-rerun

# observer-tax prints and gates the observers' host cost as the extra
# allocations and bytes (DESIGN.md §10) of one small shot with tracing,
# 10 ms sampling, SLOs and a trace export over the same shot plain, and
# their growth from 96 to 192 versions; the nil-observer calls and the
# runtime's spans and ledger entries on full rings at zero allocations;
# then the runtime's own budget, mallocs per checkpoint version
# (TestVersionBookkeepingAllocs).
observer-tax:
	$(GO) test -count=1 -run 'TestObserverTaxBudget|TestNilObserversAllocateNothing' -v .
	$(GO) test -count=1 -run 'TestRecordingAtTheRingLimitAllocatesNothing' -v ./internal/trace
	$(GO) test -count=1 -run 'TestVersionBookkeepingAllocs' -v ./internal/core

# slo-smoke exercises the SLO engine end to end (DESIGN.md §17): the
# alert-ledger determinism goldens and the straggler alert story
# (healthy control clean, 20× gray straggler firing with xfer
# attribution); then the pipeline experiment under -fail-on-slo, which
# must hold its checked-in objectives; then the straggler experiment
# under -fail-on-slo, which must breach — the alert path proven live in
# the CLI, not just in tests. Only the breach report passes: any other
# failure (a conservation error, say) fails the target.
slo-smoke:
	$(GO) test -run 'TestSLOSmoke|TestSLODeterminism' -v .
	$(GO) run ./cmd/ckptbench -exp pipeline -scale small -slo -fail-on-slo
	@if out=$$($(GO) run ./cmd/ckptbench -exp straggler -slo -fail-on-slo 2>&1); then \
		echo "straggler run unexpectedly passed -fail-on-slo (the 20x straggler must breach)"; exit 1; \
	elif echo "$$out" | grep -q 'slo breached in'; then \
		echo "straggler breach correctly detected by -fail-on-slo"; \
	else \
		echo "$$out" | tail -5; echo "straggler run failed without the slo breach report"; exit 1; \
	fi

# results regenerates the committed full-scale evaluation transcript.
# Rerun after any change that shifts the simulated numbers, and commit
# the diff — a stale transcript fails honest review.
results:
	$(GO) run ./cmd/ckptbench -exp all -scale full > results_full.txt
	@echo "regenerated results_full.txt"

# results-check regenerates the full-scale transcript into a temporary
# directory and diffs it against the committed results_full.txt, wall-time
# lines excluded. It prints the count of differing lines (removed plus
# added) and fails on any difference: a change that moves a simulated
# number must also commit the regenerated transcript (make results). On a
# difference it names the sections that moved, with their counts, before
# the head of the raw diff; a line's section is the experiment whose
# "(… completed in … wall time)" footer follows it.
# Exit 1 is a difference; exit 2 is a run that failed.
SECTION_LABEL = / wall time\)$$/ { s = substr($$1, 2); for (i = 1; i <= n; i++) print s "\t" b[i]; n = 0; next } \
	{ b[++n] = $$0 } END { for (i = 1; i <= n; i++) print "(after the last section)\t" b[i] }
SECTION_COUNT = /^[<>]/ { s = substr($$1, 3); if (!(s in c)) o[++k] = s; c[s]++ } \
	END { for (i = 1; i <= k; i++) printf "  %s: %d\n", o[i], c[o[i]] }
results-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/ckptbench" ./cmd/ckptbench && \
	"$$dir/ckptbench" -exp all -scale full > "$$dir/raw.txt" || \
		{ echo "results check: ckptbench -exp all -scale full failed"; exit 2; }; \
	awk '$(SECTION_LABEL)' "$$dir/raw.txt" > "$$dir/fresh.lab"; \
	awk '$(SECTION_LABEL)' results_full.txt > "$$dir/committed.lab"; \
	cut -f2- "$$dir/fresh.lab" > "$$dir/fresh.txt"; \
	cut -f2- "$$dir/committed.lab" > "$$dir/committed.txt"; \
	diff "$$dir/committed.txt" "$$dir/fresh.txt" > "$$dir/diff.txt"; \
	n=$$(grep -c '^[<>]' "$$dir/diff.txt"); \
	echo "results check: $$n lines differ between results_full.txt and ckptbench -exp all -scale full"; \
	test "$$n" -eq 0 || { \
		echo "differing lines per section (removed plus added):"; \
		diff "$$dir/committed.lab" "$$dir/fresh.lab" | awk -F'\t' '$(SECTION_COUNT)'; \
		head -n 40 "$$dir/diff.txt"; exit 1; }

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
	$(GO) test -run '^$$' -fuzz FuzzWaitForMatchesTheWaitLoop -fuzztime $(FUZZTIME) ./internal/simclock

clean:
	$(GO) clean ./...
	rm -rf bundle
