# Same targets CI runs (.github/workflows/ci.yml), so humans and CI
# invoke identical commands.

GO ?= go

# The perf-trajectory benchmark set (see BENCH_10.json and README
# "Performance"), run over PERF_PKGS. BenchmarkAblationOfflineDayLP is
# the interval-LP rung (OfflineOptimal's per-interval staircase LPs).
# BenchmarkHorizonStair matches one 72-slot staircase LP in internal/lp
# solved by the sparse revised simplex and by the tests' dense tableau
# oracle, so cmd/perf can gate their same-run speedup ratio;
# BenchmarkGeoStep carries the geo fan-out's allocs/op gate at every
# fleet size; the dpss-serve rungs — one /metrics scrape
# (internal/serve), one checkpoint and one resume (internal/engine) —
# sit in the packages that own them. BenchmarkTraceGeneration (one
# default month of synthetic traces) and BenchmarkSessionSlot (one
# Step+Commit of a SmartDPSS session, internal/engine) are the two
# layers a geo site-month pays for. Beneath the session slot sit the
# controller-planning rungs in internal/core: BenchmarkSolveBest (one P5
# pair) and BenchmarkPlanFine/BenchmarkPlanFineFleet (one fine slot of
# planning without and with BenchmarkFleetDispatch's fleet). cmd/perf
# holds the session slot and these three to exactly 0 allocs/op.
# BenchmarkAblationP5LP (internal/core) solves BenchmarkSolveBest's P5
# pairs on the tests' simplex model of P5, the merit-order solver's
# oracle. BenchmarkSuiteTune is the tune family on one worker, the layer
# above BenchmarkTuneEvaluate (one objective evaluation).
# BenchmarkLookaheadMonth is the lookahead-window LP rung: EXT-5's
# Lookahead(24) over a default month, the suite's longest job.
# BenchmarkRouteGreedy (internal/geo) is a geo step's third layer: the
# greedy router over an 8-site month on the pool. Beneath trace
# generation sits the seeding rung in internal/rng: BenchmarkNewSource
# seeds a source (math/rand's stream, lane-parallel seeding) from 32
# varying seeds an op, drawing once after each, and
# BenchmarkAblationMathRandSource does the same on math/rand's own
# source; cmd/perf gates their same-run ratio at 0.50.
PERF_BENCHES = BenchmarkDefaultsSimulation|BenchmarkAblationP5LP$$|BenchmarkAblationOfflineDayLP|BenchmarkAblationOfflineHorizonLP|BenchmarkLookaheadMonth|BenchmarkFleetDispatch|BenchmarkSuiteSequential|BenchmarkSuiteTune|BenchmarkGeoStep|BenchmarkTuneEvaluate|BenchmarkHorizonStair|BenchmarkWriteExposition|BenchmarkSnapshot|BenchmarkRestore|BenchmarkTraceGeneration|BenchmarkSessionSlot|BenchmarkSolveBest|BenchmarkPlanFine|BenchmarkRouteGreedy|BenchmarkNewSource|BenchmarkAblationMathRandSource
PERF_PKGS = . ./internal/lp ./internal/serve ./internal/engine ./internal/core ./internal/geo ./internal/rng

# Fuzzing budget for the `fuzz` target (CI smoke uses the default).
FUZZTIME ?= 30s

.PHONY: build test race bench bench-check fuzz lint lint-docs docs suite golden cover perf perf-bench perf-check serve-smoke tune-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Benchmark smoke: one iteration of every benchmark, including the
# provision-family point (BenchmarkProvisionGrid). -short skips the
# year-long annual LP (minutes even at one iteration) and the explicit
# timeout keeps a hung benchmark from stalling CI silently.
bench:
	$(GO) test -bench=. -benchtime=1x -short -timeout 15m -run '^$$' .

# The end-to-end benchmark in bench/ is a separate module (its go.mod
# replaces the main module with ../) that calls main-module APIs, so
# `go build ./...` at the root never compiles it. Vet and test it here
# so an API rename fails this target, not only the benchmark run.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# Native fuzzing, one target per run (go test -fuzz takes one target):
# FuzzSparseSolveParity — random box LPs and badly scaled cost-cut
# staircase LPs, where the solver must match every verdict the tests'
# tableau oracle can vouch for; FuzzRestore —
# mutated and truncated checkpoints must never panic Restore nor leave a
# session partly restored; FuzzSlotInput — arbitrary slot inputs must
# never panic Step, a rejected input must leave the session unchanged,
# and an accepted one must commit and leave the session snapshottable;
# FuzzPolicyInvariants — all six policies over random plants, batteries
# and fleets must close the energy balance, keep the state of charge in
# bounds, follow the backlog recurrence and reconcile their reports;
# FuzzSolveBestParity — random and edge-case P5 instances, where the
# controller's shared-sort P5 pair must match two full solves bit for
# bit; FuzzSourceParity — for any seed, internal/rng's source must yield
# math/rand's stream (2,500 Uint64 draws, and Float64, NormFloat64 and
# Intn through rand.New). FUZZTIME is each target's budget (e.g. FUZZTIME=5m). Every target
# runs even after one fails, so one open defect cannot hide the others;
# the recipe then names each failed target and exits non-zero.
fuzz:
	@failed=""; \
	for t in ./internal/lp:FuzzSparseSolveParity ./internal/engine:FuzzRestore \
		./internal/engine:FuzzSlotInput .:FuzzPolicyInvariants ./internal/core:FuzzSolveBestParity \
		./internal/rng:FuzzSourceParity; do \
		pkg=$${t%%:*}; name=$${t#*:}; \
		echo "fuzz: $$name ($$pkg)"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$name\$$" -fuzztime $(FUZZTIME) || failed="$$failed $$name"; \
	done; \
	if [ -n "$$failed" ]; then echo "fuzz: failed targets:$$failed" >&2; exit 1; fi

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...

# Package-comment lint: every package must carry a godoc package comment,
# and every Markdown file a Go comment names must exist (see
# scripts/lint-docs.sh for the exact rules).
lint-docs:
	./scripts/lint-docs.sh

# Documentation surface: every godoc Example must pass (output lines are
# checked verbatim), on top of the lint and package-comment gates.
docs: lint lint-docs
	$(GO) test -run Example ./...

# Full scenario suite (paper + extensions + provisioning + fleet + geo
# + tune + the year-long annual family) on all cores. The annual
# scenario solves the 8760-slot horizon LP on the sparse simplex —
# minutes, not hours, but still the slowest row of the suite.
suite:
	$(GO) run ./cmd/experiments -run paper,ext,provision,fleet,annual,geo,tune

# Output-pin regression gate, uncached: the paper suite against its
# committed snapshots (internal/experiments) and fig6v's offline delay,
# the bit pins beneath them — every generated trace, the cooled demand
# and every policy's report (internal/engine), the whole-horizon and geo LP plans
# (internal/baseline) — and the daemon's exposition and checkpoint bytes
# with the refused older checkpoint versions (internal/serve). Regenerate a
# pin only for an intended output change, with -update on its package,
# e.g.:
#   go test ./internal/experiments -run TestSuiteGolden -update
# The target first lists the tests of GOLDEN_PKGS (go test -list) and
# fails when a name in GOLDEN_PINS matches none of them, so a renamed
# pin cannot drop out of the run unnoticed.
GOLDEN_PINS = TestGeneratedTracesPinned|TestCooledTracesPinned|TestReportsPinned|TestStaircasePlansPinned|TestFig6vOfflineDelayPinned|TestSuiteGolden|TestGoldenFilesComplete|TestEncodingsPinned|TestOldCheckpointVersionsRefused
GOLDEN_PKGS = ./internal/engine ./internal/baseline ./internal/experiments ./internal/serve

golden:
	@listed=$$($(GO) test -list '^($(GOLDEN_PINS))$$' $(GOLDEN_PKGS)) || exit 1; \
	for pin in $$(echo '$(GOLDEN_PINS)' | tr '|' ' '); do \
		echo "$$listed" | grep -qx "$$pin" || { echo "golden: $$pin matches no test in $(GOLDEN_PKGS)" >&2; exit 1; }; \
	done
	$(GO) test -count=1 -run '^($(GOLDEN_PINS))$$' -v $(GOLDEN_PKGS)

# Per-package coverage floors (package:percent under internal/): the
# suite engine, the generator fleet, the offline/lookahead baselines and
# the LP substrate are the subsystems every scenario's correctness rides
# on, serve holds the daemon's hand-written exposition encoder, and trace
# and engine hold trace validation and the one TraceConfig screen the
# generators trust, so their coverage may not regress below the floor.
# CI runs this target.
COVER_FLOORS = suite:70 generator:85 baseline:70 lp:95 sim:70 optimize:85 serve:80 trace:86 engine:80

cover:
	@for f in $(COVER_FLOORS); do \
		pkg=internal/$${f%%:*}; floor=$${f#*:}; \
		$(GO) test -coverprofile=cover.out "./$$pkg" || exit 1; \
		pct=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub("%","",$$3); print $$3}'); \
		echo "$$pkg coverage: $$pct% (floor $$floor%)"; \
		awk -v p="$$pct" -v f="$$floor" 'BEGIN { exit (p+0 < f+0) ? 1 : 0 }' || { \
			echo "coverage of $$pkg fell below $$floor%" >&2; exit 1; }; \
	done

# Tuning-family smoke: the three tune scenarios (tuned-vs-default gap,
# seed/regime transfer, SmartDPSS-vs-Lyapunov frontier) on a two-day
# horizon with two seeds through a two-worker pool — fast enough for CI,
# wide enough to exercise the nested tuner fan-out. The family run
# searches each policy arm once and shares the result (suite.Once); each
# scenario then runs alone, searching for itself, and the concatenated
# tables must equal the family run byte for byte.
tune-smoke:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) build -o "$$dir/experiments" ./cmd/experiments && \
	"$$dir/experiments" -run tune -days 2 -seeds 2 -parallel 2 > "$$dir/family" && \
	cat "$$dir/family" && \
	for s in tune-gap tune-xfer tune-frontier; do \
		"$$dir/experiments" -run $$s -days 2 -seeds 2 -parallel 2 >> "$$dir/alone" || exit 1; \
	done && \
	cmp "$$dir/family" "$$dir/alone" && \
	echo "tune-smoke: each tune scenario run alone matches the family run"

# Service-mode smoke: start dpss-serve on a replay source, scrape
# /metrics over HTTP, validate the OpenMetrics exposition, and prove a
# checkpointed run resumes across processes (scripts/serve-smoke.sh).
serve-smoke:
	./scripts/serve-smoke.sh

# The perf benchmark run that perf and perf-check share: the
# PERF_BENCHES set over PERF_PKGS at 20 iterations, then the year-long
# annual LP once (its explicit timeout keeps a slow machine from hitting
# go test's 10-minute default). The output goes through a file, not a
# pipe, so a failing benchmark run fails the target instead of being
# masked by the parser's exit status.
perf-bench:
	$(GO) test -bench='$(PERF_BENCHES)' -benchmem -benchtime=20x -run '^$$' $(PERF_PKGS) > bench.out
	$(GO) test -bench=BenchmarkAblationOfflineAnnualLP -benchmem -benchtime=1x -timeout 20m -run '^$$' . >> bench.out

# Regenerate the committed benchmark trajectory file: runs the key hot-path
# benchmarks with -benchmem and rewrites BENCH_10.json's "current" block
# (its "baseline" block — the pre-tuner PR-9 reference — is carried over
# unchanged; older trajectories survive in BENCH_9/8/7/5/4.json). The
# year-long annual LP joins at one iteration, and cmd/perf gates it
# against a 20 s wall-clock budget on the CI -check path; BENCH_10.json
# records it at 9.62 s (baseline block) and 19.86 s (current block), so
# that budget has almost no headroom (ROADMAP item 7).
perf: perf-bench
	$(GO) run ./cmd/perf -out BENCH_10.json -note "make perf" < bench.out
	@rm -f bench.out

# The perf gate CI runs: the same benchmark run, checked against the
# committed BENCH_10.json — allocs/op per gated benchmark, exactly 0 for
# the session slot and the core planning rungs, the sparse/dense
# staircase and rng/math/rand seeding speedup ratios and the annual LP's
# wall-clock budget; a gated
# benchmark missing from the run fails the check. The measurements land
# in bench-run.json, tagged with PERF_NOTE.
PERF_NOTE ?= make perf-check

perf-check: perf-bench
	$(GO) run ./cmd/perf -check BENCH_10.json -out bench-run.json -note "$(PERF_NOTE)" < bench.out
