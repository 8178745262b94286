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
PERF_BENCHES = BenchmarkDefaultsSimulation|BenchmarkAblationP5LP$$|BenchmarkAblationOfflineDayLP|BenchmarkAblationOfflineHorizonLP|BenchmarkFleetDispatch|BenchmarkSuiteSequential|BenchmarkSuiteTune|BenchmarkGeoStep|BenchmarkTuneEvaluate|BenchmarkHorizonStair|BenchmarkWriteExposition|BenchmarkSnapshot|BenchmarkRestore|BenchmarkTraceGeneration|BenchmarkSessionSlot|BenchmarkSolveBest|BenchmarkPlanFine
PERF_PKGS = . ./internal/lp ./internal/serve ./internal/engine ./internal/core

# Fuzzing budget for the `fuzz` target (CI smoke uses the default).
FUZZTIME ?= 30s

.PHONY: build test race bench bench-check fuzz lint lint-docs docs suite golden cover perf serve-smoke tune-smoke

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
# bit. FUZZTIME is each target's budget (e.g. FUZZTIME=5m). Every target
# runs even after one fails, so one open defect cannot hide the others;
# the recipe then names each failed target and exits non-zero.
fuzz:
	@failed=""; \
	for t in ./internal/lp:FuzzSparseSolveParity ./internal/engine:FuzzRestore \
		./internal/engine:FuzzSlotInput .:FuzzPolicyInvariants ./internal/core:FuzzSolveBestParity; do \
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

# Package-comment lint: every package must carry a godoc package comment
# (see scripts/lint-docs.sh for the exact rule).
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
# the bit pins beneath them — every generated trace and every policy's
# report (internal/engine), the whole-horizon and geo LP plans
# (internal/baseline) — and the daemon's exposition and checkpoint bytes
# with the refused version-1 checkpoint (internal/serve). Regenerate a
# pin only for an intended output change, with -update on its package,
# e.g.:
#   go test ./internal/experiments -run TestSuiteGolden -update
GOLDEN_PINS = TestGeneratedTracesPinned|TestReportsPinned|TestStaircasePlansPinned|TestFig6vOfflineDelayPinned|TestSuiteGolden|TestGoldenFilesComplete|TestEncodingsPinned|TestVersionOneCheckpointRefused

golden:
	$(GO) test -count=1 -run '^($(GOLDEN_PINS))$$' -v ./internal/engine ./internal/baseline ./internal/experiments ./internal/serve

# Per-package coverage, mirroring the CI floors (suite 70%, generator 85%,
# baseline 70%, lp 95%, sim 70%, optimize 85%, serve 80%).
cover:
	$(GO) test -cover ./internal/suite ./internal/generator ./internal/baseline ./internal/lp ./internal/sim ./internal/optimize ./internal/serve

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

# Regenerate the committed benchmark trajectory file: runs the key hot-path
# benchmarks with -benchmem and rewrites BENCH_10.json's "current" block
# (its "baseline" block — the pre-tuner PR-9 reference — is carried over
# unchanged; older trajectories survive in BENCH_9/8/7/5/4.json). The
# year-long annual LP joins at one iteration: ~10 s per solve on the
# hyper-sparse kernels, and cmd/perf gates it against a 20 s wall-clock
# budget on the CI -check path. The bench output goes through a file, not
# a pipe, so a failing benchmark run fails the target instead of being
# masked by the parser's exit status.
perf:
	$(GO) test -bench='$(PERF_BENCHES)' -benchmem -benchtime=20x -run '^$$' $(PERF_PKGS) > bench.out
	$(GO) test -bench=BenchmarkAblationOfflineAnnualLP -benchmem -benchtime=1x -run '^$$' . >> bench.out
	$(GO) run ./cmd/perf -out BENCH_10.json -note "make perf" < bench.out
	@rm -f bench.out
