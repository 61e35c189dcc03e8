# Convenience targets for the timedpa reproduction.
#
# Check matrix (what `make check` runs and why):
#
#   target      command                          catches
#   ----------  -------------------------------  ----------------------------------
#   build       go build ./...                   compile errors across all packages
#   vet         go vet (+ staticcheck if found)  suspicious constructs, dead code
#   test        go test ./...                    unit + integration + fuzz seed corpus
#   test-race   go test -race ./...              data races in the sharded Monte
#                                                Carlo engine and checkpoint sink
#   bench-smoke go test -bench -benchtime=1x     benchmarks that stopped compiling
#                                                or assert a broken paper bound
#   chaos-smoke go test -race -run TestChaos     one seeded fault/kill/corruption
#                                                storm per chaos package
#   chaos-net-smoke go test -race TestChaosNetworkStorm  one seeded partition/
#                                                corruption network storm against
#                                                real coordinator + workers
#   fabric-smoke go test -run TestFabricSmoke    coordinator + 2 workers over
#                  + lease-sizing tests          loopback reproduce the exact
#                                                single-process estimate, with
#                                                fixed and adaptive leases
#   trace-smoke simd local -trace-out | simtrace a traced run stopped emitting
#                                                spans or simtrace lost the
#                                                critical path
#   mdp-smoke   lrcheck + every                  the on-the-fly explorer or a
#                 TestExploreMatchesDense case   parallel sparse solver diverging
#                                                from the dense test oracle on
#                                                any case study, topology or
#                                                rigged appendix product
#   vuln        govulncheck (if installed)       known-vulnerable dependency use
#
# Performance regressions are gated separately by `make bench-diff`: it
# re-measures the engine benchmarks and diffs them against the committed
# BENCH_sim.json baseline with `benchjson -compare` (exit 1 when any
# metric moves >10% in the bad direction, the headline trials/s drops
# below the absolute TRIALS_FLOOR, or the exact-engine states/s drops
# below STATES_FLOOR). It is not part of `make check`
# because a measurement run takes minutes; run it before committing
# changes to internal/sim, internal/prob or internal/obs.
#
# staticcheck and govulncheck are optional: the targets run them when they
# are on PATH and print a skip notice otherwise, so `make check` works on
# a bare Go toolchain. Longer fuzzing of the engine against adversarial
# policies is split out as `make fuzz` (FUZZTIME=30s by default) because
# it is open-ended; the fuzz seed corpus still runs in every plain
# `go test`.

GO ?= go
FUZZTIME ?= 30s

.PHONY: all build test test-short test-race bench bench-smoke bench-json bench-diff vuln vet fmt fuzz chaos chaos-smoke chaos-net chaos-net-smoke fabric-smoke bench-fabric trace-smoke mdp-smoke check lrcheck experiments loc

# Benchmarks recorded in BENCH_sim.json and gated by bench-diff: the
# parallel-engine throughput row, the hot-path ablation ladder, the
# metrics-overhead pair, the compiled-vs-uncompiled ablations for the
# election and consensus case studies, and the exact-engine
# explore+solve row.
BENCH_GATE = BenchmarkParallelTrials|BenchmarkTrialAblation|BenchmarkMetricsOverhead|BenchmarkSpanOverhead|BenchmarkElectionTrials|BenchmarkConsensusTrials|BenchmarkExactEngine|BenchmarkBreakerOverhead

# Absolute throughput backstop for the headline engine benchmark,
# enforced by bench-diff on top of the relative 10% gate: the compiled
# engine (transition cache with frozen-scan samplers and cached successor
# entries, packed interning, per-worker arenas, by-pointer policy view)
# measures ~205k trials/s on the reference machine at GOMAXPROCS=1, 5.6x
# the 36,431 trials/s recorded in EXPERIMENTS.md before the arenas, the
# successor cache and the SplitMix64 trial RNG landed; the floor sits
# below that to absorb machine noise while still catching any change
# that gives back the optimisation.
TRIALS_FLOOR = BenchmarkParallelTrials:trials/s=180000

# Absolute backstop for the exact engine: the on-the-fly CSR explorer
# plus the parallel sparse composed-claim check sustains ~43k states/s
# on the dining n=3 k=2 product (reference machine); the floor catches
# a return to per-state map interning or single-threaded sweeps.
STATES_FLOOR = BenchmarkExactEngine:states/s=25000

all: check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The Monte Carlo engine shards trials across goroutines; the race
# detector runs as part of tier-1 verification.
test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches benchmarks that no longer
# compile or whose asserted paper bounds broke, without paying for a full
# measurement run.
bench-smoke:
	$(GO) test -run='^$$' -bench=. -benchtime=1x ./...

# Machine-readable benchmark artifact: the engine benchmarks named in
# BENCH_GATE (the metrics-overhead pair's equal allocs/op columns prove
# the telemetry hook allocates nothing per trial), post-processed from
# the `go test -json` stream into BENCH_sim.json by cmd/benchjson.
bench-json:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o BENCH_sim.json
	@echo "wrote BENCH_sim.json"

# Perf-regression gate: re-measure the gated benchmarks into a temp file
# and diff against the committed baseline; exits non-zero when any
# metric regressed more than 10%.
bench-diff:
	$(GO) test -run='^$$' -bench='$(BENCH_GATE)' -benchmem -json . \
		| $(GO) run ./cmd/benchjson -o /tmp/bench_new.json
	$(GO) run ./cmd/benchjson -compare BENCH_sim.json /tmp/bench_new.json -threshold 0.10 -floor '$(TRIALS_FLOOR)' -floor '$(STATES_FLOOR)'

vuln:
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet still ran)"; \
	fi

fmt:
	gofmt -l .

# Fuzz the engine and the artifact layer. Each -fuzz run is a separate
# invocation (Go allows one fuzz target per run):
#   RunOnceAdversarial  adversarial policies: typed errors, never a crash
#   LoadCheckpointSet   hostile checkpoint bytes: ErrCorruptArtifact, never a panic
#   ReadManifest        hostile manifest JSONL: ErrCorruptManifest, never a panic
#   RatOps              inline int64 rationals: every op equals math/big, canonical form
#   FrozenPickIdentity  frozen sampler picks exactly what Dist.Pick picks
fuzz:
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzRunOnceAdversarial -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/sim -run='^$$' -fuzz=FuzzLoadCheckpointSet -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/obs -run='^$$' -fuzz=FuzzReadManifest -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzRatOps -fuzztime=$(FUZZTIME)
	$(GO) test ./internal/prob -run='^$$' -fuzz=FuzzFrozenPickIdentity -fuzztime=$(FUZZTIME)

# Chaos packages: seeded fault/kill/corruption storms against the
# artifact layer (in-process, injected filesystem faults) and the real
# CLIs (SIGKILLed subprocesses). Failures print the storm seed; replay
# with CHAOS_SEED=<seed>.
CHAOS_PKGS = ./internal/sim ./cmd/lrsim ./cmd/electcheck ./cmd/simd
CHAOS_STORMS ?= 8

# The full chaos suite: many storms per package, race detector on.
# (Includes the network storm via the TestChaos pattern.)
chaos:
	CHAOS_STORMS=$(CHAOS_STORMS) $(GO) test -race -run 'TestChaos' -v $(CHAOS_PKGS)

# One race-enabled storm per package; cheap enough to gate every check.
# The network storm is skipped here — it has its own smoke target below,
# so each gate stays attributable when one fails.
chaos-smoke:
	CHAOS_STORMS=1 $(GO) test -race -run 'TestChaos' -skip 'TestChaosNetwork' -count=1 $(CHAOS_PKGS)

# Network-adversary chaos: seeded fault-injecting transports (latency,
# drops, 5xx, corruption, truncation, slow-drip, corrupt-on-send) plus a
# mid-job partition, against real coordinator + worker processes with
# hedging, quarantine and breakers on. Failures print the storm seed;
# replay with CHAOS_SEED=<seed>.
chaos-net:
	CHAOS_STORMS=$(CHAOS_STORMS) $(GO) test -race -run 'TestChaosNetworkStorm' -count=1 -v ./cmd/simd

# One race-enabled network storm; gates every check.
chaos-net-smoke:
	CHAOS_STORMS=1 $(GO) test -race -run 'TestChaosNetworkStorm' -count=1 ./cmd/simd

# Distributed-fabric smoke: a coordinator plus two in-process workers
# over loopback HTTP must reproduce the single-process estimate exactly,
# with fixed and with adaptive leases; the FakeClock lease-sizing tests
# pin the adaptive rule, per-chunk hedging and whole-lease reassignment.
# Seconds, so it gates every check; the SIGKILL recovery and
# resume paths run in the ./cmd/simd process tests and the chaos storms.
fabric-smoke:
	$(GO) test ./internal/fabric -run 'TestFabricSmoke|TestLeaseSizing|TestHedgeThresholdPerChunk|TestExpiredAdaptiveLeaseReassignedWhole' -count=1 -v

# One traced end-to-end run of the fabric workload: simd-local-equivalent
# leg A against coordinator + 2 loopback workers, with the per-layer
# rows (leases, RPC, compute, merge, artifact bytes) and fabric.slowdown.
bench-fabric:
	bash perfbench/run.sh --workload dining-fabric --seed 1 --seconds 10 --trace 1

# Tracing smoke: a traced local run must produce a trace that simtrace
# merges into a timeline with a non-empty critical path. Catches the
# span exporter or the timeline analysis silently breaking.
trace-smoke:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/simd local -model dining -n 3 -trials 256 -seed 7 -trace-out "$$tmp/run.trace" >/dev/null && \
	$(GO) run ./cmd/simtrace "$$tmp/run.trace" > "$$tmp/report.txt" && \
	grep -q 'critical path (' "$$tmp/report.txt" && \
	! grep -q 'critical path (0 hops' "$$tmp/report.txt" && \
	echo "trace-smoke: ok (critical path present)"

# Exact-engine smoke: one end-to-end lrcheck run through the on-the-fly
# CSR explorer and the parallel sparse solvers (all five arrows, the
# composed claim, the expected-time sweep), plus the dense-vs-explored
# agreement property on the election products. Seconds, so it gates
# every check; the large-product runs live in the non-short tests and
# EXPERIMENTS.md E22.
mdp-smoke:
	$(GO) run ./cmd/lrcheck -n 3 -k 1 -workers 2 >/dev/null && echo "mdp-smoke: lrcheck ok"
	$(GO) test -run 'TestExploreMatchesDense' -count=1 .

check: build vet test test-race bench-smoke chaos-smoke chaos-net-smoke fabric-smoke trace-smoke mdp-smoke vuln

# Production Go line count, the figure ROADMAP.md's size targets use:
# every .go file outside the perfbench build cache, less tests and
# perfbench itself.
loc:
	@find . -path ./.bench_build -prune -o -name '*.go' -print | grep -v _test.go | grep -v perfbench | xargs wc -l | tail -1

# The headline reproduction: the paper's table, derivation and bounds.
lrcheck:
	$(GO) run ./cmd/lrcheck -n 3 -k 1 -curve 16

# Regenerate the artifacts recorded in EXPERIMENTS.md.
experiments:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem ./... 2>&1 | tee bench_output.txt
