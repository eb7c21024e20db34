# The verify target is the tier-1 gate: CI runs it, and it is the
# command to run before sending a change.

.PHONY: verify build test test-race bench perf perf-compare perf-pairs loc loc-check wheel rpsweep ifsweep vasweep cpisweep stats trace tenants fmt-check vet

# J is the sweep parallelism the sweep targets pass to momexp; override
# with `make rpsweep J=1` to force a serial run.
J ?= $(shell nproc)

verify: build test

build:
	go build ./...

test:
	go test ./...

# test-race reruns the suite under the race detector; the simulator is
# single-threaded by design, so a report here means shared state leaked
# between a test's goroutines (parallel subtests, fuzz workers).
test-race:
	go test -race ./...

# bench runs every benchmark exactly once as a perf-path smoke test:
# a panic or regression in the hot simulation loops breaks the build
# without paying for a full statistical benchmarking run. The momsim
# invocations smoke the non-blocking memory pipeline (-mshr 8), the
# stream prefetcher riding it (-mshr 16 -pf 8), and the history row
# predictor under prefetch traffic (-rp history -pf 8) on the
# full-size gsmencode stream, paths the Go benchmarks do not cross.
bench:
	go test -run '^$$' -bench . -benchtime 1x ./...
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 8
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 16 -pf 8
	go run ./cmd/momsim -bench gsmencode -isa mom3d -mem vcache3d -dram sdram -mshr 16 -rp history -pf 8

# perf runs the host-performance benchmark declared in BENCHMARK.json
# (five workloads, end-to-end pass; see bench/README.md) and writes
# .bench_out/result.json. perf-compare judges result B against
# baseline A, metric by metric, and fails on any regression beyond its
# bound: make perf-compare A=before.json B=after.json
perf:
	go run ./bench

perf-compare:
	go run ./bench compare $(A) $(B)

# perf-pairs is the evidence a performance claim needs: N alternating
# runs of one workload on a build of commit REF and on a build of the
# working tree, every run listed, with medians, quartiles and pairs won
# per end-to-end metric. ARGS go to both sides (a held-back -seed, or
# -trace 1 for the per-layer rows):
#   make perf-pairs REF=HEAD~1 W=dram-sweeps N=10
N ?= 10
perf-pairs:
	scripts/perf_pairs.py $(REF) $(W) $(N) $(ARGS)

# loc prints the size figure ROADMAP items and simplicity issues quote:
# non-test Go lines per package directory and in total, with and without
# bench/ (plain `wc -l`; *_test.go excluded).
loc:
	@scripts/loc.sh

# loc-check is loc as a gate: it fails when the total without bench/
# exceeds LOC_CEILING, the figure the last PR left behind, so a PR that
# grows the tree has to raise the number in its own diff (and a PR that
# shrinks it should lower it).
LOC_CEILING = 16472
loc-check:
	@scripts/loc.sh $(LOC_CEILING)

# stats smokes the observability layer end to end: a tiny run with the
# registry exporter on, then the pretty-printed snapshot so a reader
# can eyeball every registered name.
stats:
	go run ./cmd/momsim -bench gsmencode -dram sdram -mshr 8 -pf 4 -statsjson /tmp/momsim_stats.json
	@python3 -m json.tool /tmp/momsim_stats.json 2>/dev/null || cat /tmp/momsim_stats.json

# trace smokes the cycle-stamped event tracer under the race detector:
# the emitting hot paths and the ring buffer must stay race-free with
# the exporter attached, and the emitted file must be Chrome-loadable
# JSON (the momsim tests parse one back; this exercises the full-size
# binary path).
trace:
	go test -race -run 'TestTracer|TestResolveObservability' ./internal/stats/ ./cmd/momsim/
	go test -race -count=1 -run 'TestTraceParseBackWheelTenants|TestTraceRingWrapMonotonic' ./internal/tenant/
	go run -race ./cmd/momsim -bench gsmencode -dram sdram -mshr 8 -pf 4 -trace /tmp/momsim_trace.json -tracebuf 65536
	@python3 -c "import json; d=json.load(open('/tmp/momsim_trace.json')); print('trace OK:', len(d['traceEvents']), 'events')"

# wheel runs the wheel-vs-step equivalence suite under the race
# detector: the wake ring, the golden-table and per-feature
# bit-identity tests in internal/core with the mid-run engine switch,
# the independent sleeper check, the ready-latch monotonicity check and
# the poll-free-walk check beside them, the multi-tenant
# equivalence (per-tenant wake-ups ≡ per-cycle lockstep, whole snapshot
# and every sampler row, every sleeper caught up at every MSHR flush,
# and the full-size machines momsim runs, solo up to four tenants)
# and the tenants-alias-one-stream check (address
# windows ≡ the rebased copies they replaced), the sweep-level
# parallel/serial and wheel/step byte-identity checks
# (TestSweepsParallelMatchSerial ranges over every sweep) — the trace
# store's among them: four workers sharing it must generate each stream
# once, race-free — and the full-size evaluation under both engines
# against the frozen naive-scan digests (most of the suite's time under
# -race).
wheel:
	go test -race -count=1 \
		-run 'TestRing|TestWheelMatchesStep|TestEngineSwitchMidRun|TestSleepersAre(NeverReady|CaughtUpAtEveryFlush)|TestSampledRowsMatchStepAtTheirCycle|TestReadyLatchIsMonotone|TestPollFreeWalkDoesNotFlush|Match(es)?Serial|TestIFSweepWheelMatchesStep|TestTenantsAliasOneStream|TestFullSizeMatchesNaiveScanDigests' \
		./internal/engine/ ./internal/core/ ./internal/tenant/ ./internal/experiments/ ./cmd/momexp/

# rpsweep regenerates the full-size per-bank row-policy matrix
# (EXPERIMENTS.md's reference table): open/close/timer/history ×
# demand-only and prefetch traffic on the streaming kernels, with cells
# sharded across the host's CPUs.
rpsweep:
	go run ./cmd/momexp -rpsweep -j $(J) -q

# ifsweep regenerates the multi-tenant interference matrix
# (EXPERIMENTS.md's reference table): every tenant mix solo, shared
# under plain FR-FCFS, and shared under QoS credit scheduling.
ifsweep:
	go run ./cmd/momexp -ifsweep -j $(J) -q

# vasweep regenerates the placement-policy × kernel-mix matrix under
# address translation (EXPERIMENTS.md's reference table): every
# interference mix under first-fit, page coloring and co-location on
# the banked part, where each 4 KiB page maps wholly to one channel.
vasweep:
	go run ./cmd/momexp -vasweep -j $(J) -q

# cpisweep regenerates the CPI-stack cycle-attribution table
# (EXPERIMENTS.md's reference table) over the extended full-size suite
# and the backend ladder, writing BENCH_PR10.json; every row's buckets
# are asserted to sum to its cycle count before rendering.
cpisweep:
	go run ./cmd/momexp -cpisweep BENCH_PR10.json -q

# tenants smokes the multi-requestor front end under the race detector:
# two motionsearch instances in lockstep on one shared QoS-scheduled
# part, with the per-tenant registry exporter on. The lockstep group and
# the sharded stat paths must stay race-free, and the export must carry
# both tenants' shards.
tenants:
	go run -race ./cmd/momsim -bench motionsearch -isa mom3d -mem vcache3d \
		-dram sdram -tenants 2 -qos -statsjson /tmp/momsim_tenants.json
	@python3 -c "import json; d=json.load(open('/tmp/momsim_tenants.json')); \
		names=list(d['counters'])+list(d['gauges'])+list(d['histograms']); \
		assert any(n.startswith('tenant.0.') for n in names), 'tenant 0 shard missing'; \
		assert any(n.startswith('tenant.1.dram.') for n in names), 'tenant 1 dram shard missing'; \
		print('tenants OK:', sum(n.startswith('tenant.') for n in names), 'per-tenant stat names')"

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	go vet ./...
