GO ?= go

.PHONY: all build vet lint test race budget verify experiments bench chaos chaos-writes

all: verify

build:
	$(GO) build ./...

# vet runs the default analyzer set, then copylocks as an explicit pass so a
# future change to the default set can never silently drop it (the guarded
# structs of probecache/engine/core must not be copied). shadow and nilness
# are x/tools vettools; they run when installed and skip with a note when the
# environment has no network to install them.
vet:
	$(GO) vet ./...
	$(GO) vet -copylocks ./...
	@if command -v shadow >/dev/null 2>&1; then \
		$(GO) vet -vettool="$$(command -v shadow)" ./...; \
	else \
		echo "vet: shadow not installed, skipping (go install golang.org/x/tools/go/analysis/passes/shadow/cmd/shadow@latest)"; \
	fi
	@if command -v nilness >/dev/null 2>&1; then \
		$(GO) vet -vettool="$$(command -v nilness)" ./...; \
	else \
		echo "vet: nilness not installed, skipping (go install golang.org/x/tools/go/analysis/passes/nilness/cmd/nilness@latest)"; \
	fi

# lint runs the repo's own analyzer suite (cmd/kwslint): determinism,
# ctxflow, metricname, lockcheck, errwrap, and the CFG-based analyzers
# lockflow, leakcheck, hotpath, eventkind. See DESIGN.md §10 and §14.
lint:
	$(GO) run ./cmd/kwslint ./...

test:
	$(GO) test ./...

# The observability layer, the server middleware, the core pipeline (with
# its bitset probe engine), the engine (including the plan cache under
# concurrent Prepare/Select/Insert), the probe cache, storage (serialized
# writers against snapshot readers), and the bitmap containers are the
# concurrency-sensitive packages; run them under the race detector.
race:
	$(GO) test -race ./internal/obs ./internal/server ./internal/core ./internal/core/bitprobe ./internal/bitset ./internal/engine ./internal/probecache ./internal/storage

# budget re-runs the //kws:hotpath allocation pins on their own (they also
# run inside `test`): the manifest-driven table in internal/core requires a
# harness for every annotated function and pins warm probe servicing and
# flight logging at zero allocations. The report pin caps a warm level-3
# Debug + JSON report, so SQL rendered for a report that does not show it
# fails here.
budget:
	$(GO) test -run 'TestHotpathAllocBudgets|TestLookupRecordAllocFree' ./internal/core ./internal/invidx
	$(GO) test -run 'TestWarmReportAllocBudget' ./internal/report

verify: build vet lint test race budget

experiments:
	$(GO) run ./cmd/experiments -scale 0.02 -maxlevel 3

# Fault-injection and resource-governance tests, repeated to shake out
# scheduling-dependent flakes: engine retry/backoff under injected transient
# faults, core identity under faults, budget/deadline degradation, and
# cancellation cleanliness.
chaos:
	$(GO) test -count=5 -run 'Chaos|Fault|Retry|Budget|Deadline|Cancel' ./internal/engine ./internal/core

# Concurrent INSERT storms against in-flight warm debug runs, under the race
# detector: writers serialize in storage, readers see consistent prefixes,
# and at quiesce the repaired warm output must be byte-identical to a cold
# run at every worker count — on the prepared path and on the bitset path
# (suspect -> re-probe -> repair through bitmap semi-joins). Repeated because
# the interleavings that matter are scheduling-dependent.
chaos-writes:
	$(GO) test -race -count=3 -run 'ChaosWriteStorm|ChaosBitsetWriteStorm|RepairAcrossWorkerCounts' ./internal/core

# Probe scheduler + cache sweep, the budget degradation curve, the
# prepared-plan comparison, and the flight-recorder overhead check: renders
# the tables to stdout and writes the machine-readable reports (ns/op,
# probes/op, speedup, warm-cache hit rate at workers=1,2,4,8; MPAN recall vs
# budget fraction; text vs prepared ns/probe cold and warm; recorder-on vs
# recorder-off ns/op at workers=1,8) to BENCH_probe.json, BENCH_degrade.json,
# BENCH_plan.json, and BENCH_flight.json. GOMAXPROCS is pinned so the speedup
# columns are comparable across hosts; every report records both the
# requested and effective value.
#
# The bitset step compares the bitmap semi-join probe engine against the
# warm prepared pipeline (BENCH_bitset.json): ns per executed probe cold and
# warm, the bitset hit rate, and the warm speedup — >= 10x on the level-3
# DBLife sweep, with speedup_trusted flagging worker counts the host can
# actually run in parallel.
#
# The second invocation runs the write-churn sweep (BENCH_writes.json) at
# -maxlevel 5 — the level-5 lattice is where Q3 actually probes — showing a
# disjoint-table write invalidates 0 probe-cache entries and a warm repaired
# run beats a cold run by >= 2x fewer SQL probes.
BENCH_GOMAXPROCS ?= 4
bench:
	$(GO) run ./cmd/experiments -scale 0.02 -maxlevel 3 -only probe,degrade,plan,bitset,flight \
		-gomaxprocs $(BENCH_GOMAXPROCS) \
		-probe-json BENCH_probe.json -degrade-json BENCH_degrade.json \
		-plan-json BENCH_plan.json -bitset-json BENCH_bitset.json \
		-flight-json BENCH_flight.json
	$(GO) run ./cmd/experiments -scale 0.02 -maxlevel 5 -only writes \
		-gomaxprocs $(BENCH_GOMAXPROCS) \
		-writes-json BENCH_writes.json
