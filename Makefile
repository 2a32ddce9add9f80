# Developer entry points. `make bench` runs the repository's one benchmark
# (cmd/bench, see its README); `make smoke` boots portald and drives a
# loadgen burst end to end, then kill -9s a tiered crawl and verifies WAL
# recovery.

GO ?= go

.PHONY: all build vet fmt-check test race fuzz chaos smoke smoke-dist smoke-tenant doccheck loc bench bench-smoke bench-go bench-compare smoke-frontier

all: build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# fmt-check fails when any file deviates from gofmt (listing the offenders).
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi

test: vet fmt-check
	$(GO) test ./...

# The crawl execution path and the query read path are heavily concurrent
# (worker pool, sharded store, frontier lease protocol, snapshot swaps,
# parallel HITS sweeps); race runs the packages that exercise them, plus the
# lock-free metrics primitives they all report into. The store and search
# concurrency tests run ten more times: an interleaving that breaks one in a
# hundred runs only shows up when they are repeated.
race:
	$(GO) test -race ./internal/crawler/... ./internal/store/... ./internal/segment/... ./internal/frontier/... ./internal/search/... ./internal/hits/... ./internal/metrics/... ./internal/serve/... ./internal/servecache/... ./internal/admit/... ./internal/rpc/... ./internal/coord/... ./internal/daemon/... ./internal/portal/...
	$(GO) test -race -count=10 -run 'Concurrent|Churn|Atomic' ./internal/segment/ ./internal/store/ ./internal/search/
	$(GO) test -race -count=1 -run 'TestFrontier' ./internal/experiments/
	$(GO) test -race -count=1 -run 'Tenant|Train|Close' ./internal/core/

# fuzz runs every decoder fuzz target past its seed corpus for FUZZTIME
# each (plain `go test` only replays the seeds). The contract is a typed
# error, never a panic.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentOpen$$' -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentMerge$$' -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz '^FuzzWALReplay$$' -fuzztime $(FUZZTIME) ./internal/segment/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyWALRecord$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzApplyWALBatch$$' -fuzztime $(FUZZTIME) ./internal/store/
	$(GO) test -run '^$$' -fuzz '^FuzzSessionState$$' -fuzztime $(FUZZTIME) ./internal/core/

# chaos runs the fault-injection suite (full crawls against the seeded fault
# plane, plus the faults/fetch resilience units) across a fixed seed matrix
# under the race detector. It is deliberately NOT part of `test`: tier-1
# stays fast, and `test` already runs the suite once at its default seed.
CHAOS_SEEDS ?= 1,7,23
chaos:
	CHAOS_SEEDS="$(CHAOS_SEEDS)" $(GO) test -race -count=1 -run 'TestChaos' ./internal/crawler/
	$(GO) test -race -count=1 ./internal/faults/ ./internal/fetch/

# bench runs every workload of BENCHMARK.json (untraced repeats plus one
# traced run each) and writes the medians, quartiles and spread to
# .bench_build/results.json.
bench:
	bash cmd/bench/run.sh run -out .bench_build/results.json

# bench-smoke is the benchmark's correctness leg, not a timing gate: every
# workload once for 2 s at seed 2003, untraced. run.sh exits 0 only when the
# run is "correct":true with 0 failed operations — for serve-churn that
# includes every freshness marker turning visible and the post-churn
# bit-identity oracle against a fresh engine. A last, traced serve-sharded
# leg runs the per-layer replay, the only caller left of the two-phase
# rpc Score/Gather pair.
bench-smoke:
	@for w in ingest-tiered serve-cold serve-sharded serve-churn; do \
		echo "bench-smoke: $$w"; \
		bash cmd/bench/run.sh --workload $$w --seed 2003 --seconds 2 --trace 0 || exit 1; \
	done
	@echo "bench-smoke: serve-sharded, traced"
	bash cmd/bench/run.sh --workload serve-sharded --seed 2003 --seconds 2 --trace 1

# bench-go runs every Go benchmark under internal/ exactly once — a
# compile-and-run check (BenchmarkScoringLoop, BenchmarkSearch,
# BenchmarkQueryProtocol, ...), not a timing gate.
bench-go:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./internal/...

# bench-compare prints metric · old → new · delta for two result files and
# exits 1 on a regression beyond a metric's bound:
#   make bench-compare OLD=old.json NEW=.bench_build/results.json
bench-compare:
	bash cmd/bench/run.sh compare $(OLD) $(NEW)

# smoke is the end-to-end serving check CI runs on every push: build
# portald + loadgen, crawl a tiny world, serve on an ephemeral port, drive
# an open-loop burst (every response must be 2xx or a 429 shed), then
# SIGTERM and require a graceful drain with exit 0.
smoke:
	sh scripts/smoke.sh

# smoke-dist is the distributed end-to-end check: boot two shardd shard
# servers and a portald coordinator that mirrors a tiny-world crawl into
# them, kill -9 one shard mid-crawl (the crawl must finish and /search
# must answer degraded partials, never a 5xx storm), restart it over the
# same WAL (every acknowledged document must be recovered and the fleet
# must return to non-degraded answers), then SIGTERM everything cleanly.
smoke-dist:
	sh scripts/smoke_dist.sh

# smoke-tenant is the multi-portal end-to-end check: boot portald hosting
# two tenants over one shared store with the background retrainer swapping
# ensembles mid-crawl, assert zero cross-tenant leakage on /search, live
# per-tenant stats on /tenants, retrain counters advancing while serving,
# and that a single-tenant run still speaks the pre-tenancy wire format.
smoke-tenant:
	sh scripts/smoke_tenant.sh

# doccheck fails when any exported identifier in the wire-protocol or
# coordinator packages lacks a godoc comment — the distributed API is the
# documented operational surface, so undocumented API is a build break.
doccheck:
	$(GO) run ./cmd/doccheck internal/rpc internal/coord

# loc prints the non-test Go lines outside the benchmark (cmd/bench and its
# .bench_build output) per directory, then their total: the size figure
# ROADMAP.md tracks. A print, not a gate.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './cmd/bench/*' ! -path './.bench_build/*' -print0 \
		| xargs -0 wc -l | awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d  %s\n", n[d], d | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t }'

# smoke-frontier is the CI leg of the scheduling lab: every scheduler
# completes a tiny-world crawl, link-context harvests at least as well as
# fifo-priority, and under every scheduler a budgeted frontier caps its
# in-memory share without changing the harvest.
smoke-frontier:
	$(GO) test -run 'TestFrontierSchedulerSmoke|TestFrontierSpillSmoke' -v -count=1 ./internal/experiments/
