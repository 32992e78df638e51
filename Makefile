GO ?= go
GOFMT ?= gofmt

.PHONY: build test race vet fmt verify perfbench-test bench bench-diff bench-paper serve-smoke race-shard clean

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race-check the library packages; the obs registry, the parallel sweep
# telemetry and the fault-injection tests are explicitly exercised under
# -race by internal/experiments and internal/fault. The race detector runs
# ~10x slower than a plain test, so give the heavyweight sweep package more
# than the default 10m.
race:
	$(GO) test -race -timeout 20m ./internal/...

vet:
	$(GO) vet ./...

# Fail if any tracked Go file is not gofmt-clean.
fmt:
	@out=$$($(GOFMT) -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The end-to-end benchmark's own tests, including a smoke run of each
# workload checked against its pinned simulated-statistics digest, so a
# change that moves a simulated result fails here. perfbench is a separate
# module (see perfbench/NOTES.md) that ./... from the root does not reach.
perfbench-test:
	cd perfbench && $(GO) test ./...

# The PR gate: everything that must be green before merging.
verify: fmt vet build test perfbench-test race

# Refresh the hot-path benchmark snapshot (ns/op, B/op, allocs/op for the
# BenchmarkHot* suite). bench-diff compares a fresh run against the committed
# snapshot and exits 1 on a >25% regression in ns/op, allocs/op, or bytes/op
# (any alloc growth from a zero-alloc baseline fails outright); CI runs it
# non-gating.
bench:
	$(GO) run ./cmd/bench -out BENCH_9.json -benchtime 2s

bench-diff:
	$(GO) run ./cmd/bench -diff BENCH_9.json

# Race-check the sharded stepping engine specifically: the shard-invariance
# and active-set-invariance suites in internal/noc drive the engine at K in
# {1,2,4,8} against the full-scan reference on mesh and torus, healthy and
# faulted (internal/fault adds the torus fault-conservation run), so any
# cross-shard data race in the parallel scans or in the activity-bitmap
# maintenance surfaces here. Split from `race` so CI can gate on it by name.
race-shard:
	$(GO) test -race -run 'ShardInvariance|TorusConservation|TorusFaultConservation|ActiveSet' ./internal/noc/ ./internal/fault/

# Full benchmark sweep across every package (slow; not snapshot-tracked).
bench-paper:
	$(GO) test -bench=. -benchmem ./...

# End-to-end check of the simulation daemon: start it on a loopback port,
# submit a tiny deterministic sweep twice over real HTTP, require the second
# submission to be a byte-identical cache hit, and check the health endpoints.
serve-smoke:
	$(GO) run ./cmd/simd -smoke

clean:
	$(GO) clean ./...
