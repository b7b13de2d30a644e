# Development targets for the adatm reproduction.

GO ?= go

.PHONY: all build vet test test-race bench bench-smoke bench-kernels bench-mttkrp obs-smoke ckpt-smoke dist-smoke perf-baseline perf-gate ci fuzz experiments experiments-quick examples clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One iteration of every benchmark: catches bitrotted benchmark code in CI
# without paying for real measurements. (This sweep includes the
# scatter-vs-privatize MTTKRP benchmarks behind bench-mttkrp.)
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -run='^$$' ./...

# End-to-end check of the observability wiring: run cpd with the live debug
# server, scrape /metrics + /healthz + /run, and validate the trace export.
obs-smoke:
	./scripts/obs_smoke.sh

# End-to-end crash/resume check: SIGKILL a checkpointed cpd run mid-flight,
# resume it, and require the uninterrupted fit plus adatm_ckpt_* metrics.
ckpt-smoke:
	./scripts/ckpt_smoke.sh

# End-to-end distributed-solver check: a 2-process sharded run over the TCP
# loopback transport with the adatm_dist_* scrape and the ledger's
# dist.partition decision. See DESIGN.md §2j.
dist-smoke:
	./scripts/dist_smoke.sh

# Machine-readable microbenchmarks of the shared kernel layer. Written via
# temp file + rename so an interrupted run never truncates the committed file.
bench-kernels:
	$(GO) test -bench=Kernel -benchmem -json -run='^$$' ./internal/kernel/ > BENCH_kernels.json.tmp && mv BENCH_kernels.json.tmp BENCH_kernels.json

# Machine-readable MTTKRP accumulation benchmarks: scatter vs privatize vs
# auto, side by side, on a short-mode (contended) and a long-mode (sparse
# output) tensor. See DESIGN.md §2f for the expected crossover.
bench-mttkrp:
	$(GO) test -bench=MTTKRPAccum -benchmem -json -run='^$$' ./internal/engine/ > BENCH_6.json.tmp && mv BENCH_6.json.tmp BENCH_6.json

# Refresh the committed perf baseline (DESIGN.md §2h): perfbench on every
# BENCHMARK.json workload, seeds 1..6, untraced and traced, each invocation at
# its minimum of three measured runs (about 3 min on 2 vCPU), written
# atomically by perfgate. Five seeds are the fewest a Mann–Whitney test can
# ever call significant; with five, one seed slowed by a noisy neighbour hid
# a 40 % slowdown, and six tolerate one such seed per side.
perf-baseline:
	$(GO) run ./cmd/perfgate run -samples 6 -out BENCH_23.json

# The CI perf gate: re-measure the working tree with the baseline's seeds,
# and fail when an end-to-end metric is significantly worse than the
# committed baseline by more than its BENCHMARK.json bound, when a workload is
# missing, or when a run fails its checks.
perf-gate:
	$(GO) run ./cmd/perfgate gate -baseline BENCH_23.json

ci:
	./scripts/ci.sh

fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzReadTNS$$' -fuzztime 30s ./internal/tensor/
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 30s ./internal/dist/
	$(GO) test -run '^$$' -fuzz '^FuzzReadModel$$' -fuzztime 30s ./internal/cpd/
	$(GO) test -run '^$$' -fuzz '^FuzzCheckpointRead$$' -fuzztime 30s ./internal/ckpt/
	$(GO) test -run '^$$' -fuzz '^FuzzValidateLedger$$' -fuzztime 30s ./internal/audit/
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime 30s ./internal/perf/
	$(GO) test -run '^$$' -fuzz '^FuzzStreamAccum$$' -fuzztime 30s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz '^FuzzGatherAccum$$' -fuzztime 30s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz '^FuzzScatterAccum$$' -fuzztime 30s ./internal/kernel/
	$(GO) test -run '^$$' -fuzz '^FuzzKMV$$' -fuzztime 30s ./internal/model/

experiments:
	$(GO) run ./cmd/adabench

experiments-quick:
	$(GO) run ./cmd/adabench -quick

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/modelpick
	$(GO) run ./examples/recommender
	$(GO) run ./examples/healthcare
	$(GO) run ./examples/distributed

clean:
	$(GO) clean ./...
