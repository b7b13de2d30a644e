#!/bin/sh
# CI entry point: the gate every change must pass. Kept to the tier-1
# targets so a full run stays fast enough for pre-merge use.
set -eux

cd "$(dirname "$0")/.."

make build
make vet

# Every Go file, perfbench's included, is gofmt-clean.
test -z "$(gofmt -l .)"

make test
make test-race

# The CLI flag paths run under the race detector explicitly (they spawn the
# full decomposition pipeline), and every benchmark body executes once so
# bench code cannot bitrot silently.
go vet ./cmd/...
go test -race ./cmd/...

# perfbench is a nested module that builds the benchmark against the public
# facade; neither the targets above nor `go test ./...` compile it, so a
# facade change could break the benchmark unseen.
(cd perfbench && go vet ./... && go test ./...)

# The fused Hadamard kernels, and the dense layer's blocked Gram and
# four-row solve, are pinned bit for bit to the unfused multiply-then-add
# chain, which holds only if no product is contracted with its add into
# one FMA instruction. The amd64 compiler never does that; the arm64 one
# does unless a float64 conversion forbids it, so the arm64 builds of the
# kernel and dense packages must contain no fused multiply-add. arm64 has
# no assembly body, so this build also proves that the portable-only
# kernel package compiles.
#
# On amd64, the AVX2 bodies of StreamRuns, GatherRuns and ScatterAccum
# are hand-written (all in stream_amd64.s) and must contain no fused
# multiply-add either. `go tool objdump` cannot decode VEX instructions (it
# prints a VFMADD231SD as a MOVL), so the check reads the assembly source,
# which the assembler encodes as written, and, where binutils is installed,
# the kernel package's code in a linked amd64 binary: every symbol of the
# package, so each assembly body (streamRunsAVX2, gatherRunsAVX2 and
# scatterAccumAVX2) is scanned.
fmadir=$(mktemp -d)
for pkg in kernel dense; do
	GOARCH=arm64 go build -o "$fmadir/$pkg.a" ./internal/$pkg/
	if go tool objdump "$fmadir/$pkg.a" | grep -E 'F(N)?M(ADD|SUB)D'; then
		echo "internal/$pkg: FMA contraction in the arm64 build" >&2
		exit 1
	fi
done
if grep -inE 'VF(N)?M(ADD|SUB)' internal/kernel/*.s; then
	echo "internal/kernel: fused multiply-add in the amd64 assembly" >&2
	exit 1
fi
if command -v objdump >/dev/null; then
	GOARCH=amd64 go test -c -o "$fmadir/kernel.test" ./internal/kernel/
	if objdump -d --no-show-raw-insn "$fmadir/kernel.test" |
		awk '/^[0-9a-f]+ </ { k = index($0, "<adatm/internal/kernel.") > 0 } k' |
		grep -iE 'vf(n)?m(add|sub)'; then
		echo "internal/kernel: fused multiply-add in the amd64 build" >&2
		exit 1
	fi
fi
rm -r "$fmadir"

# The scatter-vs-privatize agreement suite runs again under the race detector
# at a forced multi-worker width: the privatized pool's epoch stamping and the
# tiled parallel reduction are the shared-state hot spots of the accum layer,
# and the high-contention short-mode tensor maximizes the interleavings.
GOMAXPROCS=4 go test -race -count=1 -run 'TestConformanceAccum' ./internal/engine/

# The swamp fixture drives the numerical-health probe with every sink wired
# (metrics, ledger, iteration stream) through a real CP-ALS run; the race run
# covers the probe's locking against the solver loop and the /iters readers.
go test -race -count=1 -run 'TestSwamp|TestServerIters' ./internal/health/ ./internal/obs/

# The distributed conformance suite (both transports, P in {2,4,7}, coo/csf/
# memo shard engines vs the single-node solver at 1e-12), the P=2 steady-
# state allocation pin (TestDistRunSteadyZeroAlloc: the chan transport's
# message recycling) and the transport fault-injection regressions run
# under the race detector: the SPMD workers, the recycled messages, the TCP
# retransmit timers, and the shared metrics registry are all concurrent by
# construction.
go test -race -count=1 -run 'TestDistRun|TestDistFault|TestDistributedALS|TestTransport' ./internal/dist/

# The TCP frame decoder parses bytes from peers, and the .tns, model,
# checkpoint, decision-ledger and bench-result decoders parse files (the last
# also perfbench's report lines): a short fuzz run of
# each on every CI pass (the `make fuzz` target runs them longer). The
# checkpoint run caps minimization (Go's default budget is 60 s per new
# input), so its seconds go to new inputs. The streamed, gathered and
# scattered kernels' fuzz runs hold each AVX2 body to its portable one, bit
# for bit or panic for panic, on random shapes, special values and
# out-of-range indices. The KMV fuzz run holds the distinct-count sketch's
# open-addressing set and k-th-smallest selection to a sort-based reference
# and to brute force, on streams with hash 0 and duplicates.
go test -run '^$' -fuzz '^FuzzReadTNS$' -fuzztime 10s ./internal/tensor/
go test -run '^$' -fuzz '^FuzzReadFrame$' -fuzztime 10s ./internal/dist/
go test -run '^$' -fuzz '^FuzzReadModel$' -fuzztime 10s ./internal/cpd/
go test -run '^$' -fuzz '^FuzzCheckpointRead$' -fuzztime 10s -fuzzminimizetime 1s ./internal/ckpt/
go test -run '^$' -fuzz '^FuzzValidateLedger$' -fuzztime 10s ./internal/audit/
go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 10s ./internal/perf/
go test -run '^$' -fuzz '^FuzzStreamAccum$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzGatherAccum$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzScatterAccum$' -fuzztime 10s ./internal/kernel/
go test -run '^$' -fuzz '^FuzzKMV$' -fuzztime 10s ./internal/model/

# The order-aware path end to end: quick E16 selects over several mode
# orders and times the chosen ordered engine.
go run ./cmd/adabench -quick -exp E16

# Every example through the public API, so a facade change that breaks one
# fails here. modelpick prints a permuted plan; distributed is the only
# public-API run of the auto partition choice at P=8, where all three
# candidates go through the communication analysis and its exchange
# schedule, and the sharded fit must match the shared-memory one to 1e-12.
make examples

make bench-smoke
make obs-smoke
make ckpt-smoke
make dist-smoke

# The perf gate: perfbench re-measured on the working tree (six seeds, both
# workloads, untraced and traced; about three minutes) and gated against the
# committed BENCH_23.json. It fails on a significant end-to-end regression
# past a BENCHMARK.json bound, a missing workload or a failed run.
make perf-gate
