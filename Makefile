GO ?= go

# benchdiff inputs: OLD is the committed baseline, NEW a fresh report.
BENCH_OLD ?= BENCH_spectral.json
BENCH_NEW ?= BENCH_new.json
# Serving-tier benchdiff inputs (cmd/hcload reports; diffed when NEW exists).
BENCH_SERVE_OLD ?= BENCH_serve.json
BENCH_SERVE_NEW ?= BENCH_serve_new.json
# Fleet-scale sweep inputs (cmd/hcbench -scalebench; diffed when NEW exists).
BENCH_SCALE_OLD ?= BENCH_scale.json
BENCH_SCALE_NEW ?= BENCH_scale_new.json
# Matrix edges for `make scalebench`. The default full sweep takes tens of
# minutes (the 4k/10k rows are informational); the gated 1k row alone runs in
# well under a minute with SCALE_SIZES=1000.
SCALE_SIZES ?= 1000,4000,10000
# Fractional ns/op or allocs/op growth that fails benchdiff (0.20 = 20%).
BENCH_THRESHOLD ?= 0.20
# Opt-in warm-p99 gate for serving reports: GATEP99=1 make benchdiff. The
# threshold is deliberately generous (3.0 = +300%) — tails on a loaded box
# are noisy; the gate exists to catch order-of-magnitude collapses.
GATEP99 ?=
BENCH_P99_THRESHOLD ?= 3.0
P99_FLAGS = $(if $(GATEP99),-gatep99 -p99threshold $(BENCH_P99_THRESHOLD),)

.PHONY: build test vet race hcperf lint bench bench-json benchdiff scalebench verify clean serve loadtest wirebench clusterload streamload churnload fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The race detector is the gate for the worker pool, the experiment engine
# and the Env memo; keep it in the verify path.
race:
	$(GO) test -race ./...

# The benchmark module (hcperf/, its own go.mod) calls this module's
# internal APIs; vetting and testing it here makes a change that breaks one
# of those calls fail verify rather than the benchmark run.
hcperf:
	$(GO) -C hcperf vet ./...
	$(GO) -C hcperf test -count=1 .

# Static analysis beyond vet. staticcheck and govulncheck are optional
# locally (CI installs and runs them unconditionally); when a tool is not on
# PATH the target notes the skip instead of failing, so `make verify` stays
# runnable on minimal machines.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "lint: govulncheck not installed, skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

bench:
	$(GO) test -bench=. -benchmem ./...

# Machine-readable kernel/engine benchmarks (see cmd/hcbench -bench); this
# re-baselines the committed BENCH_spectral.json. Each entry is the median of
# five runs, recorded at GOMAXPROCS=1 as the baseline says, so the file does
# not depend on the shell's CPU count.
bench-json:
	GOMAXPROCS=1 $(GO) run ./cmd/hcbench -bench BENCH_spectral.json

# Compare two benchmark reports and fail on >BENCH_THRESHOLD regressions in
# ns/op or allocs/op per kernel. Typical use:
#   go run ./cmd/hcbench -bench BENCH_new.json && make benchdiff
# The same command gates serving reports (kind auto-detected): when a fresh
# $(BENCH_SERVE_NEW) exists — produced by `make loadtest LOAD_OUT=$(BENCH_SERVE_NEW)`
# against a running server — it is diffed against the committed baseline too,
# failing on a warm-phase p50 regression or a broken coalescing invariant.
benchdiff:
	$(GO) run ./cmd/hcbench -benchdiff -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)
	@if [ -f $(BENCH_SERVE_NEW) ]; then \
		$(GO) run ./cmd/hcbench -benchdiff -threshold $(BENCH_THRESHOLD) $(P99_FLAGS) $(BENCH_SERVE_OLD) $(BENCH_SERVE_NEW); \
	fi
	@if [ -f $(BENCH_SCALE_NEW) ]; then \
		$(GO) run ./cmd/hcbench -benchdiff -threshold $(BENCH_THRESHOLD) $(BENCH_SCALE_OLD) $(BENCH_SCALE_NEW); \
	fi

# Fleet-scale sweep: re-measure the large-matrix kernels and diff against the
# committed BENCH_scale.json (only the 1k records gate; see cmd/hcbench
# -scalebench). Refresh the baseline by copying $(BENCH_SCALE_NEW) over it.
scalebench:
	$(GO) run ./cmd/hcbench -scalebench $(BENCH_SCALE_NEW) -sizes $(SCALE_SIZES)
	$(GO) run ./cmd/hcbench -benchdiff -threshold $(BENCH_THRESHOLD) $(BENCH_SCALE_OLD) $(BENCH_SCALE_NEW)

verify: build vet lint test race hcperf
# Opt-in perf gate: BENCHDIFF=1 make verify additionally re-measures the
# kernels and diffs them against the committed baseline.
ifneq ($(BENCHDIFF),)
verify: perf-verify
.PHONY: perf-verify
perf-verify:
	GOMAXPROCS=1 $(GO) run ./cmd/hcbench -bench $(BENCH_NEW)
	$(GO) run ./cmd/hcbench -benchdiff -threshold $(BENCH_THRESHOLD) $(BENCH_OLD) $(BENCH_NEW)
endif

# Serving tier (see API.md). SERVE_FLAGS passes extra hcserved flags, e.g.
#   make serve SERVE_FLAGS="-addr :9090 -queue 16"
serve:
	$(GO) run ./cmd/hcserved $(SERVE_FLAGS)

# Load-test a running hcserved and write the serving benchmark report.
# The committed BENCH_serve.json baseline was produced with these settings
# against `go run ./cmd/hcserved -queue 8` on a single-CPU host.
LOAD_URL ?= http://localhost:8080
LOAD_OUT ?= BENCH_serve.json
loadtest:
	$(GO) run ./cmd/hcload -url $(LOAD_URL) -c 4 -n 300 -tasks 150 -machines 80 -seed 1 -surge 96 -out $(LOAD_OUT)

# Decode micro-benchmarks: stdlib JSON vs streaming scanner vs binary frame
# at the loadtest shape (150x80), merged into the serving report's
# decode_bench section so the numbers live next to the latencies they explain.
wirebench:
	$(GO) run ./cmd/hcbench -wirebench $(LOAD_OUT)

# Full serving-report regen: classic single-node suite + decode
# micro-benchmarks + the 3-node cluster suite (replica-read phases, the
# join/leave churn cycle against a 4th node, mid-run SIGTERM, accounting
# invariant), all merged into $(LOAD_OUT). Servers are started and torn down
# by the script; nothing needs to be running beforehand.
clusterload:
	scripts/clusterload.sh $(LOAD_OUT)

# Quick churn/replica check: 3-node cluster + standalone joiner, runs the
# replica and churn phases and prints both scorecards (handoff reconcile,
# warm hit rate, zero-lost leave, single-vs-p2c tails). Pass a path to keep
# the full report: scripts/churnload.sh out.json
churnload:
	scripts/churnload.sh

# Quick streaming-suite check: standalone server, stream phases only, prints
# the stream scorecard (p50 speedup + accounting). Pass a path to keep the
# full report: scripts/streamload.sh out.json
streamload:
	scripts/streamload.sh

# Short fuzz runs (the CI smoke step): the binary frame decoder, the JSON
# scanner's fused number parser against strconv, the whole JSON env scanner
# against encoding/json, the Gram and Householder kernels against their
# bit-exact reference loops, on the AVX2 path (where the CPU has it) and the
# scalar path, which must also agree with each other, and the values-only
# spectrum and the root-free QL stage against the Jacobi oracles. -fuzz
# takes one target per run.
fuzz-smoke:
	$(GO) test -run Fuzz -fuzz=FuzzWireDecode -fuzztime=10s ./internal/wire
	$(GO) test -run Fuzz -fuzz=FuzzParseNumber -fuzztime=10s ./internal/server
	$(GO) test -run Fuzz -fuzz=FuzzEnvJSON -fuzztime=10s ./internal/server
	$(GO) test -run Fuzz -fuzz=FuzzSpectralKernels -fuzztime=10s ./internal/linalg
	$(GO) test -run Fuzz -fuzz=FuzzSingularValues -fuzztime=10s ./internal/linalg
	$(GO) test -run Fuzz -fuzz=FuzzTridiagonalEigen -fuzztime=10s ./internal/linalg

clean:
	$(GO) clean ./...
