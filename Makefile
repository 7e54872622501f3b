# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench bench-json bench-json-fleet bench-json-soa bench-json-obs bench-json-serve doccheck fuzz experiments fmt vet clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Skips the training-based integration tests; finishes in a few seconds.
test-short:
	$(GO) test -short ./...

# Race detector over the whole module; -short skips the training-based
# integration tests, which add minutes under -race and no concurrency.
race:
	$(GO) test -race -short ./...

# Regenerates every paper table/figure plus the extension studies at
# Default scale and records the outputs at the repository root.
bench:
	$(GO) test ./... 2>&1 | tee test_output.txt
	$(GO) test -bench=. -benchmem -benchtime=1x -timeout 7200s . 2>&1 | tee bench_output.txt
	$(GO) test -bench=BenchmarkBackend -benchmem ./internal/hw/ 2>&1 | tee -a bench_output.txt

# Machine-readable perf record: steady-state and batched read-path
# ns/op and allocs/op on both backends, warm vs cold parasitic solves,
# and the instrumentation layer's measured overhead (BENCH_pr4.json).
bench-json:
	$(GO) run ./cmd/benchjson -o BENCH_pr4.json

# Self-healing fleet record: router read throughput plus the
# kill-and-heal scenario's availability/accuracy (BENCH_pr6.json).
bench-json-fleet:
	$(GO) run ./cmd/benchjson -fleet -o BENCH_pr6.json

# Trial-vectorized Monte-Carlo record: the Full-scale soasweep under the
# per-trial scalar engine vs the structure-of-arrays path (byte-parity
# asserted) plus the fused read kernel's ns/op per ISA (BENCH_pr7.json).
bench-json-soa:
	$(GO) run ./cmd/benchjson -soa -o BENCH_pr7.json

# Tracing-pipeline overhead record: the analytic read hot path under
# metrics-off / metrics-on / metrics-plus-tracing, and the Full-scale
# soasweep on both engine paths with tracing off vs on, checked against
# the five-percent overhead budget (BENCH_pr8.json).
bench-json-obs:
	$(GO) run ./cmd/benchjson -obs -o BENCH_pr8.json

# Serving-path saturation record: vortexload boots a quick-scale fleet
# server in-process and drives the binary hot path to saturation,
# recording qps and the p50/p99/p999 latency profile (BENCH_pr9.json).
bench-json-serve:
	$(GO) run ./cmd/vortexload -selfserve -scale quick -seed 42 -n 40000 -c 16 -proto binary -o BENCH_pr9.json

# Doc-coverage gate: every exported identifier in every package must
# carry a godoc comment (see cmd/doccheck).
doccheck:
	$(GO) run ./cmd/doccheck $(shell find ./internal ./cmd -type d | sort)

# Short fuzz sessions over the quantizer and the device dynamics.
fuzz:
	$(GO) test ./internal/adc/ -fuzz FuzzQuantize -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzPulseForTarget -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzAdvance -fuzztime 30s

experiments:
	$(GO) run ./cmd/vortexsim -exp all -scale default

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -f test_output.txt bench_output.txt
