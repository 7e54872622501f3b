# Standard entry points; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test test-short race bench doccheck fuzz experiments fmt vet clean

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

# Per-layer Go benchmarks (device, array read path, IR-drop solver,
# ncs trial kernel, mat kernels). End-to-end numbers with their spread
# come from `bash benchmark/run.sh` (see benchmark/README.md).
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Doc-coverage gate: every exported identifier in every package must
# carry a godoc comment (see cmd/doccheck).
doccheck:
	$(GO) run ./cmd/doccheck $(shell find ./internal ./cmd -type d | sort)

# Short fuzz sessions over the quantizer, the device dynamics, the VXB1
# binary frame decoders, the -chaos flag parser, the Prometheus
# exposition validator and the checkpoint loader.
fuzz:
	$(GO) test ./internal/adc/ -fuzz FuzzQuantize -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzPulseForTarget -fuzztime 30s
	$(GO) test ./internal/device/ -fuzz FuzzAdvance -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzReadRequestFrame -fuzztime 30s
	$(GO) test ./internal/serve/ -fuzz FuzzReadResponseFrame -fuzztime 30s
	$(GO) test ./internal/chaos/ -fuzz FuzzParseMode -fuzztime 30s
	$(GO) test ./internal/obs/ -fuzz FuzzValidatePrometheus -fuzztime 30s
	$(GO) test ./internal/experiment/ -fuzz FuzzCheckpointLoad -fuzztime 30s

# Regenerates every paper table/figure plus the extension studies at
# Default scale.
experiments:
	$(GO) run ./cmd/vortexsim -exp all -scale default

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	rm -rf .bench_build
