# Development targets; `make check` is the tier-1 gate (format, vet, build,
# test, and one iteration of every engine micro-benchmark so they cannot
# rot). `make race` additionally runs the suite under the race detector,
# which exercises the sharded pipeline's fan-out and barrier.

GO ?= go

.PHONY: check fmt vet build test bench-compile race examples bench bench-smoke

check: fmt vet build test bench-compile

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench-compile:
	$(GO) test -run '^$$' -bench . -benchtime 1x . ./internal/gapsurge ./internal/window ./internal/cellcspot ./internal/topk ./internal/sweep

race:
	$(GO) test -race ./...

# Runs every examples/* main to completion; one that exits non-zero or
# outlives its 60 s deadline fails the target.
examples:
	@bin="$$(mktemp -d)"; trap 'rm -rf "$$bin"' EXIT; \
	$(GO) build -o "$$bin/" ./examples/... || exit 1; \
	for ex in "$$bin"/*; do \
		echo "examples/$$(basename "$$ex")"; \
		timeout 60 "$$ex" > /dev/null || { echo "examples/$$(basename "$$ex") failed"; exit 1; }; \
	done

# The served system's benchmark (benchmark/README.md). bench runs ten seeds
# per workload and compares their medians with the committed baseline;
# bench-smoke is one tiny run that checks the harness and the bitwise answer
# checks end to end.
bench:
	$(GO) run ./benchmark --runs 10 --summary benchmark/out/new.json
	$(GO) run ./benchmark --compare benchmark/baseline/seed.json benchmark/out/new.json

bench-smoke:
	$(GO) run ./benchmark --smoke
