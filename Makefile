# CRONets reproduction — build/test gates.
#
#   make build        compile everything
#   make test         tier-1 gate: go build ./... && go test ./...
#   make test-short   fast inner-loop gate: go test -short ./... (skips
#                     the slow netem e2es in the repo root — control
#                     plane, warm pool, chains, tracing, failover, and
#                     objective routing — plus the experiment suite)
#   make race         race-detector pass over the full tree
#   make vet          static checks
#   make lint         go vet (root and benchmark modules) plus
#                     staticcheck/golangci-lint when installed
#   make fmt          gofmt diff gate (fails if any file needs formatting)
#   make check        all of the above
#   make bench        data-plane benchmarks (pipe, relay, multipath, gateway
#                     dial, chain dial, probe round) plus the simulator hot
#                     path (core.MeasurePair)
#   make trace-smoke  flow-tracing gate: the tracing e2e under -race plus
#                     the unsampled-path zero-allocation check
#   make bench-smoke  chain gate: the chain failover e2e under -race plus
#                     the established-chain zero-allocation check
#   make benchmark-smoke  the repository benchmark's short smoke tests (its
#                     own module under benchmark/): flows_1hop's echo check
#                     and sim_reallife's pinned seed-42 result digest
#   make race-repeat  the listener-lifecycle packages (pipe.Server and the
#                     relay, gateway, netem and measure servers on it, plus
#                     connpool and chain) five times over under -race, so a
#                     flaky close or accept race shows up as a failure

GO ?= go

.PHONY: build test test-short race race-repeat vet lint fmt check bench trace-smoke bench-smoke benchmark-smoke

build:
	$(GO) build ./...

test: build
	$(GO) test ./...

test-short: build
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

race-repeat:
	$(GO) test -race -count=5 ./internal/pipe/ ./internal/relay/ ./internal/gateway/ \
		./internal/netem/ ./internal/measure/ ./internal/connpool/ ./internal/chain/

vet:
	$(GO) vet ./...

# Lint gate: go vet always runs, on the root module and on the benchmark
# module (its own go.mod, so the root ./... never reaches it);
# staticcheck and golangci-lint run when present on PATH (offline
# environments without them still pass).
lint:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi
	@if command -v golangci-lint >/dev/null 2>&1; then \
		echo "golangci-lint run"; golangci-lint run; \
	else \
		echo "golangci-lint not installed; skipping"; \
	fi

fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

check: fmt vet test race

bench:
	$(GO) test -run=NONE -bench='PipeBidirectional|RelayThroughput|MultipathReceive|GatewayDial|ChainDial|ProbeRound|MeasurePair' -benchmem ./...

# The alloc gate runs without -race (the race runtime adds allocations of
# its own); the e2e runs with it.
trace-smoke:
	$(GO) test -race -run TestFlowTraceEndToEnd .
	$(GO) test -run TestUnsampledPathAllocs ./internal/flowtrace/

# Fails if chain dial allocates on the established-flow splice path: once
# the hop-by-hop preamble completes, a chained flow must be the same
# zero-alloc forwarding as a single hop.
bench-smoke:
	$(GO) test -race -run TestChainFailoverEndToEnd .
	$(GO) test -run TestChainSpliceAllocs ./internal/chain/

# The benchmark is a separate Go module, so the root ./... never reaches it.
benchmark-smoke:
	cd benchmark && $(GO) test -short ./...
