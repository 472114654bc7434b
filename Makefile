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
#   make lint         go vet (root and benchmark modules), a darwin and a
#                     windows build (so the non-Linux splice stub keeps
#                     compiling), plus staticcheck/golangci-lint when
#                     installed
#   make fmt          gofmt diff gate (fails if any file needs formatting)
#   make check        all of the above
#   make bench        data-plane benchmarks (pipe, relay, multipath, gateway
#                     dial, chain dial, probe round) plus the simulator's
#                     hot path (core.MeasurePair), its MPTCP runs
#                     (core.MeasureMPTCP), set-up (the paper-scale
#                     topology.Generate) and routing (building every BGP
#                     route table, and warm router-path lookups)
#   make bench-compile  the same benchmarks, one iteration each, so they
#                     cannot rot (CI runs it)
#   make trace-smoke  flow-tracing gate: the tracing e2e under -race plus
#                     the unsampled-path zero-allocation check
#   make bench-smoke  allocation and footprint gate: the chain failover
#                     e2e under -race, the established-chain zero-allocation
#                     check, the check that a spliced bulk flow allocates
#                     nothing per chunk, the check that recording a flow
#                     event allocates nothing, and the resident-memory
#                     checks on a full event ring, on a quiet registry's
#                     ring (16 events) and on dropped routes
#   make benchmark-smoke  the repository benchmark's short smoke tests (its
#                     own module under benchmark/): flows_1hop's echo check
#                     and sim_reallife's pinned seed-42 result digest
#   make race-repeat  the listener-lifecycle packages (pipe.Server and the
#                     relay, gateway, netem and measure servers on it, plus
#                     connpool and chain), the control plane (pathmon's
#                     per-route probe goroutines, Close and Subscribe) and
#                     cronetsd's in-process roles, the wire-codec packages
#                     (obs, flowtrace, tunnel, multipath), and the two
#                     multipath e2es in the repo root (netem failover with
#                     a rejoin, and the scraped two-subflow metrics) five
#                     times over under -race, so a flaky close or accept
#                     race shows up as a failure
#   make fuzz-smoke   a few seconds of native Go fuzzing on each wire
#                     parser that reads bytes from the network (the relay's
#                     CONNECT line, tunnel frames and packets, multipath
#                     frame headers) and on pathmon's route key
#                     (MakeRoute), starting from its testdata/fuzz corpus
#   make loc          non-test Go lines per file outside benchmark/, and
#                     their total, over the files git tracks: the line
#                     counts ROADMAP.md and CHANGES.md quote
#   make knobs        exported fields of every *Config and *Options struct
#                     in the non-test Go files outside benchmark/ that git
#                     tracks, one line per struct plus their total: the
#                     knob counts DESIGN.md §10 and CHANGES.md quote

GO ?= go

.PHONY: build test test-short race race-repeat vet lint fmt check bench bench-compile trace-smoke bench-smoke benchmark-smoke fuzz-smoke loc knobs

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
		./internal/netem/ ./internal/measure/ ./internal/connpool/ ./internal/chain/ \
		./internal/pathmon/ ./cmd/cronetsd/ \
		./internal/obs/ ./internal/flowtrace/ ./internal/tunnel/ ./internal/multipath/
	$(GO) test -race -count=5 -run '^(TestFailoverEndToEnd|TestObservabilityEndToEnd)$$' .

vet:
	$(GO) vet ./...

# Lint gate: go vet always runs, on the root module and on the benchmark
# module (its own go.mod, so the root ./... never reaches it); the tree
# is built for darwin and windows too, where pipe's splice(2) loop is a
# stub; staticcheck and golangci-lint run when present on PATH (offline
# environments without them still pass).
lint:
	$(GO) vet ./...
	cd benchmark && $(GO) vet ./...
	GOOS=darwin $(GO) build ./...
	GOOS=windows $(GO) build ./...
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

# The benchmarks bench and bench-compile run.
BENCH := PipeBidirectional|RelayThroughput|MultipathReceive|GatewayDial|ChainDial|ProbeRound|MeasurePair|MeasureMPTCP|TopologyGenerate|RoutesFor|RouterPath

bench:
	$(GO) test -run=NONE -bench='$(BENCH)' -benchmem ./...

bench-compile:
	$(GO) test -run=NONE -bench='$(BENCH)' -benchtime=1x ./...

# The alloc gate runs without -race (the race runtime adds allocations of
# its own); the e2e runs with it.
trace-smoke:
	$(GO) test -race -run TestFlowTraceEndToEnd .
	$(GO) test -run TestUnsampledPathAllocs ./internal/flowtrace/

# Fails if chain dial allocates on the established-flow splice path: once
# the hop-by-hop preamble completes, a chained flow must be the same
# zero-alloc forwarding as a single hop. Fails too if a bulk direction
# that moved to splice(2) allocates per chunk, if recording a flow event
# allocates, if a full event ring retains more than 40 KB, if a registry
# that recorded 16 events retains more than 1 KiB, or if dropped routes
# leave live heap behind. The alloc and footprint checks run
# without -race (the race runtime adds allocations of its own).
bench-smoke:
	$(GO) test -race -run TestChainFailoverEndToEnd .
	$(GO) test -run TestChainSpliceAllocs ./internal/chain/
	$(GO) test -run TestSpliceAllocs ./internal/pipe/
	$(GO) test -run 'TestScopeEventAllocs|TestEventRingFootprint|TestQuietRegistryFootprint' ./internal/obs/
	$(GO) test -run TestMakeRouteRetainsNothing ./internal/pathmon/

# The benchmark is a separate Go module, so the root ./... never reaches it.
benchmark-smoke:
	cd benchmark && $(GO) test -short ./...

# go test -fuzz takes one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseConnectTrace$$' -fuzztime 5s ./internal/relay
	$(GO) test -run '^$$' -fuzz '^FuzzReadFrame$$' -fuzztime 5s ./internal/tunnel
	$(GO) test -run '^$$' -fuzz '^FuzzParseHeader$$' -fuzztime 5s ./internal/multipath
	$(GO) test -run '^$$' -fuzz '^FuzzMakeRoute$$' -fuzztime 5s ./internal/pathmon

# Tracked files only (git ls-files), so build outputs never count; each
# file is counted as it stands in the working tree.
loc:
	@git ls-files -- '*.go' ':!:*_test.go' ':!:benchmark/' | \
		while read -r f; do printf '%6d %s\n' "$$(wc -l < "$$f")" "$$f"; done | \
		awk '{ print; n += $$1 } END { printf "%6d total\n", n }'

# A field line is one tab then an exported name; "A, B T" counts two.
knobs:
	@git ls-files -- '*.go' ':!:*_test.go' ':!:benchmark/' | xargs awk ' \
		/^type [A-Za-z]*(Config|Options) struct \{/ { name = $$2; n = 0; inside = 1; next } \
		inside && /^}/ { printf "%4d %s %s\n", n, FILENAME, name; total += n; inside = 0; next } \
		inside && /^\t[A-Z]/ { match($$0, /^\t[A-Za-z0-9_]+(, *[A-Za-z0-9_]+)*/); \
			names = substr($$0, 1, RLENGTH); n += gsub(/,/, ",", names) + 1 } \
		END { printf "%4d total\n", total }'
