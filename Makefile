# Build, vet, test and guard targets. `make check` is the full gate the
# CI (and every PR) should run; the individual targets exist for quick
# local iteration.

GO ?= go

.PHONY: check build fmt vet benchvet test purego crossbuild fuzzsmoke flake flakematrix race obsdebug benchguard netsmoke validate benchrepo pairs loc

check: build fmt vet benchvet test purego crossbuild fuzzsmoke flake race obsdebug benchguard netsmoke validate

build:
	$(GO) build ./...

# Formatting gate: gofmt must have nothing to say about any file.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The benchmark is a module of its own (benchmark/go.mod, which replaces
# repro with the root), so ./... never compiles it; vetting it does,
# against the API it calls. Offline, and it writes nothing.
benchvet:
	cd benchmark && $(GO) vet .

test:
	$(GO) test ./...

# Portable-path gate. On an amd64 host with AVX2 the default build sends
# the repulsive law, open or cut off, through the assembly sweeps
# (internal/phys/sweep_amd64.s), so the Go loops they replace — the
# open loop and, under a cutoff, the compaction loop of kernel_tiled.go
# — run for that law only in this build. `purego`
# compiles the assembly out; every property test must hold here
# unchanged, and so must the pinned state hashes of the root package's
# golden test. It is the one build in CI that executes that loop, so it
# is vetted under the tag as well.
purego:
	$(GO) vet -tags purego ./internal/phys/ ./internal/core/
	$(GO) test -tags purego ./internal/phys/... ./internal/core/...
	$(GO) test -tags purego -run TestGoldenStateAndTraffic .

# Cross-compile gate: the tree must build, and the phys build-tag split
# must vet, for an architecture that has no assembly path.
crossbuild:
	GOARCH=arm64 $(GO) build ./...
	GOARCH=arm64 $(GO) vet ./internal/phys/

# Fuzz gate: twenty seconds each of the two kernel and particle codec
# targets, ten of each wire decoder. Every kernel change leans on
# FuzzSweepMatchesGo's property — the selected force sweep equals its
# reference (the plain Go loop, the generic per-pair path under a
# cutoff) bit for bit, whatever the coordinates, strength, block cuts
# and ID overlap. The wire decoders take bytes from another process:
# the frame reader, the handshake's hello and welcome, and the
# end-of-run FINISH (with its cell block) and RESULT must each return an
# error or a value that re-encodes to the same bytes. `go test` alone
# only replays their seeds.
WIRE_FUZZ = ./internal/comm/net:FuzzReadFrame ./internal/comm/net:FuzzHello ./internal/comm/net:FuzzWelcome \
	./internal/comm:FuzzSummaryCells ./internal/comm:FuzzSummary ./internal/comm:FuzzResult
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz FuzzSweepMatchesGo -fuzztime 20s ./internal/phys
	$(GO) test -run '^$$' -fuzz FuzzDecodeSlice -fuzztime 20s ./internal/phys
	for t in $(WIRE_FUZZ); do \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}$$" -fuzztime 10s "$${t%%:*}" || exit 1; \
	done

# Flake gate: the packages whose tests run rank goroutines, sockets or
# HTTP servers, twenty times over. A test that is green once and red
# once in twenty is a broken test (or a real race); the allocation
# guards in particular must hold on every run, which is why they
# measure on one quiet P (see runMallocs in internal/core). The rank
# mailboxes park and wake by a hand-written protocol (internal/comm's
# stream.go), and one P and an oversubscribed eight are the schedules a
# lost wake-up shows under, so the runtime and the timestep loops also
# run five times at each of those.
flake:
	$(GO) test -count=20 ./internal/core ./internal/comm/... ./internal/obs/...
	for procs in 1 8; do \
		GOMAXPROCS=$$procs $(GO) test -count=5 ./internal/comm ./internal/core || exit 1; \
	done

# The roadmap's robustness criterion, as one command: the rank runtime
# and the timestep loops fifty times over at one, two and eight Ps. One
# core serializes the ranks, two is the reference host, eight
# oversubscribes it — the three schedules a mailbox or abort race shows
# under. Takes several minutes; not part of `check` (which runs `flake`),
# run it on the final commit of a PR that touches comm or core.
flakematrix:
	for procs in 1 2 8; do \
		GOMAXPROCS=$$procs $(GO) test -count=50 ./internal/comm/... ./internal/core || exit 1; \
	done

# Goroutines share state in the comm substrate, the observability
# layer, and — since the zero-copy typed transport — the core timestep
# loops, whose buffers cross rank goroutines by reference under an
# ownership-transfer contract. The phys worker pool adds a second tier
# of goroutines (intra-rank force tiles), and the SoA tile scratch in
# internal/vec feeds those workers. Run all five under the race
# detector: for core and phys it is the mechanical check of those
# contracts.
race:
	$(GO) test -race ./internal/comm/... ./internal/obs/... ./internal/core/... ./internal/phys/... ./internal/vec/...

# obsdebug builds enforce the Stats single-goroutine ownership contract
# (pool workers never touch Stats; only the rank goroutine stamps).
# internal/obs rides along so the live hub's mid-run serving is also
# exercised under the debug assertions.
obsdebug:
	$(GO) test -tags obsdebug ./internal/trace/... ./internal/comm/... ./internal/core/... ./internal/phys/... ./internal/vec/... ./internal/obs/...

# Benchmark guard: the disabled observability path must not allocate
# (asserted by TestDisabledPathAllocs) and the benchmark must run clean;
# so must the socket mesh's ping-pong and burst benchmarks, over unix
# sockets and TCP loopback, the in-process ring shift of 64 ranks on
# 2 Ps, which prices the message of a hop alone, and the all-pairs
# timestep of the same 64 ranks with 8-particle blocks, which prices the
# hop whole (a hang or a failed send shows here; their timings mean
# nothing at 100 iterations — for the per-hop and per-step cost run the
# last two at -benchtime 20000x).
benchguard:
	$(GO) test -run TestDisabledPathAllocs ./internal/obs/
	$(GO) test -run NONE -bench BenchmarkObsDisabled -benchtime 100000x ./internal/obs/
	$(GO) test -run NONE -bench BenchmarkMesh -benchtime 100x ./internal/comm/net/
	$(GO) test -run NONE -bench BenchmarkRingShiftOversubscribed -benchtime 100x ./internal/comm/
	$(GO) test -run NONE -bench BenchmarkShiftLoopSmallBlocks -benchtime 100x ./internal/core/

# Multi-process transport gate: run each timestep loop once in-process
# and once spanned across OS processes over TCP loopback (-spawn), and
# require byte-identical checkpoints and communication matrices (cmp of
# -save and -matrix-out) plus equal measured S/W and bound lines in the
# report footer. Catches any divergence the wire transport introduces.
netsmoke:
	sh scripts/netsmoke.sh

# Cross-layer gate: counted S/W against the Equation 5 closed forms and
# the Equation 2 lower bounds, and the event-driven torus replay against
# the analytic model (communication time within a factor of two). Well
# under a second once built.
validate:
	$(GO) run ./cmd/nbody validate

# The repository benchmark (BENCHMARK.json, benchmark/README.md) on one
# workload — by default its most communication-bound one; `make benchrepo
# WORKLOAD=ap-socket` is the same over the socket mesh — as the pipeline
# runs it but for 5 s: a smoke test that the command builds and reports.
# Not part of `check` — its timings mean something only on a quiet host.
WORKLOAD ?= ap-latency
benchrepo:
	bash benchmark/run.sh --workload $(WORKLOAD) --seconds 5 --trace 0

# A comparison of the working tree with BASE (default HEAD, the parent
# of uncommitted work) on one workload: PAIRS alternating pairs of full
# benchmark runs, the BASE copy unpacked by git archive, printed as a
# markdown table of medians, quartiles and wins (scripts/pairs.sh).
# `make pairs WORKLOAD=ap-compute BASE=HEAD~1` compares a commit with its
# parent. Not part of `check`: ten pairs take several minutes.
PAIRS ?= 10
BASE ?= HEAD
pairs:
	sh scripts/pairs.sh -w $(WORKLOAD) -n $(PAIRS) -b $(BASE)

# The two line counts ROADMAP.md tracks: non-test Go and test Go,
# benchmark/ and cmd/ included.
loc:
	@printf 'non-test Go: %s lines\n' "$$(find . -name '*.go' ! -name '*_test.go' | xargs cat | wc -l)"
	@printf 'test Go:     %s lines\n' "$$(find . -name '*_test.go' | xargs cat | wc -l)"
