GO ?= go

# Model directory and listen address for `make serve`.
MODELS ?= artifacts/models
ADDR   ?= :8080

.PHONY: all build bench-build test test-workers test-faults test-overload test-router test-rollout test-ingest race fuzz cover bench bench-fit bench-serve bench-compare bench-fit-compare experiments experiments-check layout examples serve fmt fmt-check vet clean

# vet, race, the widened worker sweep, the crash-safety fault sweep, the
# overload soak, the router replica-kill soak and the closed-loop rollout
# soak run on every default invocation so the concurrent registry/batcher
# code in internal/server, the chunked-parallel objective paths, the
# checkpoint/resume machinery, the admission/load-shedding path, the
# scale-out routing tier and the canary guard are checked routinely.
# fmt-check fails on any file gofmt would rewrite. examples runs the five
# example programs end to end (go test only compiles them). bench-build
# compiles and vets the perfbench module, which go build ./... never
# reaches. bench-compare and bench-fit-compare are soft gates (leading -):
# a noisy box must not fail the build, but allocation and training-loss
# regressions get printed.
all: fmt-check build bench-build vet test race test-workers test-faults test-overload test-router test-rollout test-ingest examples
	-$(MAKE) bench-compare
	-$(MAKE) bench-fit-compare

build:
	$(GO) build ./...

# perfbench is a separate module (replace repro => ../), so go build ./...
# never compiles it; -o /dev/null keeps the binary out of its directory.
bench-build:
	cd perfbench && $(GO) build -o /dev/null ./... && $(GO) vet ./...

test:
	$(GO) test ./...

# Widened worker-count sweep for the bit-identity property tests (iFair,
# LFR and the chunk planner): every worker count in [1, 17] plus
# oversubscribed values, under the race detector.
test-workers:
	IFAIR_TEST_WORKER_SWEEP=1 $(GO) test -race ./internal/ifair/ ./internal/lfr/ ./internal/par/

# Widened fault-injection sweep for the crash-safety suite: extra
# deterministic kill points for the resume-equivalence property tests,
# under the race detector, plus the checkpoint/faultinject/optimize fault
# paths and the real-SIGTERM CLI test.
test-faults:
	IFAIR_TEST_FAULTS=1 $(GO) test -race \
		./internal/checkpoint/ ./internal/faultinject/ ./internal/optimize/ \
		./internal/ifair/ ./cmd/ifair/

# Widened overload soak: the serving path at 4× admission capacity with
# chaotic clients (slow readers, mid-body disconnects), under the race
# detector, plus the admission-control unit suite.
test-overload:
	IFAIR_TEST_OVERLOAD=1 $(GO) test -race \
		-run 'TestOverload|TestShed|TestQueue|TestBatcher' \
		./internal/server/ ./internal/admission/

# Race-enabled scale-out soak: goodput scaling 1→4 replicas, replica
# kill mid-burst with probe-driven eviction and its revival under load,
# model-dir sync vs hot reload, the router/hash-ring/health unit suites,
# and the single-attempt client that is the router's only transport.
test-router:
	$(GO) test -race ./internal/router/
	$(GO) test -race -run 'TestSync|TestClient' ./internal/server/

# Widened closed-loop rollout soak: the canary guard under concurrent
# keyed traffic with a seeded corrupted-canary deploy and a mid-window
# drift injection (must roll back both, then promote a healthy refit),
# under the race detector, plus the rollout/splitting/registry suites
# and the drift/stats unit+property tests.
test-rollout:
	IFAIR_TEST_ROLLOUT=1 $(GO) test -race \
		-run 'TestRollout|TestSplit|TestRegistry|TestClientTransformKeyed' \
		./internal/server/
	$(GO) test -race ./internal/drift/ ./internal/stats/

# Widened ingest chaos soak, under the race detector: the kill/resume
# property sweep over every input row and every shard seal (in-process
# hooks plus filesystem fault fuses), the corrupt-shard healing suite,
# and the CLI-level soak that SIGTERMs a real ifair -ingest process at
# several seal points (with a double kill) and byte-compares the store,
# model and drift profile against an uninterrupted run.
test-ingest:
	IFAIR_TEST_INGEST=1 $(GO) test -race ./internal/ingest/ \
		-run 'TestIngest|TestShard|TestManifest'
	IFAIR_TEST_INGEST=1 $(GO) test -race ./cmd/ifair/ -run 'TestSIGTERMIngestResume'

race:
	$(GO) test -race ./...

# Fuzz the internal/par chunk planner (partition cover/disjointness),
# the checkpoint decoder and the ingest shard decoder (arbitrary bytes
# never panic, corruption is always reported as ErrCorrupt, accepted
# frames re-encode canonically), the ingest manifest decoder (never
# panics, rejections wrap ErrCorrupt, an accepted manifest survives a
# re-encode unchanged), plus the CSV row validator and the
# in-memory CSV loader built on it (never panic, accepted rows are
# full-width and finite, loaded datasets are consistent), and the serving
# row decoder against encoding/json (same accept/reject decision, same
# float64 bits on accept), and the codec's JSON-number scanner against
# json.Valid plus strconv.ParseFloat (same token end, same accept/reject,
# same float64 bits), and the kernel's row forward pass against a
# naive Defs. 3/7/8 reference (memberships a distribution, x̃ inside the
# prototype range), and L-BFGS under injected NaN/±Inf evaluations (the
# result stays finite, a sticky poison always ends as Diverged), and the
# kd-tree against a brute-force scan (Neighbors, Query and
# AllNeighborsWorkers return the same lists on tie-heavy data, zero
# columns included).
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzChunkCover -fuzztime=$(FUZZTIME) ./internal/par/
	$(GO) test -run='^$$' -fuzz=FuzzCheckpointDecode -fuzztime=$(FUZZTIME) ./internal/checkpoint/
	$(GO) test -run='^$$' -fuzz=FuzzShardDecode -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run='^$$' -fuzz=FuzzManifestDecode -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run='^$$' -fuzz=FuzzEncodeRow -fuzztime=$(FUZZTIME) ./internal/ingest/
	$(GO) test -run='^$$' -fuzz=FuzzLoadCSV -fuzztime=$(FUZZTIME) ./internal/dataset/
	$(GO) test -run='^$$' -fuzz=FuzzDecodeRows -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzParseNumber -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run='^$$' -fuzz=FuzzForward -fuzztime=$(FUZZTIME) ./internal/kernel/
	$(GO) test -run='^$$' -fuzz=FuzzLBFGSNonFinite -fuzztime=$(FUZZTIME) ./internal/optimize/
	$(GO) test -run='^$$' -fuzz=FuzzKDTreeMatchesBruteForce -fuzztime=$(FUZZTIME) ./internal/knn/

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# Training benchmarks, archived as JSON for cross-commit comparison:
# the parallel-restart protocol (1/2/4 workers) plus the scale suite
# (m=10k full-batch L-BFGS reference, m=10k/100k neighbor-pair SGD; add
# IFAIR_BENCH_1M=1 for the m=1e6 variant), the ingest pipeline and the
# neighbour search (kd-tree build plus all-neighbours).
bench-fit:
	$(GO) test -run='^$$' -bench='FitParallelRestarts|FitLarge|Ingest|KDTreeAllNeighbors' -benchmem -timeout 30m . \
		| $(GO) run ./cmd/benchjson -out BENCH_fit.json

# Serving-path benchmarks (fused compute kernel, end-to-end HTTP
# transform, micro-batcher coalescing, and the row codec's decode and
# encode of one 64-row body), archived as JSON for cross-commit
# comparison.
bench-serve:
	$(GO) test -run='^$$' -bench='ServerTransform|ServerHTTPTransform|MicroBatcher|DecodeRows|EncodeRows' -benchmem \
		. ./internal/server/ \
		| $(GO) run ./cmd/benchjson -out BENCH_serve.json

# Allocation-regression gate: a short run of the serving benchmarks (the
# zero-alloc kernel, batcher and codec paths plus the HTTP handler)
# compared against the archived BENCH_serve.json baseline (benchjson
# -compare exits 1 if allocs/op exceeds baseline + slack).
bench-compare:
	$(GO) test -run='^$$' -bench='ServerTransform$$|ServerHTTPTransform$$|MicroBatcher$$|DecodeRows$$|EncodeRows$$' \
		-benchtime=30x -benchmem . ./internal/server/ \
		| $(GO) run ./cmd/benchjson -compare BENCH_serve.json

# Training-regression gate: one pass of the scale, ingest and kd-tree
# neighbour-search benchmarks compared against the archived
# BENCH_fit.json baseline — both allocation churn and final_loss drift
# fail the gate (upward drift only; wall-time is not gated because it is
# machine-dependent).
bench-fit-compare:
	$(GO) test -run='^$$' -bench='FitLarge|Ingest|KDTreeAllNeighbors' -benchtime=1x -benchmem -timeout 30m . \
		| $(GO) run ./cmd/benchjson -compare BENCH_fit.json -gate allocs/op,final_loss

# Regenerate every table and figure (trimmed grid; add FULL=1 for the
# paper's full Sec. V-B grid).
experiments:
	$(GO) run ./cmd/experiments -run all $(if $(FULL),-full,) -csv artifacts

# Rerun every study at the recorded seed and fail on any difference from
# the committed console output experiments_output.txt. It takes 4 to 7
# minutes on 2 cores, so it is not part of `make all`.
experiments-check:
	$(GO) run ./cmd/experiments -run all -seed 42 | diff experiments_output.txt -

# Linked placement of the fit and serving hot loops. Go aligns functions
# to 32 bytes, so a size change in any package linked before them can
# shift them by 32 mod 64 bytes and move a timing with no change to their
# code. Builds cmd/experiments and the perfbench binary into a temporary
# directory (perfbench/ itself is left untouched) and prints each
# function's size in bytes and its address mod 64.
LAYOUT_SYMS = repro/internal/kernel.Forward \
	repro/internal/ifair.(*objective).fairnessBackward \
	repro/internal/ifair.(*objective).backwardRecord \
	repro/internal/lfr.(*objective).backwardRange \
	repro/internal/server.(*Batcher).runJob \
	repro/internal/server.(*statusRecorder).WriteHeader \
	repro/internal/server.(*statusRecorder).Write \
	repro/internal/server.parseNumber \
	repro/internal/server.eiselLemire64 \
	repro/internal/optimize.LBFGS \
	repro/internal/optimize.SGD
layout:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) build -o "$$tmp/experiments" ./cmd/experiments && \
	(cd perfbench && $(GO) build -o "$$tmp/perfbench" .) && \
	for bin in experiments perfbench; do \
		$(GO) tool nm -n -size "$$tmp/$$bin" | while read addr size kind name; do \
			case " $(LAYOUT_SYMS) " in *" $$name "*) \
				printf '%-12s %-52s size %5d  addr%%64 %2d\n' $$bin "$$name" $$size $$((0x$$addr % 64));; \
			esac; \
		done; \
	done

# Serve the models in $(MODELS) over HTTP (train some first, e.g.
# `go run ./cmd/ifair -dataset credit -k 10 -save $(MODELS)/credit.json`).
serve:
	$(GO) run ./cmd/ifair-server -models $(MODELS) -addr $(ADDR)

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/credit
	$(GO) run ./examples/hiring
	$(GO) run ./examples/postprocess
	$(GO) run ./examples/audit

fmt:
	gofmt -w .

# gofmt walks the whole tree, perfbench/ included.
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

clean:
	rm -rf artifacts test_output.txt bench_output.txt
