GO ?= go

.PHONY: all build vet test bench-module bench-smoke race race-mp chaos attack bench bench-check fuzz check

all: check

build:
	$(GO) build ./...

# Formatting is part of vet: gofmt -l must list nothing, here or in the
# benchmark module (reported, never rewritten).
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l *.go cmd examples internal bench) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

test:
	$(GO) test ./...

# The end-to-end benchmark driver is a module of its own (bench/go.mod,
# replace => ../), so `./...` at the root never compiles it: an exported
# symbol it uses can be deleted here and nothing above notices. Vet it
# and run its harness tests against the working tree.
bench-module:
	$(GO) -C bench vet .
	$(GO) -C bench test .

# Harness smoke: every BENCHMARK.json workload end to end for a 3 s timed
# section, oracles on. Exit 1 (an oracle failed) or 2 (the harness could
# not run) fails the target; exit 3 (the open-loop generator ran late,
# i.e. a loaded runner) is a warning, since such a run reports nothing.
BENCH_SMOKE_WORKLOADS = backfill_scan live_follow replay_checkpoint submit_mixed
bench-smoke:
	@for w in $(BENCH_SMOKE_WORKLOADS); do \
		bash bench/run.sh --workload $$w --seconds 3; rc=$$?; \
		case $$rc in \
		0) ;; \
		3) echo "bench-smoke: WARNING: $$w ran late (exit 3, loaded runner?)";; \
		*) echo "bench-smoke: $$w failed (exit $$rc)"; exit 1;; \
		esac; \
	done

# Data-race check over the concurrent paths: stream/collection, the
# sharded de-anonymization pipeline (ScanPayments + ParallelStudy), the
# live serving layer (concurrent queries against ingestion), the
# transaction front door (quote readers racing the batch applier), and
# the lock-free histograms both of them record into.
race:
	$(GO) test -race ./internal/netstream/... ./internal/monitor/... ./internal/faultnet/... ./internal/deanon/... ./internal/ledgerstore/... ./internal/serve/... ./internal/replay/... ./internal/txq/... ./internal/telemetry/... ./internal/integration/...

# Multi-core pipeline pass: the view-pipeline and count-shard
# differential suites with GOMAXPROCS pinned above 1, so the sharded
# apply workers, seal barrier, cross-shard merges and histogram
# observers are genuinely concurrent even on a single-core default
# runner. Everything here must equal the independent batch oracles at
# every fan-out (1 included).
# Each pattern must still select a test: a rename that drops one out of
# the pass fails the target instead of shrinking it silently.
RACE_MP_TESTS = PipelineWorkersMatchSequentialJSON ShardPartitionMergeParityJSON ShardedMatchesSingleWriterService ParallelBackfillMatchesSequential ShardedInc SealedTableMatchesModel MergeClonedRepeatable ViewWorker Shed ConcurrentQueries HistogramMatchesModel
RACE_MP_PKGS = ./internal/serve/ ./internal/deanon/ ./internal/analysis/ ./internal/telemetry/
empty :=
space := $(empty) $(empty)
race-mp:
	@tests=$$($(GO) test -list . $(RACE_MP_PKGS)) || exit 1; \
	for t in $(RACE_MP_TESTS); do \
		echo "$$tests" | grep -q "^Test.*$$t" || { echo "race-mp: pattern $$t matches no test"; exit 1; }; \
	done
	GOMAXPROCS=4 $(GO) test -race -run '$(subst $(space),|,$(RACE_MP_TESTS))' $(RACE_MP_PKGS)

# Perf trajectory: run the Figure 3 pipeline and store benchmarks with
# allocation stats and archive them as JSON so future PRs can diff
# payments/s, ns/op, and B/op against this one. Serving-layer
# benchmarks (ingest fan-out, O(1) lookups, snapshot publish, HTTP)
# are archived in BENCH_serve.json; the zero-copy segment-scan path
# (ScanPayments projection, arena page decoding) in BENCH_store.json.
# One archive takes one pass per package: benchjson drops a package's
# archived entries that its fresh pass no longer reports.
bench:
	$(GO) test -run '^$$' -bench 'Figure3|Fig3Deanon|Store' -benchmem . | tee bench.out
	$(GO) run ./cmd/benchjson -out BENCH_deanon.json < bench.out
	@echo "wrote BENCH_deanon.json"
	$(GO) test -run '^$$' -bench 'ScanPayments|PagesParallel' -benchmem ./internal/ledgerstore | tee bench_store.out
	$(GO) run ./cmd/benchjson -out BENCH_store.json < bench_store.out
	@echo "wrote BENCH_store.json"
	$(GO) test -run '^$$' -bench 'Serve' -benchmem ./internal/serve | tee bench_serve.out
	$(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance $(TOLERANCE) < bench_serve.out
	$(GO) run ./cmd/benchjson -out BENCH_serve.json < bench_serve.out
	@echo "wrote BENCH_serve.json"
	$(GO) test -run '^$$' -bench 'Table2Replay|Pathfind|CheckpointResume' -benchmem . | tee bench_replay.out
	$(GO) run ./cmd/benchjson -out BENCH_replay.json < bench_replay.out
	$(GO) test -run '^$$' -bench 'Shamap' -benchmem ./internal/shamap | tee bench_shamap.out
	$(GO) run ./cmd/benchjson -out BENCH_replay.json < bench_shamap.out
	@echo "wrote BENCH_replay.json"
	$(GO) test -run '^$$' -bench 'ConsensusRound' -benchmem ./internal/consensus | tee bench_consensus.out
	$(GO) run ./cmd/benchjson -out BENCH_consensus.json < bench_consensus.out
	@echo "wrote BENCH_consensus.json"
	$(GO) test -run '^$$' -bench 'TxqFrontDoor' -benchmem ./internal/txq | tee bench_txq.out
	$(GO) run ./cmd/benchjson -out BENCH_txq.json < bench_txq.out
	@echo "wrote BENCH_txq.json"

# Regression smoke: re-run the serving-layer benchmarks and gate ns/op
# against the committed archive without rewriting it. TOLERANCE is the
# allowed regression in percent; the archived numbers come from one
# machine, so loosen it when checking on very different hardware
# (`make bench-check TOLERANCE=50`).
TOLERANCE ?= 20
bench-check:
	$(GO) test -run '^$$' -bench 'Serve' -benchmem ./internal/serve | tee bench_serve.out
	$(GO) run ./cmd/benchjson -check BENCH_serve.json -tolerance $(TOLERANCE) < bench_serve.out
	$(GO) test -run '^$$' -bench 'TxqFrontDoor' -benchmem ./internal/txq | tee bench_txq.out
	$(GO) run ./cmd/benchjson -check BENCH_txq.json -tolerance $(TOLERANCE) < bench_txq.out
	$(GO) test -run '^$$' -bench 'CheckpointResume' -benchmem . | tee bench_ckpt.out
	$(GO) run ./cmd/benchjson -check BENCH_replay.json -tolerance $(TOLERANCE) < bench_ckpt.out

# Fuzz smoke: brief randomized exploration of the zero-copy decode
# surfaces (the in-place payment scan and the arena page decoder), the
# nodestore record framing, the state-tree operation sequences, and the
# stream's hand-written frame codec held against encoding/json — beyond
# their seeded corpora. CI runs the same targets with a short
# -fuzztime; run them longer locally when touching the codec.
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run '^$$' -fuzz 'FuzzScanPayments$$' -fuzztime $(FUZZTIME) ./internal/ledger
	$(GO) test -run '^$$' -fuzz 'FuzzDecodePageInto$$' -fuzztime $(FUZZTIME) ./internal/ledger
	$(GO) test -run '^$$' -fuzz 'FuzzNodeDecode$$' -fuzztime $(FUZZTIME) ./internal/nodestore
	$(GO) test -run '^$$' -fuzz 'FuzzShamapOps$$' -fuzztime $(FUZZTIME) ./internal/shamap
	$(GO) test -run '^$$' -fuzz 'FuzzDecodeFrame$$' -fuzztime $(FUZZTIME) ./internal/netstream
	$(GO) test -run '^$$' -fuzz 'FuzzEncodeFrame$$' -fuzztime $(FUZZTIME) ./internal/netstream

# Short chaos pass: fault injection, resilience, and the degraded-stream
# integration test.
chaos:
	$(GO) test -run 'Fault|Chaos|Resilient|Stalled|Corrupt|Inject|Malformed|Health|BadFrames|Truncat|BitFlip' ./internal/...

# Adversarial pass: the Byzantine scenario engine, the fork/equivocation
# detectors, the end-to-end attack matrix over TCP, and the monitor CLI's
# fail-on-attack path.
attack:
	$(GO) test -run 'Attack|Scenario|Equivoc|Censor|Delay|Fork|Stall|Detect|Backoff|Benign' ./internal/consensus/ ./internal/monitor/ ./internal/netstream/ ./internal/integration/ ./cmd/consensus-monitor/

check: vet build test bench-module race race-mp chaos attack
