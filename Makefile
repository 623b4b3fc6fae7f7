GO ?= go

.PHONY: all build vet test bench-module bench-smoke race race-mp chaos attack fuzz check

all: check

build:
	$(GO) build ./...

# Formatting is part of vet: gofmt -l must list nothing, here or in the
# benchmark module (reported, never rewritten). So is the API check: an
# exported identifier of internal/ that no non-test file calls fails
# TestExportsHaveCallers, which lists each one with its file:line.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l *.go cmd examples internal bench) || exit 1; \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -run '^TestExportsHaveCallers$$' .

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
RACE_MP_TESTS = PipelineWorkersMatchSequentialJSON ShardPartitionMergeParityJSON ShardedMatchesSingleWriterService ParallelBackfillMatchesSequential ShardedInc SealedTableMatchesModel SealCopyTrafficBounded CountBytesIndependentOfHistory MergeClonedRepeatable ViewWorker Shed ConcurrentQueries HistogramMatchesModel
RACE_MP_PKGS = ./internal/serve/ ./internal/deanon/ ./internal/analysis/ ./internal/telemetry/
empty :=
space := $(empty) $(empty)
race-mp:
	@tests=$$($(GO) test -list . $(RACE_MP_PKGS)) || exit 1; \
	for t in $(RACE_MP_TESTS); do \
		echo "$$tests" | grep -q "^Test.*$$t" || { echo "race-mp: pattern $$t matches no test"; exit 1; }; \
	done
	GOMAXPROCS=4 $(GO) test -race -run '$(subst $(space),|,$(RACE_MP_TESTS))' $(RACE_MP_PKGS)

# Fuzz smoke: brief randomized exploration of the zero-copy decode
# surfaces (the in-place payment scan and the arena page decoder), the
# nodestore record framing, the state-tree operation sequences, the
# stream's hand-written frame codec held against encoding/json, and the
# planned fingerprint folds held against FingerprintOf — beyond
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
	$(GO) test -run '^$$' -fuzz 'FuzzAppendFingerprints$$' -fuzztime $(FUZZTIME) ./internal/deanon

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
