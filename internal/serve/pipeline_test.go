package serve

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
)

// tallyJSON marshals a tally snapshot with the epoch normalized to
// zero: publish cadence (and therefore epoch numbering) is not part of
// the pipeline's contract, the sealed statistics are.
func tallyJSON(t testing.TB, snap *TallySnapshot) []byte {
	t.Helper()
	c := *snap
	c.Epoch = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ecoJSON is tallyJSON for the ecosystem view.
func ecoJSON(t testing.TB, snap *EcosystemSnapshot) []byte {
	t.Helper()
	c := *snap
	c.Epoch = 0
	b, err := json.Marshal(&c)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pipelineEventStream builds a deterministic validation stream over the
// pages: per page, validations from three validators (two signing
// before the close announcement, one after, exercising both the pending
// index and the immediate-credit path), the close event carrying the
// page payload — corrupted for one page in five — and a periodic sprinkle
// of malformed events (zero-hash validations, unknown kinds) that must
// quarantine identically on every pipeline configuration.
func pipelineEventStream(pages []*ledger.Page) (events []consensus.Event, goodPages []*ledger.Page, corrupted, malformed int) {
	nodes := []addr.NodeID{
		addr.KeyPairFromSeed(101).NodeID(),
		addr.KeyPairFromSeed(102).NodeID(),
		addr.KeyPairFromSeed(103).NodeID(),
	}
	streamSeq := uint64(0)
	next := func() uint64 { streamSeq++; return streamSeq }
	var buf []byte
	for i, p := range pages {
		var hash ledger.Hash
		hash[0], hash[1], hash[2] = byte(i), byte(i>>8), 1
		for _, n := range nodes[:2] {
			events = append(events, consensus.Event{
				Kind: consensus.EventValidation, LedgerHash: hash, Node: n,
				Seq: p.Header.Sequence, StreamSeq: next(),
			})
		}
		buf = p.Encode(buf[:0])
		payload := append([]byte(nil), buf...)
		if i%5 == 0 { // 20% fault rate
			payload = payload[:len(payload)-1] // framing violation
			corrupted++
		} else {
			goodPages = append(goodPages, p)
		}
		events = append(events, consensus.Event{
			Kind: consensus.EventLedgerClosed, LedgerHash: hash,
			Seq: p.Header.Sequence, StreamSeq: next(), PageData: payload,
		})
		events = append(events, consensus.Event{
			Kind: consensus.EventValidation, LedgerHash: hash, Node: nodes[2],
			Seq: p.Header.Sequence, StreamSeq: next(),
		})
		if i%7 == 0 { // zero-hash validation: quarantined
			events = append(events, consensus.Event{Kind: consensus.EventValidation, Node: nodes[0], StreamSeq: next()})
			malformed++
		}
		if i%11 == 0 { // unknown kind: quarantined
			events = append(events, consensus.Event{Kind: consensus.EventKind(250), StreamSeq: next()})
			malformed++
		}
	}
	return events, goodPages, corrupted, malformed
}

// TestPipelineWorkersMatchSequentialJSON is the pipeline differential:
// the same fault-injected event stream (one page payload in five
// corrupt, malformed events sprinkled in) through 1-, 2-, 3-, and
// 8-worker pipelines must, at every fan-out, seal views equal to the
// independent batch oracles — deanon.Study and analysis.Collector over
// the surviving pages, monitor.Collector over the events — with the
// malformed-event and corrupt-payload quarantine counts exact. On top,
// every fan-out's snapshots must be byte-identical (as JSON, epochs
// normalized) to the one-worker pipeline's: the partition-independence
// check. Run under -race with GOMAXPROCS>1 in CI so the barrier/merge
// machinery is genuinely concurrent.
func TestPipelineWorkersMatchSequentialJSON(t *testing.T) {
	for _, seed := range []int64{13, 29} {
		pages := genPages(t, 1200, seed)
		events, good, corrupted, malformed := pipelineEventStream(pages)
		feats := sampleFeatures(good, 100)
		study, col := batchViews(t, good)
		tally := monitor.NewCollector()
		for _, ev := range events {
			tally.Record(ev)
		}
		if tally.Malformed() != malformed {
			t.Fatalf("seed %d: oracle quarantined %d events, stream holds %d", seed, tally.Malformed(), malformed)
		}
		wantTally := tally.Report("")

		run := func(workers int) *Service {
			s := NewService(Options{PipelineWorkers: workers, PublishBatch: 16})
			for _, ev := range events {
				if err := s.IngestEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, s)
			return s
		}
		seq := run(1)
		defer seq.Close()
		seqTally := tallyJSON(t, seq.Tally())
		seqEco := ecoJSON(t, seq.Ecosystem())

		for _, workers := range []int{1, 2, 3, 8} {
			t.Run(fmt.Sprintf("seed=%d/workers=%d", seed, workers), func(t *testing.T) {
				s := run(workers)
				defer s.Close()
				if got := s.Health().Views[0].Shards; got != workers {
					t.Fatalf("pipeline runs %d shards, want %d", got, workers)
				}
				checkAgainstBatch(t, s, study, col, good)
				snap := s.Tally()
				if got := snap.Report(""); !reflect.DeepEqual(got, wantTally) {
					t.Errorf("Figure 2 tallies diverge from monitor.Collector\ngot  %+v\nwant %+v", got, wantTally)
				}
				if snap.Events != tally.Events() || snap.Malformed != malformed {
					t.Errorf("tally counted %d events / %d malformed, oracle %d / %d",
						snap.Events, snap.Malformed, tally.Events(), malformed)
				}
				if got := s.Health().DroppedEvents; got != uint64(corrupted) {
					t.Errorf("quarantined %d payloads, want %d", got, corrupted)
				}
				if got := tallyJSON(t, snap); string(got) != string(seqTally) {
					t.Errorf("tally JSON diverges from the one-worker pipeline\ngot  %s\nwant %s", got, seqTally)
				}
				if got := ecoJSON(t, s.Ecosystem()); string(got) != string(seqEco) {
					t.Errorf("ecosystem JSON diverges from the one-worker pipeline\ngot  %s\nwant %s", got, seqEco)
				}
				checkFingerprintViewsEqual(t, s, seq, feats)
			})
		}
	}
}

// TestShardPartitionMergeParityJSON is the state-level partition
// property: ANY partition of a record stream across N ecosystem shards
// — and any hash-respecting partition of an event stream across N tally
// shards — must merge to snapshots byte-identical (as JSON) to the
// single-shard fold. Partitions are drawn at random per
// seed; the service never produces most of them, which is the point:
// parity must come from the merge algebra, not from routing luck.
func TestShardPartitionMergeParityJSON(t *testing.T) {
	pages := genPages(t, 1500, 43)
	events, _, _, _ := pipelineEventStream(pages)

	// Project once; the records are shared read-only across the folds.
	fpSt := newFingerprintState(1, 1)
	defer fpSt.close()
	proj := newProjector(fpSt.plan())
	recs := ecoPartsOf(proj, pages)

	// Single-shard folds.
	seqEco := newEcoShards(1)
	for _, rec := range recs {
		seqEco.apply(0, rec)
	}
	wantEco := ecoJSON(t, seqEco.snapshot(7, 99))
	seqTally := newTallyShards(nil, 1)
	for i := range events {
		seqTally.apply(0, events[i])
	}
	wantTally := tallyJSON(t, seqTally.snapshot(7, 99))

	for _, shards := range []int{2, 3, 8} {
		for trial := 0; trial < 3; trial++ {
			rng := rand.New(rand.NewSource(int64(shards*100 + trial)))
			eco := newEcoShards(shards)
			for _, rec := range recs {
				eco.apply(rng.Intn(shards), rec)
			}
			if got := ecoJSON(t, eco.snapshot(7, 99)); string(got) != string(wantEco) {
				t.Fatalf("shards=%d trial=%d: ecosystem merge diverges\ngot  %s\nwant %s", shards, trial, got, wantEco)
			}
		}
		// Tally partitioning must colocate a hash's events; within that
		// constraint the shard assignment is the routing function's.
		tal := newTallyShards(nil, shards)
		for i := range events {
			u := update{ev: &events[i]}
			tal.apply(int(tallyRoute(&u)%uint64(shards)), events[i])
		}
		if got := tallyJSON(t, tal.snapshot(7, 99)); string(got) != string(wantTally) {
			t.Fatalf("shards=%d: tally merge diverges\ngot  %s\nwant %s", shards, got, wantTally)
		}
	}
}
