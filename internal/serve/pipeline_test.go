package serve

import (
	"fmt"
	"reflect"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
)

// pipelineEventStream builds a deterministic validation stream over the
// pages: per page, an aggregate and a per-validator proposal of the
// round's candidate set, validations from three validators (two signing
// before the close announcement, one after, exercising both the pending
// index and the immediate-credit path), the close event carrying the
// page payload — corrupted for one page in five — and a periodic sprinkle
// of malformed events (zero-hash validations, unknown kinds, proposals
// without candidates) that must quarantine exactly as the batch oracle
// does.
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
		candidates := []ledger.Hash{hash}
		candidates[0][2] = 2
		for _, n := range []addr.NodeID{{}, nodes[1]} { // aggregate, then per-validator
			events = append(events, consensus.Event{
				Kind: consensus.EventProposal, Node: n, Seq: p.Header.Sequence,
				StreamSeq: next(), TxHashes: candidates,
			})
		}
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
		if i%13 == 0 { // proposal without candidates: quarantined
			events = append(events, consensus.Event{
				Kind: consensus.EventProposal, Node: nodes[0], Seq: p.Header.Sequence, StreamSeq: next(),
			})
			malformed++
		}
	}
	return events, goodPages, corrupted, malformed
}

// TestServiceMatchesOracles is the service differential: the same
// fault-injected event stream (one page payload in five corrupt,
// malformed events sprinkled in) must seal views equal to the
// independent batch oracles — deanon.Study and analysis.Collector over
// the surviving pages, monitor.Collector over the events — with the
// malformed-event and corrupt-payload quarantine counts exact. Run under
// -race with GOMAXPROCS>1 in CI, so the view goroutines, the count
// shards and the snapshot readers genuinely interleave.
func TestServiceMatchesOracles(t *testing.T) {
	for _, seed := range []int64{13, 29} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			pages := genPages(t, 1200, seed)
			events, good, corrupted, malformed := pipelineEventStream(pages)
			study, col := batchViews(t, good)
			tally := monitor.NewCollector()
			for _, ev := range events {
				tally.Record(ev)
			}
			if tally.Malformed() != malformed {
				t.Fatalf("oracle quarantined %d events, stream holds %d", tally.Malformed(), malformed)
			}
			wantTally := tally.Report("")

			s := NewService(Options{PublishBatch: 16})
			defer s.Close()
			for _, ev := range events {
				if err := s.IngestEvent(ev); err != nil {
					t.Fatal(err)
				}
			}
			drain(t, s)
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
		})
	}
}
