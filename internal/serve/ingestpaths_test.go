package serve

import (
	"reflect"
	"testing"

	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
)

// sampleFeatures extracts observable payment features from pages for
// lookup cross-checks.
func sampleFeatures(pages []*ledger.Page, limit int) []deanon.Features {
	var out []deanon.Features
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				out = append(out, f)
				if len(out) >= limit {
					return out
				}
			}
		}
	}
	return out
}

// checkFingerprintViewsEqual asserts two services' fingerprint views
// answer identically: Figure 3 rows, payment counts, and per-feature
// lookups at every resolution.
func checkFingerprintViewsEqual(t *testing.T, a, b *Service, feats []deanon.Features) {
	t.Helper()
	fa, fb := a.Fingerprints(), b.Fingerprints()
	if fa.Payments != fb.Payments {
		t.Fatalf("payments diverge: %d != %d", fa.Payments, fb.Payments)
	}
	if !reflect.DeepEqual(fa.Rows, fb.Rows) {
		t.Fatalf("Figure 3 rows diverge:\na: %+v\nb: %+v", fa.Rows, fb.Rows)
	}
	for fi, f := range feats {
		for row := range fa.Rows {
			ca, oka := fa.Lookup(row, f)
			cb, okb := fb.Lookup(row, f)
			if oka != okb || ca != cb {
				t.Fatalf("feature %d row %d: lookup (%d,%v) != (%d,%v)", fi, row, ca, oka, cb, okb)
			}
		}
	}
}

// checkEcosystemViewsEqual asserts two services' ecosystem views carry
// identical statistics (epochs may differ — publish cadence is not part
// of the contract).
func checkEcosystemViewsEqual(t *testing.T, a, b *Service) {
	t.Helper()
	ea, eb := a.Ecosystem(), b.Ecosystem()
	if ea.Payments != eb.Payments || ea.Failed != eb.Failed || ea.MultiHop != eb.MultiHop ||
		ea.Offers != eb.Offers || ea.ActiveUsers != eb.ActiveUsers || ea.Pages != eb.Pages {
		t.Fatalf("ecosystem scalars diverge:\na: %+v\nb: %+v", ea, eb)
	}
	if !reflect.DeepEqual(ea.Currencies, eb.Currencies) ||
		!reflect.DeepEqual(ea.Hops, eb.Hops) ||
		!reflect.DeepEqual(ea.Parallel, eb.Parallel) ||
		!reflect.DeepEqual(ea.Survival, eb.Survival) {
		t.Fatal("ecosystem histograms diverge")
	}
}

// TestShardedMatchesSingleWriterService pins the sharded fingerprint
// view at the service level: the same pages through eight count shards
// and through one count shard must both equal the batch oracles over exactly
// the ingested prefix at every mid-stream epoch and at the end, and
// each other bit for bit.
func TestShardedMatchesSingleWriterService(t *testing.T) {
	pages := genPages(t, 2000, 61)
	feats := sampleFeatures(pages, 150)

	sharded := NewService(Options{FingerprintShards: 8, PublishBatch: 16})
	defer sharded.Close()
	single := NewService(Options{FingerprintShards: 1, PublishBatch: 16})
	defer single.Close()
	if got := sharded.fpState.shards(); got != 8 {
		t.Fatalf("sharded service runs %d shards, want 8", got)
	}
	if got := single.fpState.shards(); got != 1 {
		t.Fatalf("single service runs %d shards, want 1", got)
	}

	cuts := []int{len(pages) / 3, 2 * len(pages) / 3, len(pages)}
	prev := 0
	for _, cut := range cuts {
		chunk := pages[prev:cut]
		prev = cut
		if err := sharded.IngestPages(chunk); err != nil {
			t.Fatal(err)
		}
		if err := single.IngestPages(chunk); err != nil {
			t.Fatal(err)
		}
		drain(t, sharded)
		drain(t, single)
		study, col := batchViews(t, pages[:cut])
		checkAgainstBatch(t, sharded, study, col, pages[:cut])
		checkAgainstBatch(t, single, study, col, pages[:cut])
		checkFingerprintViewsEqual(t, sharded, single, feats)
		checkEcosystemViewsEqual(t, sharded, single)
	}
}

// TestBatchedIngestMatchesSinglePage pins the batched fan-out
// (IngestPages, one queue operation per IngestBatchPages pages) to the
// page-at-a-time path: identical views, whatever the batching.
func TestBatchedIngestMatchesSinglePage(t *testing.T) {
	pages := genPages(t, 1200, 67)
	feats := sampleFeatures(pages, 100)

	batched := NewService(Options{IngestBatchPages: 7}) // ragged final batch
	defer batched.Close()
	if err := batched.IngestPages(pages); err != nil {
		t.Fatal(err)
	}

	onebyone := NewService(Options{})
	defer onebyone.Close()
	for _, p := range pages {
		if err := onebyone.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}

	drain(t, batched)
	drain(t, onebyone)
	checkFingerprintViewsEqual(t, batched, onebyone, feats)
	checkEcosystemViewsEqual(t, batched, onebyone)
	if got, want := batched.Health().IngestedPages, uint64(len(pages)); got != want {
		t.Fatalf("batched path ingested %d pages, want %d", got, want)
	}
}

// TestCountBytesIndependentOfHistory backfills one history into three
// services in turn, each closed before the next starts, as a process
// that rebuilds its service per pass does. The fingerprint view's count
// memory must follow the history it counted, not the services that ran
// before it: equal Rows and equal CountBytes from all three.
func TestCountBytesIndependentOfHistory(t *testing.T) {
	pages := genPages(t, 2000, 73)
	var first *FingerprintSnapshot
	for pass := range 3 {
		s := NewService(Options{})
		if err := s.IngestPages(pages); err != nil {
			t.Fatal(err)
		}
		drain(t, s)
		fp := s.Fingerprints()
		s.Close()
		if pass == 0 {
			first = fp
			continue
		}
		if !reflect.DeepEqual(fp.Rows, first.Rows) {
			t.Fatalf("pass %d: Figure 3 rows diverged from pass 0", pass)
		}
		if fp.CountBytes() != first.CountBytes() {
			t.Fatalf("pass %d: %d count bytes, pass 0 held %d", pass, fp.CountBytes(), first.CountBytes())
		}
	}
}

// TestDifferentialThroughInjectedFaults streams a history where well
// over 15% of the page payloads are corrupted in flight: every corrupt
// payload must be quarantined (counted, tally still advances) and the
// page views must equal the batch computation over exactly the pages
// that survived.
func TestDifferentialThroughInjectedFaults(t *testing.T) {
	pages := genPages(t, 1500, 71)
	s := NewService(Options{PublishBatch: 8})
	defer s.Close()

	var good []*ledger.Page
	corrupted := 0
	var buf []byte
	for i, p := range pages {
		buf = p.Encode(buf[:0])
		payload := append([]byte(nil), buf...)
		if i%5 < 1 { // 20% fault rate
			payload = payload[:len(payload)-1] // framing violation
			corrupted++
		} else {
			good = append(good, p)
		}
		var hash ledger.Hash
		hash[0], hash[1], hash[2] = byte(i), byte(i>>8), 1
		ev := consensus.Event{
			Kind:       consensus.EventLedgerClosed,
			LedgerHash: hash,
			Seq:        p.Header.Sequence,
			StreamSeq:  uint64(i + 1),
			PageData:   payload,
		}
		if err := s.IngestEvent(ev); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)

	h := s.Health()
	if h.DroppedEvents != uint64(corrupted) {
		t.Fatalf("dropped %d, want %d (the corrupted payloads)", h.DroppedEvents, corrupted)
	}
	if h.IngestedPages != uint64(len(good)) {
		t.Fatalf("ingested %d pages, want %d survivors", h.IngestedPages, len(good))
	}
	if got, want := s.Tally().Rounds, len(pages); got != want {
		t.Fatalf("tally saw %d rounds, want %d — close events must survive corrupt payloads", got, want)
	}
	study, col := batchViews(t, good)
	checkAgainstBatch(t, s, study, col, good)
}
