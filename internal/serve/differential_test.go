package serve

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/synth"
)

// genPages builds a small deterministic history for differential tests.
func genPages(t testing.TB, payments int, seed int64) []*ledger.Page {
	t.Helper()
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{
		Payments:       payments,
		Seed:           seed,
		SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// drain waits for every view to publish everything ingested so far,
// then requires that no page view still holds a part: every byte
// offered has been applied or dropped.
func drain(t testing.TB, s *Service) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	checkNoInflightBytes(t, s)
}

// checkNoInflightBytes requires every page view's in-flight byte gauge
// to read exactly 0.
func checkNoInflightBytes(t testing.TB, s *Service) {
	t.Helper()
	for _, w := range []*viewWorker{s.fpW, s.ecoW} {
		if n := w.inflightBytes.Load(); n != 0 {
			t.Fatalf("view %s: %d bytes in flight with nothing left to apply", w.name, n)
		}
	}
}

// batchViews computes the batch answers the incremental views must
// reproduce bit-identically.
func batchViews(t testing.TB, pages []*ledger.Page) (*deanon.Study, *analysis.Collector) {
	t.Helper()
	study := deanon.NewStudy(deanon.Figure3Rows)
	col := analysis.NewCollector()
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				study.Observe(f)
			}
		}
		if err := col.Page(p); err != nil {
			t.Fatal(err)
		}
	}
	return study, col
}

// checkAgainstBatch asserts the service's current page-view snapshots
// equal the batch computation over the same pages, bit for bit.
func checkAgainstBatch(t *testing.T, s *Service, study *deanon.Study, col *analysis.Collector, pages []*ledger.Page) {
	t.Helper()

	fp := s.Fingerprints()
	if fp.Payments != study.Payments() {
		t.Errorf("fingerprint view saw %d payments, batch %d", fp.Payments, study.Payments())
	}
	if !reflect.DeepEqual(fp.Rows, study.Results()) {
		t.Errorf("Figure 3 rows diverged:\nincremental: %+v\nbatch:       %+v", fp.Rows, study.Results())
	}
	// Every observed payment must look up exactly as the batch count
	// table would report it: re-derive features and check the sealed
	// lookup table at every resolution.
	checked := 0
	for _, p := range pages {
		for i := range p.Txs {
			f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i])
			if !ok {
				continue
			}
			for row := range fp.Rows {
				count, ok := fp.Lookup(row, f)
				if !ok {
					t.Fatalf("lookup row %d rejected", row)
				}
				if count == 0 {
					t.Fatalf("row %d: observed payment reported unseen", row)
				}
			}
			checked++
			if checked >= 200 {
				break
			}
		}
		if checked >= 200 {
			break
		}
	}

	eco := s.Ecosystem()
	if eco.Payments != col.Payments() || eco.Failed != col.FailedPayments() ||
		eco.MultiHop != col.MultiHopPayments() || eco.Offers != col.TotalOffers() ||
		eco.ActiveUsers != col.ActiveAccounts() {
		t.Errorf("ecosystem scalars diverged: %+v", eco)
	}
	if !reflect.DeepEqual(eco.Currencies, col.CurrencyHistogram()) {
		t.Error("Figure 4 currency histogram diverged")
	}
	if !reflect.DeepEqual(eco.Hops, col.HopHistogram()) {
		t.Error("Figure 6a hop histogram diverged")
	}
	if !reflect.DeepEqual(eco.Parallel, col.ParallelHistogram()) {
		t.Error("Figure 6b parallel-path histogram diverged")
	}
	grid := analysis.DefaultSurvivalGrid()
	if !reflect.DeepEqual(eco.Survival[0].Points, col.Survival(amount.Currency{}, true, grid)) {
		t.Error("Figure 5 global survival curve diverged")
	}
	for i, cur := range analysis.FeaturedCurrencies() {
		if !reflect.DeepEqual(eco.Survival[i+1].Points, col.Survival(cur, false, grid)) {
			t.Errorf("Figure 5 curve %s diverged", cur)
		}
	}
}

// TestIncrementalMatchesBatch ingests a history page by page and checks
// every materialized view against the batch computation over the same
// pages — the core differential guarantee.
func TestIncrementalMatchesBatch(t *testing.T) {
	pages := genPages(t, 2500, 11)
	study, col := batchViews(t, pages)

	s := NewService(Options{})
	defer s.Close()
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	checkAgainstBatch(t, s, study, col, pages)
	if want := 1 + len(analysis.FeaturedCurrencies()); len(s.Ecosystem().Survival) != want {
		t.Fatalf("expected %d survival curves, got %d", want, len(s.Ecosystem().Survival))
	}
}

// TestMidStreamSnapshotsMatchBatchPrefix cuts the stream at several
// points and checks each published snapshot against the batch answer
// over exactly the ingested prefix — the "correct at every epoch"
// property, not just at the end.
func TestMidStreamSnapshotsMatchBatchPrefix(t *testing.T) {
	pages := genPages(t, 1200, 23)
	s := NewService(Options{PublishBatch: 8})
	defer s.Close()

	cuts := []int{len(pages) / 4, len(pages) / 2, len(pages)}
	prev := 0
	for _, cut := range cuts {
		for _, p := range pages[prev:cut] {
			if err := s.IngestPage(p); err != nil {
				t.Fatal(err)
			}
		}
		prev = cut
		drain(t, s)
		study, col := batchViews(t, pages[:cut])
		checkAgainstBatch(t, s, study, col, pages[:cut])
	}
}

// TestParallelBackfillMatchesSequential persists the history to a
// ledgerstore and backfills it with 1, 2, 3 and 8 decode workers, each
// projecting and feeding the views concurrently; segment interleaving
// may not change any view (all statistics commute): every one must
// equal the sequential batch pass over the same pages.
func TestParallelBackfillMatchesSequential(t *testing.T) {
	pages := genPages(t, 2000, 7)
	dir := filepath.Join(t.TempDir(), "store")
	st, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := st.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st, err = ledgerstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	study, col := batchViews(t, pages)
	for _, workers := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			s := NewService(Options{})
			defer s.Close()
			if err := s.BackfillStore(context.Background(), st, workers); err != nil {
				t.Fatal(err)
			}
			drain(t, s)
			checkAgainstBatch(t, s, study, col, pages)
			if got := s.Ecosystem().Pages; got != uint64(len(pages)) {
				t.Fatalf("backfill folded %d pages, want %d", got, len(pages))
			}
		})
	}
}

// TestTallyMatchesMonitorCollector subscribes the serving layer and the
// batch monitor.Collector to the same consensus run (with page payloads
// on the stream) and checks the incremental Figure 2 tallies equal the
// batch report, including ordering.
func TestTallyMatchesMonitorCollector(t *testing.T) {
	const rounds = 120
	spec := consensus.December2015(rounds)

	labels := make(map[addr.NodeID]string)
	batch := monitor.NewCollector()
	for _, vs := range spec.Specs {
		if vs.Label != "" {
			node := addr.KeyPairFromSeed(vs.Seed).NodeID()
			labels[node] = vs.Label
			batch.SetLabel(node, vs.Label)
		}
	}

	s := NewService(Options{ValidatorLabels: labels})
	defer s.Close()

	net := consensus.NewNetwork(consensus.Config{
		Seed:        9,
		StartTime:   spec.Start,
		StreamPages: true,
	}, spec.Specs)
	net.Subscribe(batch.Record)
	// Ground truth for the page views: only validated pages are
	// announced on the stream (quorum failures close no page).
	var streamed []*ledger.Page
	net.Subscribe(func(ev consensus.Event) {
		if ev.Kind == consensus.EventLedgerClosed && len(ev.PageData) > 0 {
			if p, _, err := ledger.DecodePageInto(ev.PageData, new(ledger.PageArena)); err != nil {
				t.Errorf("streamed page: %v", err)
			} else {
				streamed = append(streamed, p)
			}
		}
		if err := s.IngestEvent(ev); err != nil {
			t.Errorf("ingest: %v", err)
		}
	})
	if _, err := net.Run(rounds, nil); err != nil {
		t.Fatal(err)
	}
	drain(t, s)

	want := batch.Report(spec.Name)
	got := s.Tally().Report(spec.Name)
	if got.Rounds != want.Rounds {
		t.Fatalf("rounds differ: incremental %d, batch %d", got.Rounds, want.Rounds)
	}
	if !reflect.DeepEqual(got.Validators, want.Validators) {
		t.Fatalf("Figure 2 tallies diverged:\nincremental: %+v\nbatch:       %+v", got.Validators, want.Validators)
	}
	if s.Tally().Epoch == 0 {
		t.Fatal("tally view never published a non-bootstrap epoch")
	}

	// The stream also carried page payloads: the page views must agree
	// with a batch pass over the validated pages it announced.
	if len(streamed) == 0 {
		t.Fatal("no pages streamed")
	}
	study, col := batchViews(t, streamed)
	checkAgainstBatch(t, s, study, col, streamed)
}
