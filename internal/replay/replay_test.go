package replay

import (
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/synth"
	"ripplestudy/internal/trustgraph"
)

// numPairs counts the trust pairs of g.
func numPairs(g *trustgraph.Graph) int {
	n := 0
	g.Pairs(func(*trustgraph.Pair) { n++ })
	return n
}

// generate builds a small history in memory and returns pages + result.
// Replays read it back from a store (storeWithHistory).
func generate(t *testing.T, payments int, seed int64) ([]*ledger.Page, *synth.Result) {
	t.Helper()
	var pages []*ledger.Page
	res, err := synth.Generate(synth.Config{
		Payments: payments, Seed: seed, SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages, res
}

// storeWithHistory persists pages into a fresh store in a test temp
// directory and returns it plus the last page sequence. The store rolls
// its segments every 64 KiB, so a replay's range reads skip whole
// segments; opts, applied after that, can change it.
func storeWithHistory(t *testing.T, pages []*ledger.Page, opts ...ledgerstore.Option) (*ledgerstore.Store, uint64) {
	t.Helper()
	store, err := ledgerstore.Create(t.TempDir(), append([]ledgerstore.Option{ledgerstore.WithSegmentBytes(1 << 16)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return store, pages[len(pages)-1].Header.Sequence
}

func TestBuildStateMatchesGenerator(t *testing.T) {
	pages, res := generate(t, 2500, 1)
	store, last := storeWithHistory(t, pages)
	eng, err := BuildStateOpts(store, last, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic replay of the full history must land on the exact
	// same state digest the generator produced.
	if eng.StateDigest() != res.Engine.StateDigest() {
		t.Fatal("replayed state digest differs from the generator's")
	}
	if eng.TotalDrops() != res.Engine.TotalDrops() {
		t.Error("replayed XRP supply differs")
	}
	if numPairs(eng.Graph()) != numPairs(res.Engine.Graph()) {
		t.Errorf("replayed trust pairs = %d, generator = %d",
			numPairs(eng.Graph()), numPairs(res.Engine.Graph()))
	}
	if eng.Books().NumOffers() != res.Engine.Books().NumOffers() {
		t.Errorf("replayed offers = %d, generator = %d",
			eng.Books().NumOffers(), res.Engine.Books().NumOffers())
	}
	// The digest chains only each tx hash and result byte, so a flow
	// applied to the wrong pair or in the wrong direction passes it while
	// the results agree. The sealed roots commit to every balance: the
	// generator's state snapshotted whole against the replay's journal.
	want := res.Engine.Clone()
	want.EnableStateTree()
	wantRoot, err := want.SealState()
	if err != nil {
		t.Fatal(err)
	}
	gotRoot, err := eng.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if gotRoot != wantRoot {
		t.Errorf("replayed state root %s, generator's %s", gotRoot.Short(), wantRoot.Short())
	}
}

func TestBuildStateStopsAtSnapshot(t *testing.T) {
	pages, _ := generate(t, 1500, 2)
	store, last := storeWithHistory(t, pages)
	mid := pages[len(pages)/2].Header.Sequence
	eng, err := BuildStateOpts(store, mid, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildStateOpts(store, last, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.StateDigest() == full.StateDigest() {
		t.Error("snapshot state equals full state; snapshot not honored")
	}
}

func TestTableIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 12k-payment history")
	}
	pages, _ := generate(t, 12_000, 3)
	store, _ := storeWithHistory(t, pages)
	// Snapshot at 70% of the history, past the spam campaigns' windows,
	// like the paper's stable Feb 2015 snapshot.
	snapSeq := pages[len(pages)*7/10].Header.Sequence
	res, err := RunOpts(store, snapSeq, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("Table II: cross %d/%d (%.1f%%), single %d/%d (%.1f%%), total %.1f%%, removed %d MMs",
		res.Cross.Delivered, res.Cross.Submitted, 100*res.Cross.Rate(),
		res.Single.Delivered, res.Single.Submitted, 100*res.Single.Rate(),
		100*res.Total().Rate(), res.RemovedMarketMakers)

	if res.RemovedMarketMakers < 50 {
		t.Errorf("removed %d market makers, want the full population", res.RemovedMarketMakers)
	}
	if res.Cross.Submitted < 50 {
		t.Fatalf("cross-currency submitted = %d, want a real population", res.Cross.Submitted)
	}
	if res.Single.Submitted < 50 {
		t.Fatalf("single-currency submitted = %d, want a real population", res.Single.Submitted)
	}
	// The paper's headline: without market makers ALL cross-currency
	// payments fail.
	if res.Cross.Delivered != 0 {
		t.Errorf("cross-currency delivered = %d, want 0", res.Cross.Delivered)
	}
	// And a striking share of single-currency payments fails too
	// (paper: 36.1% delivered).
	if r := res.Single.Rate(); r < 0.05 || r > 0.85 {
		t.Errorf("single-currency delivery rate = %.3f, want a partial rate (paper 0.361)", r)
	}
	// Total delivery collapses (paper: 11.2%).
	if r := res.Total().Rate(); r > 0.6 {
		t.Errorf("total delivery rate = %.3f, want a collapse (paper 0.112)", r)
	}
}

func TestReplayWithoutAblationDelivers(t *testing.T) {
	// Sanity: replaying the same payments on the UNmodified state must
	// deliver nearly everything — the collapse in TestTableIIShape is
	// caused by the ablation, not by replay artifacts.
	pages, _ := generate(t, 3000, 4)
	store, _ := storeWithHistory(t, pages)
	snapSeq := pages[len(pages)*7/10].Header.Sequence
	state, err := BuildStateOpts(store, snapSeq, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	submitted, delivered := 0, 0
	for _, p := range pages {
		if p.Header.Sequence <= snapSeq {
			continue
		}
		for i, tx := range p.Txs {
			if tx.Type != ledger.TxPayment || !p.Metas[i].Result.Succeeded() {
				continue
			}
			if tx.IsDirectXRP() {
				continue
			}
			submitted++
			result, err := replayTx(state, tx)
			if err != nil {
				t.Fatal(err)
			}
			if result.Succeeded() {
				delivered++
			}
		}
	}
	if submitted == 0 {
		t.Fatal("no IOU payments in replay window")
	}
	rate := float64(delivered) / float64(submitted)
	if rate < 0.95 {
		t.Errorf("un-ablated replay delivery = %.3f (%d/%d), want ≈1", rate, delivered, submitted)
	}
}

func TestCategoryStrings(t *testing.T) {
	if CategoryCross.String() != "Cross-currency" || CategorySingle.String() != "Single-currency" {
		t.Error("category strings wrong")
	}
	r := Row{Submitted: 0}
	if r.Rate() != 0 {
		t.Error("zero-submitted rate should be 0")
	}
}
