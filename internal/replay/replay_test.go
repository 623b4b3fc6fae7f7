package replay

import (
	"testing"

	"ripplestudy/internal/ledger"
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

func TestBuildStateMatchesGenerator(t *testing.T) {
	pages, res := generate(t, 2500, 1)
	last := pages[len(pages)-1].Header.Sequence
	eng, err := BuildStateOpts(FromPages(pages), last, BuildOptions{})
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
}

func TestBuildStateStopsAtSnapshot(t *testing.T) {
	pages, _ := generate(t, 1500, 2)
	mid := pages[len(pages)/2].Header.Sequence
	eng, err := BuildStateOpts(FromPages(pages), mid, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := BuildStateOpts(FromPages(pages), pages[len(pages)-1].Header.Sequence, BuildOptions{})
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
	// Snapshot at 70% of the history, past the spam campaigns' windows,
	// like the paper's stable Feb 2015 snapshot.
	snapSeq := pages[len(pages)*7/10].Header.Sequence
	res, err := RunOpts(FromPages(pages), snapSeq, BuildOptions{})
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
	snapSeq := pages[len(pages)*7/10].Header.Sequence
	state, err := BuildStateOpts(FromPages(pages), snapSeq, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	submitted, delivered := 0, 0
	err = FromPages(pages).Pages(func(p *ledger.Page) error {
		if p.Header.Sequence <= snapSeq {
			return nil
		}
		for i, tx := range p.Txs {
			if tx.Type != ledger.TxPayment || !p.Metas[i].Result.Succeeded() {
				continue
			}
			if tx.IsDirectXRP() {
				continue
			}
			submitted++
			if m := replayTx(state, tx); m != nil && m.Result.Succeeded() {
				delivered++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
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
