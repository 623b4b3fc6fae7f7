package pathfind_test

import (
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
)

// TestFlowsCarryTheirLine replays a synth history and, before each IOU
// payment applies, plans it with one long-lived Finder over the replaying
// engine's state — so plans are made while the graph gains lines and
// its adjacency moves — and requires every planned flow to carry the
// pair PairOf finds for its endpoints, oriented from its sender.
func TestFlowsCarryTheirLine(t *testing.T) {
	var pages []*ledger.Page
	if _, err := synth.Generate(synth.Config{Payments: 1500, Seed: 5, SkipSignatures: true}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	eng := payment.NewEngine()
	g := eng.Graph()
	f := pathfind.New(g, eng.Books())
	plans, flows := 0, 0
	for _, p := range pages {
		for _, tx := range p.Txs {
			if tx.Type == ledger.TxPayment && !tx.IsDirectXRP() && tx.Account != tx.Destination && tx.Amount.Value.IsPositive() {
				if plan, err := f.FindPayment(tx.Account, tx.Destination, tx.SourceCurrency(), tx.Amount); err == nil {
					plans++
					for i := range plan.TrustFlows {
						fl := &plan.TrustFlows[i]
						want := g.PairOf(fl.From, fl.To, fl.Currency)
						if want == nil || fl.Line != want || fl.FromLo != (want.Lo == fl.From) {
							t.Fatalf("page %d: flow %s→%s/%s carries pair %p (from Lo %v), PairOf gives %p",
								p.Header.Sequence, fl.From.Short(), fl.To.Short(), fl.Currency, fl.Line, fl.FromLo, want)
						}
						flows++
					}
				}
			}
			if _, _, err := eng.ApplyResult(tx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if plans < 500 || flows < 1000 {
		t.Fatalf("only %d plans with %d flows checked", plans, flows)
	}
	t.Logf("%d plans, %d flows", plans, flows)
}
