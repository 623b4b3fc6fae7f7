package serve

import (
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
)

// ecosystemState is the mutable Figures 4–6 view. analysis.Collector is
// already a streaming accumulator, so the incremental maintenance IS
// the batch computation — the view work is sealing its derived
// statistics into immutable snapshots per epoch. The view consumes
// each page's ecoPart (project.go), not pages: the collector's record
// entry points fold in exactly the statistics the snapshot surfaces,
// bit-identical to Collector.Page over the originals.
type ecosystemState struct {
	col   *analysis.Collector
	pages uint64
	// lastSealPages is the page count the previous seal covered; sealDue
	// compares against it.
	lastSealPages uint64
}

func newEcosystemState() *ecosystemState {
	return &ecosystemState{col: analysis.NewCollector()}
}

func (e *ecosystemState) apply(part *ecoPart) {
	e.pages++
	e.col.AddFailedPayments(part.failed)
	for _, owner := range part.offerOwners {
		e.col.AddOffer(owner)
	}
	for i := range part.payments {
		p := &part.payments[i]
		e.col.AddPayment(p.sender, p.dest, p.currency, p.value,
			part.hops[p.hopsOff:p.hopsOff+p.hopsLen])
	}
}

// sealDue spaces publishes geometrically under sustained load: building
// the snapshot copies the cumulative histograms and sorts the offer
// owners — O(view state) — so requiring the folded page count to double
// since the previous seal keeps that cost linear in ingest, the same
// discipline the fingerprint view applies to its table seals. Dry-inbox
// seals (after a wait as long as the previous seal took, or none while a
// Drain waits) and shutdown seals bypass the gate, so idle epochs stay
// fresh and Drain always completes.
func (e *ecosystemState) sealDue() bool {
	return e.pages >= 2*e.lastSealPages
}

// snapshot seals the derived histograms. Every accessor used here
// (CurrencyHistogram, Survival, HopHistogram, ParallelHistogram,
// OfferConcentration) copies out of the collector, so the snapshot
// shares no mutable state with it.
func (e *ecosystemState) snapshot(epoch, appliedSeq uint64) *EcosystemSnapshot {
	e.lastSealPages = e.pages
	grid := analysis.DefaultSurvivalGrid()
	curves := []SurvivalCurve{{Label: "Global", Points: e.col.Survival(amount.Currency{}, true, grid)}}
	for _, cur := range analysis.FeaturedCurrencies() {
		curves = append(curves, SurvivalCurve{Label: cur.String(), Points: e.col.Survival(cur, false, grid)})
	}
	return &EcosystemSnapshot{
		Epoch:              epoch,
		AppliedSeq:         appliedSeq,
		Pages:              e.pages,
		Payments:           e.col.Payments(),
		Failed:             e.col.FailedPayments(),
		MultiHop:           e.col.MultiHopPayments(),
		Offers:             e.col.TotalOffers(),
		ActiveUsers:        e.col.ActiveAccounts(),
		Currencies:         e.col.CurrencyHistogram(),
		Survival:           curves,
		Hops:               e.col.HopHistogram(),
		Parallel:           e.col.ParallelHistogram(),
		OfferConcentration: e.col.OfferConcentration([]int{10, 50, 100}),
	}
}

// SurvivalCurve is one labelled Figure 5 curve.
type SurvivalCurve struct {
	Label  string                   `json:"label"`
	Points []analysis.SurvivalPoint `json:"points"`
}

// EcosystemSnapshot is one sealed epoch of the Figures 4–6 view.
type EcosystemSnapshot struct {
	// Epoch identifies the publish this snapshot came from.
	Epoch uint64 `json:"epoch"`
	// AppliedSeq is the highest ledger sequence folded in.
	AppliedSeq uint64 `json:"applied_seq"`
	// Pages is the number of pages folded in.
	Pages uint64 `json:"pages"`

	Payments    int64 `json:"payments"`
	Failed      int64 `json:"failed"`
	MultiHop    int64 `json:"multi_hop"`
	Offers      int64 `json:"offers"`
	ActiveUsers int   `json:"active_users"`

	// Currencies is Figure 4: currencies by descending payment count.
	Currencies []analysis.CurrencyCount `json:"currencies"`
	// Survival is Figure 5: the global curve plus the paper's featured
	// currencies, sampled on the default grid.
	Survival []SurvivalCurve `json:"survival"`
	// Hops and Parallel are Figures 6(a) and 6(b).
	Hops     map[int]int64 `json:"hops"`
	Parallel map[int]int64 `json:"parallel"`
	// OfferConcentration is the appendix market-maker measurement for
	// k ∈ {10, 50, 100}.
	OfferConcentration map[int]float64 `json:"offer_concentration"`
}
