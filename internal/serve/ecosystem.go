package serve

import (
	"sync/atomic"

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

// snapshot seals the derived histograms. Every accessor used here
// (CurrencyHistogram, Survival, HopHistogram, ParallelHistogram,
// OfferConcentration) copies out of the collector, so the snapshot
// shares no mutable state with it.
func (e *ecosystemState) snapshot(epoch, appliedSeq uint64) *EcosystemSnapshot {
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

// ecoShards is the Figures 4–6 view sharded for the multi-worker
// pipeline: each apply worker folds parts into its own
// analysis.Collector, and the seal folds them into one cumulative
// collector before building the snapshot. The worker shards are
// per-epoch deltas: a seal MergeClones each into merged and Resets it,
// so a merge costs O(records since the last seal), not O(view state).
// Every collector statistic is an order-insensitive sum or union, so
// any partition of the record stream, cut into any epochs, merges to
// the state a sequential fold reaches (the property analysis.Merge
// already pins for the segment-parallel batch scan).
type ecoShards struct {
	shards []*ecosystemState
	// pages counts records folded across all shards; atomic because the
	// sealer reads it for the publish gate without a barrier (it is a
	// heuristic, exactness is not needed).
	pages atomic.Uint64
	// lastSealPages is the folded page count the previous seal covered.
	// Sealer-goroutine only.
	lastSealPages uint64
	// merged is the cumulative state through the last seal, the only
	// collector a snapshot reads. Sealer-goroutine only, like
	// lastSealPages.
	merged *ecosystemState
}

func newEcoShards(n int) *ecoShards {
	if n < 1 {
		n = 1
	}
	e := &ecoShards{shards: make([]*ecosystemState, n), merged: newEcosystemState()}
	for i := range e.shards {
		e.shards[i] = newEcosystemState()
	}
	return e
}

func (e *ecoShards) apply(shard int, part *ecoPart) {
	e.shards[shard].apply(part)
	e.pages.Add(1)
}

// sealDue spaces publishes geometrically under sustained load: the merge
// is O(delta), but building the snapshot still copies the cumulative
// histograms and sorts the offer owners — O(view state) — so requiring
// the folded page count to double since the previous seal keeps that
// cost linear in ingest, the same discipline the fingerprint view
// applies to its table seals. Ring-dry seals (after a wait as long as
// the previous seal took, or none while a Drain waits) and shutdown
// seals bypass the gate, so idle epochs stay fresh and Drain always
// completes.
func (e *ecoShards) sealDue() bool {
	return e.pages.Load() >= 2*e.lastSealPages
}

// snapshot folds the shards' deltas into merged and seals the derived
// histograms. It runs under the seal barrier (or after shutdown), so the
// shard collectors are quiescent.
func (e *ecoShards) snapshot(epoch, appliedSeq uint64) *EcosystemSnapshot {
	e.lastSealPages = e.pages.Load()
	for _, sh := range e.shards {
		e.merged.col.MergeCloned(sh.col)
		e.merged.pages += sh.pages
		sh.col.Reset()
		sh.pages = 0
	}
	return e.merged.snapshot(epoch, appliedSeq)
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
