// Package analysis implements the paper's appendix: the in-depth
// exploration of the ledger. A single streaming Collector folds pages in
// once and answers every appendix question: the most-used currencies
// (Fig. 4), the survival functions of payment amounts (Fig. 5), the
// path-length and parallel-path distributions (Fig. 6), the most
// frequent intermediaries with their trust and balance profiles
// (Fig. 7), and the concentration of exchange offers over market makers.
package analysis

import (
	"math"
	"sort"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/trustgraph"
)

// logBucket parameters: amounts are histogrammed at 0.1-decade
// granularity across 10^-10 .. 10^14, which reconstructs survival
// functions without retaining every amount.
const (
	bucketPerDecade = 10
	minDecade       = -10
	maxDecade       = 14
	numBuckets      = (maxDecade - minDecade) * bucketPerDecade
)

type histogram struct {
	buckets [numBuckets]int64
	total   int64
}

func (h *histogram) add(v float64) {
	if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	d := math.Log10(v)
	idx := int((d - minDecade) * bucketPerDecade)
	if idx < 0 {
		idx = 0
	}
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	h.buckets[idx]++
	h.total++
}

// Collector accumulates the appendix statistics from a stream of pages.
// It is not safe for concurrent use.
type Collector struct {
	payments  int64
	failed    int64
	transacts int64

	byCurrency map[amount.Currency]int64
	amounts    map[amount.Currency]*histogram
	global     histogram

	hopHist      map[int]int64 // per-path intermediate hops (Fig. 6a)
	parallelHist map[int]int64 // parallel paths per payment (Fig. 6b)
	multiHop     int64

	intermediary map[addr.AccountID]int64

	offersByOwner map[addr.AccountID]int64
	offersTotal   int64

	senders, receivers map[addr.AccountID]struct{}

	feesByAccount map[addr.AccountID]amount.Drops
	feesTotal     amount.Drops
}

// NewCollector creates an empty collector.
func NewCollector() *Collector {
	return &Collector{
		byCurrency:    make(map[amount.Currency]int64),
		amounts:       make(map[amount.Currency]*histogram),
		hopHist:       make(map[int]int64),
		parallelHist:  make(map[int]int64),
		intermediary:  make(map[addr.AccountID]int64),
		offersByOwner: make(map[addr.AccountID]int64),
		senders:       make(map[addr.AccountID]struct{}),
		receivers:     make(map[addr.AccountID]struct{}),
		feesByAccount: make(map[addr.AccountID]amount.Drops),
	}
}

// Page folds one ledger page into the statistics.
func (c *Collector) Page(p *ledger.Page) error {
	for i, tx := range p.Txs {
		meta := p.Metas[i]
		c.transacts++
		// Fee accounting: every included transaction burns its fee —
		// Ripple's anti-spam design ("a small XRP fee is collected for
		// each transaction ... destroyed after the transaction is
		// confirmed").
		c.feesByAccount[tx.Account] += tx.Fee
		c.feesTotal += tx.Fee
		switch tx.Type {
		case ledger.TxOfferCreate:
			if meta.Result.Succeeded() {
				c.offersByOwner[tx.Account]++
				c.offersTotal++
			}
		case ledger.TxPayment:
			if !meta.Result.Succeeded() {
				c.failed++
				continue
			}
			c.payments++
			c.byCurrency[tx.Amount.Currency]++
			h := c.amounts[tx.Amount.Currency]
			if h == nil {
				h = &histogram{}
				c.amounts[tx.Amount.Currency] = h
			}
			f := tx.Amount.Value.Float64()
			h.add(f)
			c.global.add(f)
			c.senders[tx.Account] = struct{}{}
			c.receivers[tx.Destination] = struct{}{}
			// The paper's Figure 6 set is the payments that "require
			// more than one hop on the trust-lines": at least one
			// intermediate account. Direct transfers (trust-line
			// neighbours, direct XRP) are excluded.
			if meta.MaxHops() >= 1 {
				c.multiHop++
				c.parallelHist[len(meta.PathHops)]++
				for _, hops := range meta.PathHops {
					c.hopHist[int(hops)]++
				}
			}
			for _, mid := range meta.Intermediaries {
				c.intermediary[mid]++
			}
		}
	}
	return nil
}

// AddPayment folds one successful payment in from its projected fields
// — the record-based entry point for consumers (the live serving
// layer's ecosystem view) that project pages once at ingest instead of
// handing the collector whole pages. pathHops is the per-path
// intermediate hop count list from the transaction metadata. The
// statistics it maintains are exactly the ones Collector.Page's payment
// arm does, bit-identically: currency counts, amount histograms,
// sender/receiver sets, and the multi-hop path-shape histograms.
// (Transaction-level stats with no payment projection — fees, engine
// result counts, intermediary appearances — are page-arm only.)
func (c *Collector) AddPayment(sender, dest addr.AccountID, cur amount.Currency, v amount.Value, pathHops []uint8) {
	c.payments++
	c.byCurrency[cur]++
	h := c.amounts[cur]
	if h == nil {
		h = &histogram{}
		c.amounts[cur] = h
	}
	f := v.Float64()
	h.add(f)
	c.global.add(f)
	c.senders[sender] = struct{}{}
	c.receivers[dest] = struct{}{}
	maxHops := 0
	for _, hops := range pathHops {
		if int(hops) > maxHops {
			maxHops = int(hops)
		}
	}
	if maxHops >= 1 {
		c.multiHop++
		c.parallelHist[len(pathHops)]++
		for _, hops := range pathHops {
			c.hopHist[int(hops)]++
		}
	}
}

// AddFailedPayments counts n failed payment transactions, matching the
// page arm's failed branch.
func (c *Collector) AddFailedPayments(n int) { c.failed += int64(n) }

// AddOffer counts one successful OfferCreate by owner, matching the
// page arm's offer branch.
func (c *Collector) AddOffer(owner addr.AccountID) {
	c.offersByOwner[owner]++
	c.offersTotal++
}

// MergeCloned folds another collector's accumulated statistics into c
// and leaves other untouched and reusable: per-currency histograms are
// copied, never adopted, so the same source collector can keep
// accumulating and be merged again later. Every statistic the collector
// keeps is an order-insensitive sum (counts, histograms) or union
// (account sets), so merging per-worker collectors from a
// segment-parallel scan yields exactly the state a single sequential
// collector would have reached. core's segment-parallel ecosystem scan
// merges its workers' collectors once.
func (c *Collector) MergeCloned(other *Collector) {
	c.payments += other.payments
	c.failed += other.failed
	c.transacts += other.transacts
	c.multiHop += other.multiHop
	c.offersTotal += other.offersTotal
	c.feesTotal += other.feesTotal
	for cur, n := range other.byCurrency {
		c.byCurrency[cur] += n
	}
	for cur, h := range other.amounts {
		mine := c.amounts[cur]
		if mine == nil {
			cp := *h
			c.amounts[cur] = &cp
			continue
		}
		mine.merge(h)
	}
	c.global.merge(&other.global)
	for k, v := range other.hopHist {
		c.hopHist[k] += v
	}
	for k, v := range other.parallelHist {
		c.parallelHist[k] += v
	}
	for a, n := range other.intermediary {
		c.intermediary[a] += n
	}
	for a, n := range other.offersByOwner {
		c.offersByOwner[a] += n
	}
	for a := range other.senders {
		c.senders[a] = struct{}{}
	}
	for a := range other.receivers {
		c.receivers[a] = struct{}{}
	}
	for a, f := range other.feesByAccount {
		c.feesByAccount[a] += f
	}
}

// merge adds another histogram's buckets into h.
func (h *histogram) merge(other *histogram) {
	for i := range h.buckets {
		h.buckets[i] += other.buckets[i]
	}
	h.total += other.total
}

// Payments returns the number of successful payments folded in.
func (c *Collector) Payments() int64 { return c.payments }

// FailedPayments returns the number of failed payment transactions.
func (c *Collector) FailedPayments() int64 { return c.failed }

// MultiHopPayments returns payments that used at least one trust path
// (the paper's "10M transactions that require more than one hop").
func (c *Collector) MultiHopPayments() int64 { return c.multiHop }

// ActiveAccounts returns the number of distinct payment senders.
func (c *Collector) ActiveAccounts() int { return len(c.senders) }

// CurrencyCount is one bar of Figure 4.
type CurrencyCount struct {
	Currency amount.Currency
	Payments int64
}

// CurrencyHistogram returns currencies by descending payment count —
// Figure 4.
func (c *Collector) CurrencyHistogram() []CurrencyCount {
	out := make([]CurrencyCount, 0, len(c.byCurrency))
	for cur, n := range c.byCurrency {
		out = append(out, CurrencyCount{Currency: cur, Payments: n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Payments != out[j].Payments {
			return out[i].Payments > out[j].Payments
		}
		return out[i].Currency.String() < out[j].Currency.String()
	})
	return out
}

// SurvivalPoint is one sample of a Figure 5 curve.
type SurvivalPoint struct {
	Amount   float64
	Fraction float64 // P(payment amount > Amount)
}

// Survival samples the survival function of the currency's payment
// amounts at the given thresholds. The zero currency with global=true
// gives the currency-unaware "Global" curve. One suffix-sum pass over
// the buckets serves every threshold, so a whole curve costs
// O(buckets + thresholds) instead of O(buckets × thresholds) — the
// live serving layer seals these curves on every ecosystem publish.
// Each point is the share of payments filed (by histogram.add) in a
// bucket above the one x falls in; the suffix sums are exact integers,
// so a point is the same whichever order its buckets are summed in.
func (c *Collector) Survival(cur amount.Currency, global bool, thresholds []float64) []SurvivalPoint {
	h := &c.global
	if !global {
		h = c.amounts[cur]
		if h == nil {
			return nil
		}
	}
	// suffix[i] counts payments in bucket i and above, so suffix[idx+1]
	// counts those strictly above bucket idx.
	var suffix [numBuckets + 1]int64
	for i := numBuckets - 1; i >= 0; i-- {
		suffix[i] = suffix[i+1] + h.buckets[i]
	}
	out := make([]SurvivalPoint, 0, len(thresholds))
	for _, x := range thresholds {
		out = append(out, SurvivalPoint{Amount: x, Fraction: h.survivalAt(x, &suffix)})
	}
	return out
}

// survivalAt returns the share of h's payments in buckets above the one
// x falls in, read from Survival's suffix table: 1 for x below the first
// bucket, 0 for x past the last.
func (h *histogram) survivalAt(x float64, suffix *[numBuckets + 1]int64) float64 {
	if h.total == 0 {
		return 0
	}
	if x <= 0 {
		return 1
	}
	d := math.Log10(x)
	idx := int((d - minDecade) * bucketPerDecade)
	if idx < 0 {
		return 1
	}
	if idx >= numBuckets {
		return 0
	}
	return float64(suffix[idx+1]) / float64(h.total)
}

// FeaturedCurrencies returns the currencies whose survival curves the
// paper plots in Figure 5, in presentation order. Shared by the batch
// facade (core.Figure5) and the live serving layer.
func FeaturedCurrencies() []amount.Currency {
	return []amount.Currency{amount.BTC, amount.CCK, amount.CNY, amount.EUR, amount.MTL, amount.USD, amount.XRP}
}

// DefaultSurvivalGrid returns the paper's x-axis: powers of ten from
// 10^-4 to 10^12.
func DefaultSurvivalGrid() []float64 {
	var out []float64
	for d := -4; d <= 12; d++ {
		out = append(out, math.Pow(10, float64(d)))
	}
	return out
}

// HopHistogram returns path counts by intermediate hops — Figure 6(a).
func (c *Collector) HopHistogram() map[int]int64 {
	out := make(map[int]int64, len(c.hopHist))
	for k, v := range c.hopHist {
		out[k] = v
	}
	return out
}

// ParallelHistogram returns payment counts by number of parallel paths —
// Figure 6(b).
func (c *Collector) ParallelHistogram() map[int]int64 {
	out := make(map[int]int64, len(c.parallelHist))
	for k, v := range c.parallelHist {
		out[k] = v
	}
	return out
}

// Intermediary is one bar of Figure 7(a), optionally annotated with the
// trust/balance profile of Figures 7(b) and 7(c).
type Intermediary struct {
	Account addr.AccountID
	Name    string
	Gateway bool
	// TimesIntermediate counts appearances as an intermediate hop.
	TimesIntermediate int64
	// Profile aggregates trust and balances (filled by ProfileTop).
	Profile trustgraph.Profile
}

// Namer resolves display names and gateway status; synth.Registry
// satisfies it.
type Namer interface {
	Name(addr.AccountID) string
	IsGateway(addr.AccountID) bool
}

// TopIntermediaries returns the k accounts appearing most often as
// intermediate hops — Figure 7(a).
func (c *Collector) TopIntermediaries(k int, names Namer) []Intermediary {
	out := make([]Intermediary, 0, len(c.intermediary))
	for a, n := range c.intermediary {
		it := Intermediary{Account: a, TimesIntermediate: n}
		if names != nil {
			it.Name = names.Name(a)
			it.Gateway = names.IsGateway(a)
		} else {
			it.Name = a.Short()
		}
		out = append(out, it)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimesIntermediate != out[j].TimesIntermediate {
			return out[i].TimesIntermediate > out[j].TimesIntermediate
		}
		return out[i].Account.String() < out[j].Account.String()
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}

// ProfileTop fills the trust/balance profiles of the intermediaries from
// the final credit network — Figures 7(b) and 7(c). rate converts each
// currency into the reference currency (the paper uses EUR).
func ProfileTop(top []Intermediary, g *trustgraph.Graph, rate func(amount.Currency) float64) {
	for i := range top {
		top[i].Profile = g.ProfileOf(top[i].Account, rate)
	}
}

// OfferConcentration returns, for each k in ks, the fraction of all
// offers placed by the k most active offer creators — the appendix's
// "44M (50%) are generated by 10 Market Makers only" measurement.
func (c *Collector) OfferConcentration(ks []int) map[int]float64 {
	counts := make([]int64, 0, len(c.offersByOwner))
	for _, n := range c.offersByOwner {
		counts = append(counts, n)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] > counts[j] })
	out := make(map[int]float64, len(ks))
	for _, k := range ks {
		var topK int64
		for i := 0; i < k && i < len(counts); i++ {
			topK += counts[i]
		}
		if c.offersTotal == 0 {
			out[k] = 0
		} else {
			out[k] = float64(topK) / float64(c.offersTotal)
		}
	}
	return out
}

// TotalOffers returns the number of successful OfferCreate transactions.
func (c *Collector) TotalOffers() int64 { return c.offersTotal }

// FeePayer is one row of the spam-cost analysis: an account and the XRP
// it burned in fees.
type FeePayer struct {
	Account addr.AccountID
	Name    string
	Fees    amount.Drops
	Share   float64 // of all fees burned
}

// TotalFees returns the XRP destroyed across the history.
func (c *Collector) TotalFees() amount.Drops { return c.feesTotal }

// TopFeePayers ranks accounts by fees burned — the cost side of the
// paper's spam campaigns: the MTL and CCK attackers and the
// ACCOUNT_ZERO spammers dominate this list, quantifying how much the
// anti-spam fee actually charged them.
func (c *Collector) TopFeePayers(k int, names Namer) []FeePayer {
	out := make([]FeePayer, 0, len(c.feesByAccount))
	for a, f := range c.feesByAccount {
		fp := FeePayer{Account: a, Fees: f}
		if names != nil {
			fp.Name = names.Name(a)
		} else {
			fp.Name = a.Short()
		}
		if c.feesTotal > 0 {
			fp.Share = float64(f) / float64(c.feesTotal)
		}
		out = append(out, fp)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fees != out[j].Fees {
			return out[i].Fees > out[j].Fees
		}
		return out[i].Account.String() < out[j].Account.String()
	})
	if k < len(out) {
		out = out[:k]
	}
	return out
}
