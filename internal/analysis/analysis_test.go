package analysis

import (
	"math"
	"reflect"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/synth"
)

func acct(seed uint64) addr.AccountID { return addr.KeyPairFromSeed(seed).AccountID() }

// page builds a one-page ledger with the given txs/metas.
func page(txs []*ledger.Tx, metas []*ledger.TxMeta) *ledger.Page {
	return &ledger.Page{
		Header: ledger.PageHeader{Sequence: 2, TxSetHash: ledger.TxSetHash(txs)},
		Txs:    txs, Metas: metas,
	}
}

func pay(sender, dest uint64, a string, metas *ledger.TxMeta) (*ledger.Tx, *ledger.TxMeta) {
	tx := &ledger.Tx{
		Type: ledger.TxPayment, Account: acct(sender), Destination: acct(dest),
		Amount: amount.MustAmount(a),
	}
	if metas == nil {
		metas = &ledger.TxMeta{Result: ledger.ResultSuccess}
	}
	return tx, metas
}

func TestCurrencyHistogram(t *testing.T) {
	c := NewCollector()
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	add := func(a string) {
		tx, m := pay(1, 2, a, nil)
		txs = append(txs, tx)
		metas = append(metas, m)
	}
	add("1/USD")
	add("2/USD")
	add("3/USD")
	add("1/EUR")
	add("5/XRP")
	add("5/XRP")
	// A failed payment must not count.
	tx, _ := pay(1, 2, "9/BTC", nil)
	txs = append(txs, tx)
	metas = append(metas, &ledger.TxMeta{Result: ledger.ResultPathDry})
	if err := c.Page(page(txs, metas)); err != nil {
		t.Fatal(err)
	}
	hist := c.CurrencyHistogram()
	if len(hist) != 3 {
		t.Fatalf("histogram has %d currencies, want 3", len(hist))
	}
	if hist[0].Currency != amount.USD || hist[0].Payments != 3 {
		t.Errorf("top = %+v, want USD×3", hist[0])
	}
	if c.Payments() != 6 || c.FailedPayments() != 1 {
		t.Errorf("payments=%d failed=%d", c.Payments(), c.FailedPayments())
	}
}

func TestSurvival(t *testing.T) {
	c := NewCollector()
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	for _, a := range []string{"1/USD", "10/USD", "100/USD", "1000/USD"} {
		tx, m := pay(1, 2, a, nil)
		txs = append(txs, tx)
		metas = append(metas, m)
	}
	if err := c.Page(page(txs, metas)); err != nil {
		t.Fatal(err)
	}
	pts := c.Survival(amount.USD, false, []float64{0.5, 5, 50, 500, 5000})
	want := []float64{1.0, 0.75, 0.5, 0.25, 0}
	for i, p := range pts {
		if math.Abs(p.Fraction-want[i]) > 1e-9 {
			t.Errorf("survival(%g) = %g, want %g", p.Amount, p.Fraction, want[i])
		}
	}
	// Global curve covers all currencies.
	g := c.Survival(amount.Currency{}, true, []float64{0.5})
	if g[0].Fraction != 1.0 {
		t.Errorf("global survival(0.5) = %g", g[0].Fraction)
	}
	// Unknown currency: nil.
	if c.Survival(amount.BTC, false, []float64{1}) != nil {
		t.Error("unknown currency should return nil")
	}
}

func TestHopAndParallelHistograms(t *testing.T) {
	c := NewCollector()
	tx1, m1 := pay(1, 2, "1/USD", &ledger.TxMeta{
		Result: ledger.ResultSuccess, PathHops: []uint8{1, 1, 2},
	})
	tx2, m2 := pay(3, 4, "1/USD", &ledger.TxMeta{
		Result: ledger.ResultSuccess, PathHops: []uint8{8, 8, 8, 8, 8, 8},
	})
	tx3, m3 := pay(5, 6, "1/XRP", nil) // direct XRP: no paths
	if err := c.Page(page([]*ledger.Tx{tx1, tx2, tx3}, []*ledger.TxMeta{m1, m2, m3})); err != nil {
		t.Fatal(err)
	}
	hops := c.HopHistogram()
	if hops[1] != 2 || hops[2] != 1 || hops[8] != 6 {
		t.Errorf("hop histogram = %v", hops)
	}
	par := c.ParallelHistogram()
	if par[3] != 1 || par[6] != 1 {
		t.Errorf("parallel histogram = %v", par)
	}
	if c.MultiHopPayments() != 2 {
		t.Errorf("multi-hop = %d, want 2 (XRP direct excluded)", c.MultiHopPayments())
	}
}

func TestTopIntermediaries(t *testing.T) {
	c := NewCollector()
	hub, gw := acct(100), acct(101)
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	for i := 0; i < 5; i++ {
		tx, m := pay(uint64(i), uint64(50+i), "1/USD", &ledger.TxMeta{
			Result: ledger.ResultSuccess, PathHops: []uint8{2},
			Intermediaries: []addr.AccountID{hub, gw},
		})
		txs = append(txs, tx)
		metas = append(metas, m)
	}
	tx, m := pay(9, 10, "1/USD", &ledger.TxMeta{
		Result: ledger.ResultSuccess, PathHops: []uint8{1},
		Intermediaries: []addr.AccountID{gw},
	})
	txs = append(txs, tx)
	metas = append(metas, m)
	if err := c.Page(page(txs, metas)); err != nil {
		t.Fatal(err)
	}
	top := c.TopIntermediaries(10, nil)
	if len(top) != 2 {
		t.Fatalf("top = %d entries, want 2", len(top))
	}
	if top[0].Account != gw || top[0].TimesIntermediate != 6 {
		t.Errorf("top[0] = %+v, want gw×6", top[0])
	}
	if top[1].Account != hub || top[1].TimesIntermediate != 5 {
		t.Errorf("top[1] = %+v, want hub×5", top[1])
	}
	// k truncation.
	if got := c.TopIntermediaries(1, nil); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
}

func TestOfferConcentration(t *testing.T) {
	c := NewCollector()
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	// Owner 1 places 6 offers, owners 2..5 one each.
	mk := func(owner uint64) {
		txs = append(txs, &ledger.Tx{
			Type: ledger.TxOfferCreate, Account: acct(owner),
			TakerPays: amount.MustAmount("1/USD"), TakerGets: amount.MustAmount("1/EUR"),
		})
		metas = append(metas, &ledger.TxMeta{Result: ledger.ResultSuccess})
	}
	for i := 0; i < 6; i++ {
		mk(1)
	}
	for o := uint64(2); o <= 5; o++ {
		mk(o)
	}
	if err := c.Page(page(txs, metas)); err != nil {
		t.Fatal(err)
	}
	conc := c.OfferConcentration([]int{1, 3, 100})
	if conc[1] != 0.6 {
		t.Errorf("top-1 share = %v, want 0.6", conc[1])
	}
	if conc[3] != 0.8 {
		t.Errorf("top-3 share = %v, want 0.8", conc[3])
	}
	if conc[100] != 1.0 {
		t.Errorf("top-100 share = %v, want 1.0", conc[100])
	}
	if c.TotalOffers() != 10 {
		t.Errorf("total offers = %d", c.TotalOffers())
	}
}

// ResultCounts returns how many transactions landed on each engine
// result code — the health profile of the history.
func (c *Collector) ResultCounts() map[ledger.TxResult]int64 {
	out := make(map[ledger.TxResult]int64, len(c.resultCounts))
	for k, v := range c.resultCounts {
		out[k] = v
	}
	return out
}

func TestResultCounts(t *testing.T) {
	c := NewCollector()
	tx1, m1 := pay(1, 2, "1/USD", nil)
	tx2, _ := pay(1, 3, "1/USD", nil)
	m2 := &ledger.TxMeta{Result: ledger.ResultPathDry}
	tx3, _ := pay(1, 4, "1/USD", nil)
	m3 := &ledger.TxMeta{Result: ledger.ResultPathDry}
	if err := c.Page(page([]*ledger.Tx{tx1, tx2, tx3}, []*ledger.TxMeta{m1, m2, m3})); err != nil {
		t.Fatal(err)
	}
	counts := c.ResultCounts()
	if counts[ledger.ResultSuccess] != 1 || counts[ledger.ResultPathDry] != 2 {
		t.Errorf("result counts = %v", counts)
	}
}

func TestFeeAccounting(t *testing.T) {
	c := NewCollector()
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	// Account 1 sends three transactions at 10 drops, account 2 one at
	// 50; even failed transactions burn their fee.
	for i := 0; i < 3; i++ {
		tx, m := pay(1, 9, "1/USD", nil)
		tx.Fee = 10
		txs = append(txs, tx)
		metas = append(metas, m)
	}
	tx, _ := pay(2, 9, "1/USD", nil)
	tx.Fee = 50
	txs = append(txs, tx)
	metas = append(metas, &ledger.TxMeta{Result: ledger.ResultPathDry})
	if err := c.Page(page(txs, metas)); err != nil {
		t.Fatal(err)
	}
	if c.TotalFees() != 80 {
		t.Errorf("total fees = %d, want 80", c.TotalFees())
	}
	top := c.TopFeePayers(10, nil)
	if len(top) != 2 {
		t.Fatalf("fee payers = %d, want 2", len(top))
	}
	if top[0].Account != acct(2) || top[0].Fees != 50 {
		t.Errorf("top payer = %+v, want account 2 at 50", top[0])
	}
	if top[0].Share != 50.0/80 {
		t.Errorf("share = %v", top[0].Share)
	}
	if got := c.TopFeePayers(1, nil); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
}

// TestAppendixShapeOnSyntheticHistory checks the appendix figures'
// qualitative shape over a generated history.
func TestAppendixShapeOnSyntheticHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 15k-payment history")
	}
	c := NewCollector()
	res, err := synth.Generate(synth.Config{
		Payments: 15_000, Seed: 11, SkipSignatures: true,
	}, c.Page)
	if err != nil {
		t.Fatal(err)
	}

	// Fig. 4: XRP first; CCK and MTL in the top 3; BTC above JPY.
	hist := c.CurrencyHistogram()
	if hist[0].Currency != amount.XRP {
		t.Errorf("top currency = %s, want XRP", hist[0].Currency)
	}
	top3 := map[amount.Currency]bool{hist[0].Currency: true, hist[1].Currency: true, hist[2].Currency: true}
	if !top3[amount.CCK] || !top3[amount.MTL] {
		t.Errorf("top-3 = %v, want CCK and MTL present", hist[:3])
	}

	// Fig. 5: BTC payments are much smaller than CNY payments; MTL sits
	// at ~1e9.
	btc := c.Survival(amount.BTC, false, []float64{100})
	if btc[0].Fraction > 0.05 {
		t.Errorf("P(BTC > 100) = %g, want tiny", btc[0].Fraction)
	}
	mtl := c.Survival(amount.MTL, false, []float64{1e8})
	if mtl[0].Fraction < 0.9 {
		t.Errorf("P(MTL > 1e8) = %g, want ≈1 (spam quantum)", mtl[0].Fraction)
	}

	// Fig. 6(a): hops decrease overall but spike at 8 (MTL spam).
	hops := c.HopHistogram()
	if hops[8] < hops[4] {
		t.Errorf("hop histogram lacks the 8-hop spam spike: %v", hops)
	}
	if hops[1] == 0 {
		t.Error("no 1-hop paths at all")
	}

	// Fig. 6(b): the MTL spam forces a spike at exactly 6 parallel
	// paths.
	par := c.ParallelHistogram()
	if par[6] < par[5] {
		t.Errorf("parallel histogram lacks the 6-path spam spike: %v", par)
	}
	if par[1] == 0 {
		t.Error("no single-path payments at all")
	}

	// Fig. 7(a): the two hubs are the most frequent intermediaries.
	reg := res.Population.Registry()
	top := c.TopIntermediaries(50, reg)
	if len(top) < 20 {
		t.Fatalf("only %d intermediaries observed", len(top))
	}
	hubs := map[addr.AccountID]bool{
		res.Population.Hubs[0].ID: true,
		res.Population.Hubs[1].ID: true,
	}
	if !hubs[top[0].Account] {
		t.Errorf("most frequent intermediary = %s, want a hub", top[0].Name)
	}
	gatewaysInTop := 0
	for _, it := range top[:20] {
		if it.Gateway {
			gatewaysInTop++
		}
	}
	if gatewaysInTop < 5 {
		t.Errorf("gateways in top-20 intermediaries = %d, want several", gatewaysInTop)
	}

	// Fig. 7(b)/(c): gateways receive trust and run negative balances.
	ProfileTop(top, res.Engine.Graph(), synth.RateEUR)
	for _, it := range top[:20] {
		if !it.Gateway {
			continue
		}
		if it.Profile.TrustReceived <= 0 {
			t.Errorf("gateway %s has no received trust", it.Name)
		}
		if it.Profile.NetBalance >= 0 {
			t.Errorf("gateway %s balance = %g, want negative (debt)", it.Name, it.Profile.NetBalance)
		}
	}

	// Offer concentration: top-10 ≈ half of all offers.
	conc := c.OfferConcentration([]int{10, 50, 100})
	if conc[10] < 0.3 || conc[10] > 0.8 {
		t.Errorf("top-10 offer share = %.2f, want ≈0.5", conc[10])
	}
	if conc[50] < conc[10] || conc[100] < conc[50] {
		t.Error("offer concentration not monotone in k")
	}
}

// collectorFingerprint reduces a collector's externally visible state to
// one comparable value: every accessor a snapshot consumer reads.
func collectorFingerprint(c *Collector) map[string]any {
	return map[string]any{
		"payments":    c.Payments(),
		"failed":      c.FailedPayments(),
		"multiHop":    c.MultiHopPayments(),
		"offers":      c.TotalOffers(),
		"active":      c.ActiveAccounts(),
		"currencies":  c.CurrencyHistogram(),
		"hops":        c.HopHistogram(),
		"parallel":    c.ParallelHistogram(),
		"survival":    c.Survival(amount.Currency{}, true, DefaultSurvivalGrid()),
		"survivalBTC": c.Survival(amount.BTC, false, DefaultSurvivalGrid()),
		"conc":        c.OfferConcentration([]int{10, 50, 100}),
		"fees":        c.TotalFees(),
	}
}

// TestMergeClonedRepeatable pins the shard/merge lifecycle the serving
// layer's sharded ecosystem view runs: per-shard collectors keep
// accumulating across repeated MergeCloned merges, and each merged
// result equals the sequential fold of the same prefix — so the merge
// neither corrupts the sources (Merge would: it adopts histogram
// pointers) nor drifts from the single-writer answer.
func TestMergeClonedRepeatable(t *testing.T) {
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{
		Payments: 4000, Seed: 17, SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	const shards = 3
	shard := make([]*Collector, shards)
	for i := range shard {
		shard[i] = NewCollector()
	}
	seq := NewCollector()

	cuts := []int{len(pages) / 4, len(pages) / 2, len(pages)}
	prev := 0
	for _, cut := range cuts {
		for i, p := range pages[prev:cut] {
			if err := shard[(prev+i)%shards].Page(p); err != nil {
				t.Fatal(err)
			}
			if err := seq.Page(p); err != nil {
				t.Fatal(err)
			}
		}
		prev = cut
		// Merge the live shards into a fresh collector — repeatedly, one
		// merge per cut, shards never reset.
		merged := NewCollector()
		for _, sh := range shard {
			merged.MergeCloned(sh)
		}
		got, want := collectorFingerprint(merged), collectorFingerprint(seq)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: merged state diverges from sequential fold\ngot  %+v\nwant %+v", cut, got, want)
		}
	}

	// Destructive-merge cross-check: Merge over clones of nothing — the
	// classic batch path — must agree with MergeCloned's answer.
	adopted := NewCollector()
	fresh := make([]*Collector, shards)
	for i := range fresh {
		fresh[i] = NewCollector()
	}
	for i, p := range pages {
		if err := fresh[i%shards].Page(p); err != nil {
			t.Fatal(err)
		}
	}
	for _, sh := range fresh {
		adopted.Merge(sh)
	}
	if !reflect.DeepEqual(collectorFingerprint(adopted), collectorFingerprint(seq)) {
		t.Fatal("destructive Merge diverges from sequential fold")
	}
}

// TestResetMatchesFresh pins the recycle contract: a Reset collector is
// indistinguishable from a brand-new one — including after it has
// accumulated state, so retained (zeroed-in-place) histograms and map
// buckets never leak previous contents into the next accumulation.
func TestResetMatchesFresh(t *testing.T) {
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{
		Payments: 3000, Seed: 19, SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	half := len(pages) / 2

	recycled := NewCollector()
	for _, p := range pages[:half] {
		if err := recycled.Page(p); err != nil {
			t.Fatal(err)
		}
	}
	recycled.Reset()
	if !reflect.DeepEqual(collectorFingerprint(recycled), collectorFingerprint(NewCollector())) {
		t.Fatal("reset collector differs from a fresh one")
	}

	fresh := NewCollector()
	for _, p := range pages[half:] {
		if err := recycled.Page(p); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Page(p); err != nil {
			t.Fatal(err)
		}
	}
	if !reflect.DeepEqual(collectorFingerprint(recycled), collectorFingerprint(fresh)) {
		t.Fatal("accumulation after Reset diverges from a fresh collector")
	}
	// The recycle loop the sharded view runs: Reset + MergeCloned must
	// also round-trip.
	recycled.Reset()
	recycled.MergeCloned(fresh)
	if !reflect.DeepEqual(collectorFingerprint(recycled), collectorFingerprint(fresh)) {
		t.Fatal("Reset+MergeCloned diverges from the merge source")
	}
}
