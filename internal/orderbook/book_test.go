package orderbook

import (
	"math/rand"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

func acct(seed uint64) addr.AccountID { return addr.KeyPairFromSeed(seed).AccountID() }

func usdEUR() Pair { return Pair{Pays: amount.USD, Gets: amount.EUR} }

// offer builds an offer selling `gets` EUR for `pays` USD.
func offer(owner uint64, seq uint32, pays, gets string) *Offer {
	return &Offer{
		Owner: acct(owner),
		Seq:   seq,
		Pays:  amount.New(amount.USD, amount.MustParse(pays)),
		Gets:  amount.New(amount.EUR, amount.MustParse(gets)),
	}
}

// quoteBuy quotes into a fresh Quote.
func quoteBuy(b *Books, pair Pair, wantGets amount.Value) (Quote, error) {
	var q Quote
	err := b.QuoteBuyInto(pair, wantGets, &q)
	return q, err
}

// bestOffer returns the best (lowest quality) offer in the pair's book,
// or nil when the book is empty.
func bestOffer(b *Books, pair Pair) *Offer {
	if bk := b.byPair[pair]; bk != nil && len(bk.offers) > 0 {
		return bk.offers[0]
	}
	return nil
}

func TestPlaceAndBestOrdering(t *testing.T) {
	b := New()
	// Qualities: 1.2, 1.0, 1.1 — best must be 1.0.
	for i, o := range []*Offer{
		offer(1, 1, "120", "100"),
		offer(2, 1, "100", "100"),
		offer(3, 1, "110", "100"),
	} {
		if err := b.Place(o); err != nil {
			t.Fatalf("offer %d: %v", i, err)
		}
	}
	best := bestOffer(b, usdEUR())
	if best == nil || best.Owner != acct(2) {
		t.Fatalf("best offer = %+v, want owner 2 at quality 1.0", best)
	}
	if b.Depth(usdEUR()) != 3 {
		t.Errorf("depth = %d, want 3", b.Depth(usdEUR()))
	}
	if bestOffer(b, Pair{Pays: amount.EUR, Gets: amount.USD}) != nil {
		t.Error("reverse book should be empty")
	}
}

func TestPlaceValidation(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "0", "100")); err == nil {
		t.Error("zero pays accepted")
	}
	if err := b.Place(offer(1, 1, "100", "0")); err == nil {
		t.Error("zero gets accepted")
	}
	same := &Offer{Owner: acct(1), Seq: 1,
		Pays: amount.MustAmount("1/USD"), Gets: amount.MustAmount("1/USD")}
	if err := b.Place(same); err == nil {
		t.Error("same-currency offer accepted")
	}
	if err := b.Place(offer(1, 7, "100", "100")); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(offer(1, 7, "50", "50")); err == nil {
		t.Error("duplicate (owner, seq) accepted")
	}
}

func TestCancel(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 5, "100", "100")); err != nil {
		t.Fatal(err)
	}
	if !b.Cancel(acct(1), 5) {
		t.Error("cancel of standing offer reported false")
	}
	if b.Cancel(acct(1), 5) {
		t.Error("double cancel reported true")
	}
	if b.Depth(usdEUR()) != 0 || b.NumOffers() != 0 {
		t.Error("cancelled offer still standing")
	}
}

func TestQuoteBuyFullFill(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "110", "100")); err != nil { // quality 1.1
		t.Fatal(err)
	}
	if err := b.Place(offer(2, 1, "100", "100")); err != nil { // quality 1.0
		t.Fatal(err)
	}
	q, err := quoteBuy(b, usdEUR(), amount.MustParse("150"))
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalGets.String() != "150" {
		t.Errorf("TotalGets = %s, want 150", q.TotalGets)
	}
	// 100 at 1.0 plus 50 at 1.1 = 155.
	if q.TotalPays.String() != "155" {
		t.Errorf("TotalPays = %s, want 155", q.TotalPays)
	}
	if len(q.Fills) != 2 {
		t.Fatalf("fills = %d, want 2", len(q.Fills))
	}
	if q.Fills[0].Offer.Owner != acct(2) {
		t.Error("best offer not consumed first")
	}
	// Quote must not mutate.
	if bestOffer(b, usdEUR()).Gets.Value.String() != "100" {
		t.Error("QuoteBuy mutated the book")
	}
}

func TestQuotePartialLiquidity(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "50", "50")); err != nil {
		t.Fatal(err)
	}
	q, err := quoteBuy(b, usdEUR(), amount.MustParse("200"))
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalGets.String() != "50" {
		t.Errorf("TotalGets = %s, want 50 (partial)", q.TotalGets)
	}
	// Empty book quotes zero.
	empty, err := quoteBuy(b, Pair{Pays: amount.BTC, Gets: amount.USD}, amount.MustParse("1"))
	if err != nil {
		t.Fatal(err)
	}
	if !empty.TotalGets.IsZero() || len(empty.Fills) != 0 {
		t.Errorf("empty book quote = %+v", empty)
	}
	if _, err := quoteBuy(b, usdEUR(), amount.Zero); err == nil {
		t.Error("zero-amount quote accepted")
	}
}

func TestApplyConsumesOffers(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "100", "100")); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(offer(2, 1, "220", "200")); err != nil {
		t.Fatal(err)
	}
	q, err := quoteBuy(b, usdEUR(), amount.MustParse("150"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(q); err != nil {
		t.Fatal(err)
	}
	// First offer fully consumed and removed; second reduced to 150 gets.
	if len(b.byOwner[acct(1)]) != 0 {
		t.Error("fully consumed offer still standing")
	}
	rest := bestOffer(b, usdEUR())
	if rest == nil || rest.Owner != acct(2) {
		t.Fatal("remaining offer missing")
	}
	if rest.Gets.Value.String() != "150" {
		t.Errorf("remaining gets = %s, want 150", rest.Gets.Value)
	}
	if rest.Pays.Value.String() != "165" {
		t.Errorf("remaining pays = %s, want 165", rest.Pays.Value)
	}
	// Quality unchanged by proportional fill.
	if rest.quality.String() != "1.1" {
		t.Errorf("quality after partial fill = %s, want 1.1", rest.quality)
	}
}

func TestApplyStaleQuote(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "100", "100")); err != nil {
		t.Fatal(err)
	}
	q, err := quoteBuy(b, usdEUR(), amount.MustParse("10"))
	if err != nil {
		t.Fatal(err)
	}
	b.Cancel(acct(1), 1)
	if err := b.Apply(q); err == nil {
		t.Error("stale quote applied")
	}
}

func TestConservationUnderFills(t *testing.T) {
	// Property: across any sequence of quote/apply, the taker's pays and
	// gets per fill respect the offer's quality.
	r := rand.New(rand.NewSource(7))
	b := New()
	for i := 0; i < 20; i++ {
		pays := int64(r.Intn(500) + 50)
		gets := int64(r.Intn(500) + 50)
		o := &Offer{
			Owner: acct(uint64(i)),
			Seq:   uint32(i),
			Pays:  amount.New(amount.USD, amount.FromInt64(pays)),
			Gets:  amount.New(amount.EUR, amount.FromInt64(gets)),
		}
		if err := b.Place(o); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 30 && b.NumOffers() > 0; round++ {
		want := amount.FromInt64(int64(r.Intn(200) + 1))
		q, err := quoteBuy(b, usdEUR(), want)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range q.Fills {
			// f.Pays / f.Gets must equal the offer's quality within
			// rounding (1 part in 1e12).
			ratio, err := f.Pays.Div(f.Gets)
			if err != nil {
				t.Fatal(err)
			}
			diff, err := ratio.Sub(f.Offer.quality)
			if err != nil {
				t.Fatal(err)
			}
			if diff.IsNegative() {
				diff = diff.Neg()
			}
			rel, err := diff.Div(f.Offer.quality)
			if err != nil {
				t.Fatal(err)
			}
			if rel.Cmp(amount.MustValue(1, -12)) > 0 {
				t.Fatalf("fill ratio %s deviates from quality %s", ratio, f.Offer.quality)
			}
		}
		if err := b.Apply(q); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRemoveOwner(t *testing.T) {
	b := New()
	for i := uint32(0); i < 5; i++ {
		if err := b.Place(offer(1, i, "100", "100")); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Place(offer(2, 0, "100", "100")); err != nil {
		t.Fatal(err)
	}
	if n := b.RemoveOwner(acct(1)); n != 5 {
		t.Errorf("RemoveOwner removed %d, want 5", n)
	}
	if b.NumOffers() != 1 {
		t.Errorf("offers remaining = %d, want 1", b.NumOffers())
	}
	if len(b.byOwner[acct(1)]) != 0 {
		t.Error("owner still has offers after removal")
	}
}

func TestOwnersIteration(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "10", "10")); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(offer(1, 2, "10", "10")); err != nil {
		t.Fatal(err)
	}
	if err := b.Place(offer(2, 1, "10", "10")); err != nil {
		t.Fatal(err)
	}
	got := make(map[addr.AccountID]int)
	b.Owners(func(o addr.AccountID, n int) { got[o] = n })
	if got[acct(1)] != 2 || got[acct(2)] != 1 {
		t.Errorf("owners = %v", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "100", "100")); err != nil {
		t.Fatal(err)
	}
	cp := b.Clone()
	q, err := quoteBuy(cp, usdEUR(), amount.MustParse("100"))
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.Apply(q); err != nil {
		t.Fatal(err)
	}
	if cp.NumOffers() != 0 {
		t.Error("clone not fully consumed")
	}
	if b.NumOffers() != 1 {
		t.Error("original book mutated through clone")
	}
}

func TestPairsIteration(t *testing.T) {
	b := New()
	if err := b.Place(offer(1, 1, "10", "10")); err != nil {
		t.Fatal(err)
	}
	xrpBTC := &Offer{Owner: acct(3), Seq: 9,
		Pays: amount.MustAmount("100/XRP"), Gets: amount.MustAmount("0.01/BTC")}
	if err := b.Place(xrpBTC); err != nil {
		t.Fatal(err)
	}
	pairs := make(map[Pair]int)
	b.Pairs(func(p Pair, n int) { pairs[p] = n })
	if len(pairs) != 2 {
		t.Errorf("pairs = %v, want 2 books", pairs)
	}
	if pairs[Pair{Pays: amount.XRP, Gets: amount.BTC}] != 1 {
		t.Error("XRP→BTC book missing")
	}
}
