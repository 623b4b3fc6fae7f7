package orderbook

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ripplestudy/internal/amount"
)

// TestRestoreOffersMatchesPlace holds the bulk restore against live
// placement: offers placed one at a time through Place (most of them at
// a handful of qualities, so the stamp breaks many ties), thinned by
// cancels and partial fills, and then restored from their (offer, stamp)
// set in shuffled order. Every book must hold the same offers in the
// same order, and every quote must be identical.
func TestRestoreOffersMatchesPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	currencies := []amount.Currency{amount.USD, amount.EUR, amount.BTC, amount.CNY}
	prices := []string{"0.5", "1", "1.1", "2", "3.25"} // pays per unit of gets
	sizes := []string{"10", "20", "40", "75"}
	live := New()
	nextSeq := map[uint64]uint32{}
	for i := 0; i < 1500; i++ {
		owner := uint64(rng.Intn(40))
		nextSeq[owner]++
		pays, gets := currencies[rng.Intn(len(currencies))], currencies[rng.Intn(len(currencies))]
		if pays == gets {
			continue
		}
		size := amount.MustParse(sizes[rng.Intn(len(sizes))])
		price := amount.MustParse(prices[rng.Intn(len(prices))])
		paysVal, err := size.Mul(price)
		if err != nil {
			t.Fatal(err)
		}
		o := &Offer{Owner: acct(owner), Seq: nextSeq[owner],
			Pays: amount.New(pays, paysVal), Gets: amount.New(gets, size)}
		if err := live.Place(o); err != nil {
			t.Fatal(err)
		}
		switch rng.Intn(10) {
		case 0: // cancel a standing offer of this owner
			live.Cancel(acct(owner), uint32(1+rng.Intn(int(nextSeq[owner]))))
		case 1: // a taker partly drains this book
			pair := Pair{Pays: pays, Gets: gets}
			q, err := quoteBuy(live, pair, amount.MustParse(sizes[rng.Intn(len(sizes))]))
			if err != nil {
				t.Fatal(err)
			}
			if err := live.Apply(q); err != nil {
				t.Fatal(err)
			}
		}
	}

	var offers []*Offer
	var stamps []uint64
	live.Each(func(o *Offer) {
		offers = append(offers, &Offer{Owner: o.Owner, Seq: o.Seq, Pays: o.Pays, Gets: o.Gets})
		stamps = append(stamps, o.Stamp())
	})
	rng.Shuffle(len(offers), func(i, j int) {
		offers[i], offers[j] = offers[j], offers[i]
		stamps[i], stamps[j] = stamps[j], stamps[i]
	})
	restored := New()
	if err := restored.RestoreOffers(offers, stamps); err != nil {
		t.Fatal(err)
	}
	if restored.StampCounter() != slices.Max(stamps) {
		t.Fatalf("stamp counter %d after restore, largest stamp %d", restored.StampCounter(), slices.Max(stamps))
	}
	restored.RestoreStampCounter(live.StampCounter())

	if restored.NumOffers() != live.NumOffers() || len(restored.byPair) != len(live.byPair) {
		t.Fatalf("restored %d offers in %d books, live %d in %d",
			restored.NumOffers(), len(restored.byPair), live.NumOffers(), len(live.byPair))
	}
	ties := 0
	var want, got Quote
	for pair, bk := range live.byPair {
		rbk := restored.byPair[pair]
		if rbk == nil || len(rbk.offers) != len(bk.offers) {
			t.Fatalf("%s: restored book differs in depth", pair)
		}
		for i, o := range bk.offers {
			r := rbk.offers[i]
			if r.Owner != o.Owner || r.Seq != o.Seq || r.Stamp() != o.Stamp() {
				t.Fatalf("%s[%d]: restored %s/%d@%d, live %s/%d@%d",
					pair, i, r.Owner.Short(), r.Seq, r.Stamp(), o.Owner.Short(), o.Seq, o.Stamp())
			}
			if i > 0 && o.quality.Cmp(bk.offers[i-1].quality) == 0 {
				ties++
			}
		}
		for _, s := range []string{"1", "15", "60", "250", "100000"} {
			if err := live.QuoteBuyInto(pair, amount.MustParse(s), &want); err != nil {
				t.Fatal(err)
			}
			if err := restored.QuoteBuyInto(pair, amount.MustParse(s), &got); err != nil {
				t.Fatal(err)
			}
			if got.TotalPays.Cmp(want.TotalPays) != 0 || got.TotalGets.Cmp(want.TotalGets) != 0 || len(got.Fills) != len(want.Fills) {
				t.Fatalf("%s for %s: restored quote %s for %s in %d fills, live %s for %s in %d",
					pair, s, got.TotalPays, got.TotalGets, len(got.Fills), want.TotalPays, want.TotalGets, len(want.Fills))
			}
			for i, f := range want.Fills {
				g := got.Fills[i]
				if g.Offer.Owner != f.Offer.Owner || g.Offer.Seq != f.Offer.Seq || g.Pays.Cmp(f.Pays) != 0 || g.Gets.Cmp(f.Gets) != 0 {
					t.Fatalf("%s for %s: fill %d differs", pair, s, i)
				}
			}
		}
	}
	if ties < 100 {
		t.Fatalf("only %d equal-quality neighbours: the stamp tie-break is barely exercised", ties)
	}

	// The next placement is stamped as the live set would stamp it.
	a, b := offer(900, 1, "5", "5"), offer(900, 1, "5", "5")
	if err := live.Place(a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Place(b); err != nil {
		t.Fatal(err)
	}
	if a.Stamp() != b.Stamp() {
		t.Fatalf("next placement stamped %d after restore, %d live", b.Stamp(), a.Stamp())
	}
}

// TestRestoreOffersRejects lists every set RestoreOffers refuses.
func TestRestoreOffersRejects(t *testing.T) {
	same := &Offer{Owner: acct(1), Seq: 2,
		Pays: amount.MustAmount("1/USD"), Gets: amount.MustAmount("1/USD")}
	for _, tc := range []struct {
		name   string
		books  func() *Books
		offers []*Offer
		stamps []uint64
		want   string
	}{
		{"zero stamp", New, []*Offer{offer(1, 1, "1", "1"), offer(1, 2, "1", "1")}, []uint64{1, 0}, "no stamp"},
		{"same currency", New, []*Offer{offer(1, 1, "1", "1"), same}, []uint64{1, 2}, "against itself"},
		{"zero pays", New, []*Offer{offer(1, 1, "0", "1")}, []uint64{1}, "must be positive"},
		{"negative gets", New, []*Offer{offer(1, 1, "1", "-1")}, []uint64{1}, "must be positive"},
		{"duplicate owner and seq", New, []*Offer{offer(1, 1, "1", "1"), offer(1, 1, "2", "1")}, []uint64{1, 2}, "duplicate offer"},
		{"stamps of another length", New, []*Offer{offer(1, 1, "1", "1")}, []uint64{1, 2}, "under 2 stamps"},
		{"non-empty book set", func() *Books {
			b := New()
			if err := b.Place(offer(2, 1, "1", "1")); err != nil {
				t.Fatal(err)
			}
			return b
		}, []*Offer{offer(1, 1, "1", "1")}, []uint64{5}, "of 1 offers"},
	} {
		err := tc.books().RestoreOffers(tc.offers, tc.stamps)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one that says %q", tc.name, err, tc.want)
		}
	}
}
