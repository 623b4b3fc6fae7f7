package payment

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
)

// optimisticWorld builds a small, densely connected state: ten users and
// three makers holding trust lines to one another in USD and EUR, makers
// quoting EUR/USD and XRP/USD both ways, and one account too poor to pay
// more than two fees.
func optimisticWorld(t *testing.T, rng *rand.Rand) (*Engine, []addr.AccountID) {
	t.Helper()
	e := NewEngine()
	var accts []addr.AccountID
	for i := uint64(1); i <= 13; i++ {
		a := kp(i).AccountID()
		accts = append(accts, a)
		e.Fund(a, 1_000_000_000)
	}
	poor := kp(14).AccountID()
	e.Fund(poor, 25)
	apply := func(tx *ledger.Tx) {
		tx.Sequence, tx.Fee = e.NextSequence(tx.Account), BaseFee
		if meta, err := e.Apply(tx); err != nil || !meta.Result.Succeeded() {
			t.Fatalf("world setup: %v %v", err, meta)
		}
	}
	makers := accts[10:]
	for _, cur := range []amount.Currency{amount.USD, amount.EUR} {
		for i, a := range accts {
			for j, b := range accts {
				// Everyone deals with the makers (the last three); users
				// trust a third of each other.
				if a != b && (i >= 10 || j >= 10 || rng.Intn(3) == 0) {
					apply(&ledger.Tx{Type: ledger.TxTrustSet, Account: a, LimitPeer: b,
						Limit: amount.New(cur, amount.FromInt64(int64(40+rng.Intn(80))))})
				}
			}
		}
	}
	for _, m := range makers {
		for _, o := range [][2]amount.Amount{
			{amount.New(amount.EUR, val("45")), amount.New(amount.USD, val("50"))},
			{amount.New(amount.USD, val("55")), amount.New(amount.EUR, val("50"))},
			{amount.XRPAmount(40_000_000), amount.New(amount.USD, val("40"))},
			{amount.New(amount.USD, val("44")), amount.XRPAmount(40_000_000)},
		} {
			apply(&ledger.Tx{Type: ledger.TxOfferCreate, Account: m, TakerPays: o[0], TakerGets: o[1]})
		}
	}
	return e, append(accts, poor)
}

// optimisticWorkload draws n random transactions over the world and
// applies each to ref as it goes, so every transaction carries the
// sequence number sequential application expects and its TxMeta is the
// reference outcome.
func optimisticWorkload(rng *rand.Rand, ref *Engine, accts []addr.AccountID, n int) ([]*ledger.Tx, []*ledger.TxMeta) {
	type offerRef struct {
		owner addr.AccountID
		seq   uint32
	}
	var offers []offerRef
	ref.Books().Each(func(o *orderbook.Offer) { offers = append(offers, offerRef{o.Owner, o.Seq}) })
	sort.Slice(offers, func(i, j int) bool { // Each walks a map
		if c := bytes.Compare(offers[i].owner[:], offers[j].owner[:]); c != 0 {
			return c < 0
		}
		return offers[i].seq < offers[j].seq
	})
	iou := func(cur amount.Currency, lo, span int) amount.Amount {
		return amount.New(cur, amount.FromInt64(int64(lo+rng.Intn(span))))
	}
	other := map[amount.Currency]amount.Currency{amount.USD: amount.EUR, amount.EUR: amount.USD}
	txs := make([]*ledger.Tx, 0, n)
	metas := make([]*ledger.TxMeta, 0, n)
	var follow *ledger.Tx
	for len(txs) < n {
		from := accts[rng.Intn(len(accts))]
		to := accts[rng.Intn(len(accts))]
		cur := []amount.Currency{amount.USD, amount.EUR}[rng.Intn(2)]
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: BaseFee, Destination: to}
		switch k := rng.Intn(100); {
		case follow != nil:
			tx, follow = follow, nil
		case k < 12: // XRP, direct
			tx.Amount = amount.XRPAmount(amount.Drops(1 + rng.Intn(2_000_000)))
		case k < 45: // IOU over trust lines (to == from now and then: malformed)
			tx.Amount = iou(cur, 1, 15)
		case k < 65: // cross-currency through the EUR/USD books
			tx.Amount, tx.SendMax = iou(cur, 1, 12), iou(other[cur], 10, 20)
		case k < 70: // XRP in, IOU out
			tx.Amount, tx.SendMax = iou(amount.USD, 1, 10), amount.XRPAmount(30_000_000)
		case k < 75: // IOU in, XRP out
			tx.Amount, tx.SendMax = amount.XRPAmount(amount.Drops(1_000_000*(1+rng.Intn(8)))), iou(amount.USD, 15, 10)
		case k < 85:
			tx = &ledger.Tx{Type: ledger.TxTrustSet, Account: from, Fee: BaseFee, LimitPeer: to,
				Limit: iou(cur, 0, 150)}
			if rng.Intn(2) == 0 {
				// Use the line just set, up to its new limit, straight away: a
				// plan made before the TrustSet gets this one wrong.
				follow = &ledger.Tx{Type: ledger.TxPayment, Account: to, Fee: BaseFee, Destination: from,
					Amount: tx.Limit}
			}
		case k < 94:
			tx = &ledger.Tx{Type: ledger.TxOfferCreate, Account: from, Fee: BaseFee,
				TakerPays: iou(cur, 5, 30), TakerGets: iou(other[cur], 5, 30)}
			if rng.Intn(4) == 0 {
				tx.TakerPays = amount.XRPAmount(amount.Drops(1_000_000 * (5 + rng.Intn(30))))
			}
		default: // cancel a standing (or long gone, or never placed) offer
			tx = &ledger.Tx{Type: ledger.TxOfferCancel, Account: from, Fee: BaseFee, OfferSequence: 9999}
			if len(offers) > 0 && rng.Intn(8) != 0 {
				o := offers[rng.Intn(len(offers))]
				tx.Account, tx.OfferSequence = o.owner, o.seq
			}
		}
		tx.Sequence = ref.NextSequence(tx.Account)
		meta, err := ref.Apply(tx)
		if err != nil {
			panic(err)
		}
		if tx.Type == ledger.TxOfferCreate && meta.Result.Succeeded() {
			offers = append(offers, offerRef{tx.Account, tx.Sequence})
		}
		txs, metas = append(txs, tx), append(metas, meta)
	}
	return txs, metas
}

// TestOptimisticMatchesSequential drives the executor directly — no
// replay, no front door — over random mixes of every transaction type it
// marks dirt for, and holds each TxMeta, the final digest and the sealed
// state root against plain Engine.Apply, at every worker count, batch
// size, and with sequences both given and filled in.
func TestOptimisticMatchesSequential(t *testing.T) {
	var plannedAhead, conflicts, viaOffers int
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		base, accts := optimisticWorld(t, rng)
		ref := base.Clone()
		ref.EnableStateTree()
		txs, want := optimisticWorkload(rng, ref, accts, 700)
		wantRoot, err := ref.SealState()
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[string]int{}
		for i, m := range want {
			kinds[fmt.Sprintf("%s/%s", txs[i].Type, m.Result)]++
			if m.OffersConsumed > 0 {
				viaOffers++
			}
		}
		t.Logf("seed %d: %v", seed, kinds)

		// The same transactions with their sequences blanked, for the
		// runs that have the executor fill them in.
		blank := make([]*ledger.Tx, len(txs))
		for i, tx := range txs {
			c := *tx
			c.Sequence = 0
			blank[i] = &c
		}
		// Zero workers is the front door's configuration: Plan only opens
		// the batch and every payment is searched once, at commit.
		for _, workers := range []int{0, 1, 2, 4} {
			for _, batch := range []int{1, 7, 256} {
				for _, fill := range []bool{false, true} {
					name := fmt.Sprintf("seed %d workers %d batch %d fill %v", seed, workers, batch, fill)
					in := txs
					if fill {
						in = blank
					}
					eng := base.Clone()
					eng.EnableStateTree()
					x := NewOptimistic(eng, workers)
					for lo := 0; lo < len(in); lo += batch {
						chunk := in[lo:min(lo+batch, len(in))]
						x.Plan(chunk)
						for j := range chunk {
							applied, hash, meta, err := x.Commit(fill)
							if err != nil {
								t.Fatalf("%s: tx %d: %v", name, lo+j, err)
							}
							if applied.Hash() != txs[lo+j].Hash() {
								t.Fatalf("%s: tx %d applied as %+v, want %+v", name, lo+j, applied, txs[lo+j])
							}
							if hash != applied.Hash() {
								t.Fatalf("%s: tx %d (%s): Commit reports hash %s, the applied transaction hashes to %s",
									name, lo+j, meta.Result, hash.Short(), applied.Hash().Short())
							}
							if !reflect.DeepEqual(meta, want[lo+j]) {
								t.Fatalf("%s: tx %d (%s) meta %+v, want %+v", name, lo+j, applied.Type, meta, want[lo+j])
							}
						}
					}
					if got := eng.StateDigest(); got != ref.StateDigest() {
						t.Fatalf("%s: digest %s, want %s", name, got.Short(), ref.StateDigest().Short())
					}
					if root, err := eng.SealState(); err != nil || root != wantRoot {
						t.Fatalf("%s: state root %s (%v), want %s", name, root.Short(), err, wantRoot.Short())
					}
					if batch == 1 && x.Conflicts != 0 {
						t.Fatalf("%s: %d conflicts in batches of one", name, x.Conflicts)
					}
					if workers == 0 && (x.PlannedAhead != 0 || x.Conflicts != 0) {
						t.Fatalf("%s: planned ahead %d, conflicts %d with no planners", name, x.PlannedAhead, x.Conflicts)
					}
					plannedAhead += x.PlannedAhead
					conflicts += x.Conflicts
				}
			}
		}
	}
	if plannedAhead == 0 || conflicts == 0 || viaOffers == 0 {
		t.Fatalf("planned ahead %d, conflicts %d, payments through offers %d: the run must exercise all three",
			plannedAhead, conflicts, viaOffers)
	}
	t.Logf("planned ahead %d, conflicts %d", plannedAhead, conflicts)
}
