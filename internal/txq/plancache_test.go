package txq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
)

func val(s string) amount.Value { return amount.MustParse(s) }

func usd(s string) amount.Amount { return amount.New(amount.USD, val(s)) }

// figure1Engines builds the paper's Figure 1 trust topology (a trusts b
// for 100 USD, b trusts c for 100 USD, so c can pay a through b) twice:
// one engine for the front door, one identical reference for fresh
// differential quotes. Both are driven by the same transactions, so
// their state — and every deterministic search over it — matches.
func figure1Engines(t testing.TB) (live, ref *payment.Engine, a, b, c addr.AccountID) {
	t.Helper()
	a, b, c = acct(1), acct(2), acct(3)
	build := func() *payment.Engine {
		eng := payment.NewEngine()
		for _, id := range []addr.AccountID{a, b, c} {
			eng.Fund(id, 100_000_000)
		}
		trust := func(truster, trustee addr.AccountID) {
			tx := &ledger.Tx{
				Type:      ledger.TxTrustSet,
				Account:   truster,
				Sequence:  eng.NextSequence(truster),
				Fee:       10,
				LimitPeer: trustee,
				Limit:     usd("100"),
			}
			meta, err := eng.Apply(tx)
			if err != nil || !meta.Result.Succeeded() {
				t.Fatalf("trust set: %v %v", err, meta)
			}
		}
		trust(a, b)
		trust(b, c)
		return eng
	}
	return build(), build(), a, b, c
}

// freshQuote computes the reference answer with a plain finder over the
// reference engine.
func freshQuote(t testing.TB, eng *payment.Engine, src, dst addr.AccountID, deliver amount.Amount) *pathfind.Plan {
	t.Helper()
	f := pathfind.New(eng.Graph(), eng.Books())
	plan, err := f.FindPayment(src, dst, deliver.Currency, deliver)
	if err != nil {
		t.Fatalf("reference quote: %v", err)
	}
	return plan
}

// TestPlanCacheDifferential pins cached quotes == fresh Finder results
// across trust-graph epochs: a hit must replay the exact liquidity a
// fresh search would compute, an applied payment that mutates a
// trustline on the cached path must invalidate the entry, and an
// unrelated mutation (advancing the epoch without touching the path)
// must NOT.
func TestPlanCacheDifferential(t *testing.T) {
	live, ref, a, _, c := figure1Engines(t)
	d, e := acct(8), acct(9)
	live.Fund(d, 1_000_000) // before New: the front door owns the engine afterwards
	fd := New(live, Options{QueueDepth: 16, Backpressure: true})
	defer fd.Close()

	deliver := usd("10")

	// Cold quote, then a cache hit; both must equal the fresh reference.
	q1, err := fd.PathFind(c, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Cached {
		t.Fatal("first quote served from an empty cache")
	}
	q2, err := fd.PathFind(c, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.Cached {
		t.Fatal("second identical quote missed the cache")
	}
	if st := fd.StatsNow(); st.CacheHits != 1 {
		t.Fatalf("stats count %d cache hits after one hit", st.CacheHits)
	}
	want := freshQuote(t, ref, c, a, deliver)
	for _, q := range []Quote{q1, q2} {
		if !q.Found || q.Delivered.Cmp(want.Delivered) != 0 || q.SourceCost.Cmp(want.SourceCost) != 0 {
			t.Fatalf("quote %+v != fresh finder (delivered %s cost %s)", q, want.Delivered, want.SourceCost)
		}
	}

	// Apply a payment that consumes trust on the cached path (c→a moves
	// value over both trustlines). The cache entry's read set includes
	// those accounts, so the NEXT quote must be recomputed — and must
	// match a fresh search over the mutated reference state.
	pay := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     c,
		Sequence:    0, // auto
		Fee:         10,
		Destination: a,
		Amount:      usd("4"),
	}
	tk, err := fd.Submit(pay)
	if err != nil {
		t.Fatal(err)
	}
	st, err := tk.Wait(context.Background())
	if err != nil || !st.Succeeded {
		t.Fatalf("payment on cached path: %v %+v", err, st)
	}
	refPay := *pay
	refPay.Sequence = ref.NextSequence(c)
	if meta, err := ref.Apply(&refPay); err != nil || !meta.Result.Succeeded() {
		t.Fatalf("reference payment: %v %v", err, meta)
	}

	q3, err := fd.PathFind(c, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if q3.Cached {
		t.Fatal("quote after an on-path mutation served stale from the cache")
	}
	if q3.Epoch <= q1.Epoch {
		t.Fatalf("epoch did not advance past the applied batch (was %d, now %d)", q1.Epoch, q3.Epoch)
	}
	want3 := freshQuote(t, ref, c, a, deliver)
	if !q3.Found || q3.Delivered.Cmp(want3.Delivered) != 0 || q3.SourceCost.Cmp(want3.SourceCost) != 0 {
		t.Fatalf("post-mutation quote %+v != fresh finder (delivered %s)", q3, want3.Delivered)
	}

	// An unrelated trust-line mutation advances the epoch but touches
	// nothing in the entry's read set: the cached q3 stays valid across
	// the epoch boundary.
	unrelated := &ledger.Tx{
		Type:      ledger.TxTrustSet,
		Account:   d,
		Sequence:  0,
		Fee:       10,
		LimitPeer: e,
		Limit:     usd("5"),
	}
	tk2, err := fd.Submit(unrelated)
	if err != nil {
		t.Fatal(err)
	}
	if st2, err := tk2.Wait(context.Background()); err != nil || !st2.Succeeded {
		t.Fatalf("unrelated trust set: %v %+v", err, st2)
	}
	q4, err := fd.PathFind(c, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if !q4.Cached {
		t.Fatal("unrelated mutation invalidated an untouched cache entry (epoch-keyed instead of read-set-keyed)")
	}
	if q4.Delivered.Cmp(want3.Delivered) != 0 {
		t.Fatalf("cached quote drifted: %s != %s", q4.Delivered, want3.Delivered)
	}
	if fd.Epoch() <= q3.Epoch {
		t.Fatal("unrelated mutation did not advance the epoch")
	}
}

// TestPlanCacheNegativeQuoteInvalidation pins the "no path" case: a
// cached PathDry answer must be invalidated when a trust line CREATES
// the path (the failed search's read set records the endpoints it
// probed).
func TestPlanCacheNegativeQuoteInvalidation(t *testing.T) {
	eng := payment.NewEngine()
	a, b := acct(1), acct(2)
	eng.Fund(a, 100_000_000)
	eng.Fund(b, 100_000_000)
	fd := New(eng, Options{QueueDepth: 16, Backpressure: true})
	defer fd.Close()

	deliver := usd("5")
	q1, err := fd.PathFind(b, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if q1.Found {
		t.Fatal("found a path in an empty trust graph")
	}
	if q, err := fd.PathFind(b, a, amount.USD, deliver); err != nil || !q.Cached {
		t.Fatalf("negative quote not cached: %+v %v", q, err)
	}

	// a trusts b → b can now pay a directly.
	trust := &ledger.Tx{
		Type: ledger.TxTrustSet, Account: a, Sequence: 0, Fee: 10,
		LimitPeer: b, Limit: usd("50"),
	}
	tk, err := fd.Submit(trust)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := tk.Wait(context.Background()); err != nil || !st.Succeeded {
		t.Fatalf("trust set: %v %+v", err, st)
	}
	q2, err := fd.PathFind(b, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	if q2.Cached {
		t.Fatal("stale negative quote served after the path was created")
	}
	if !q2.Found || q2.Delivered.Cmp(val("5")) != 0 {
		t.Fatalf("quote after trust creation = %+v, want 5 USD deliverable", q2)
	}
}

// TestPlanCacheInvalidatesOnlyWhatChanged pins the invalidation rule to
// what a transaction actually mutated: a cached quote goes when a
// transaction changes a trust line or a book its search read, and stays
// when a transaction touching the same accounts changed nothing a
// search reads — it failed, cancelled nothing, or moved only XRP
// balances. After every case the quote must equal a fresh search over a
// reference engine driven by the same transactions.
func TestPlanCacheInvalidatesOnlyWhatChanged(t *testing.T) {
	live, ref, a, b, c := figure1Engines(t)
	mm := acct(7)
	live.Fund(mm, 100_000_000) // before New: the front door owns the engine afterwards
	ref.Fund(mm, 100_000_000)
	fd := New(live, Options{QueueDepth: 16, Backpressure: true})
	defer fd.Close()

	// apply submits tx auto-sequenced and mirrors it on the reference.
	apply := func(tx ledger.Tx) TxStatus {
		t.Helper()
		tx.Fee = 10
		tk, err := fd.Submit(&tx)
		if err != nil {
			t.Fatal(err)
		}
		st, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		tx.Sequence = ref.NextSequence(tx.Account)
		meta, err := ref.Apply(&tx)
		if err != nil || meta.Result.Succeeded() != st.Succeeded {
			t.Fatalf("reference apply: %v %v, front door %+v", err, meta, st)
		}
		return st
	}

	// c pays a 10 USD, funded in USD over the Figure 1 trust path or in
	// XRP through the XRP→USD book.
	deliver := usd("10")
	var offerSeq uint32
	for _, tc := range []struct {
		name     string
		srcCur   amount.Currency
		tx       ledger.Tx
		succeeds bool
		wantDrop bool
	}{
		{"trustset-succeeds", amount.USD,
			ledger.Tx{Type: ledger.TxTrustSet, Account: a, LimitPeer: b, Limit: usd("200")}, true, true},
		{"trustset-fails", amount.USD,
			ledger.Tx{Type: ledger.TxTrustSet, Account: a, LimitPeer: b, Limit: usd("-5")}, false, false},
		{"xrp-payment-from-read-set", amount.USD,
			ledger.Tx{Type: ledger.TxPayment, Account: c, Destination: a, Amount: amount.XRPAmount(1_000_000)}, true, false},
		{"offercreate-on-probed-pair", amount.XRP,
			ledger.Tx{Type: ledger.TxOfferCreate, Account: mm, TakerPays: amount.XRPAmount(5_000_000), TakerGets: usd("50")}, true, true},
		{"offercancel-missing", amount.XRP,
			ledger.Tx{Type: ledger.TxOfferCancel, Account: mm, OfferSequence: 9999}, true, false},
		{"offercancel-standing", amount.XRP,
			ledger.Tx{Type: ledger.TxOfferCancel, Account: mm}, true, true},
	} {
		if q, err := fd.PathFind(c, a, tc.srcCur, deliver); err != nil {
			t.Fatal(err)
		} else if q, err = fd.PathFind(c, a, tc.srcCur, deliver); err != nil || !q.Cached {
			t.Fatalf("%s: quote not cached before the transaction: %+v %v", tc.name, q, err)
		}

		if tc.tx.Type == ledger.TxOfferCancel && tc.tx.OfferSequence == 0 {
			tc.tx.OfferSequence = offerSeq
		}
		st := apply(tc.tx)
		if st.Succeeded != tc.succeeds {
			t.Fatalf("%s: succeeded = %v, want %v (%s)", tc.name, st.Succeeded, tc.succeeds, st.Result)
		}
		if tc.tx.Type == ledger.TxOfferCreate {
			offerSeq = st.Sequence
		}

		q, err := fd.PathFind(c, a, tc.srcCur, deliver)
		if err != nil {
			t.Fatal(err)
		}
		if q.Cached == tc.wantDrop {
			t.Errorf("%s: cached = %v after the transaction, want %v", tc.name, q.Cached, !tc.wantDrop)
		}
		f := pathfind.New(ref.Graph(), ref.Books())
		plan, err := f.FindPayment(c, a, tc.srcCur, deliver)
		if err != nil && !errors.Is(err, pathfind.ErrNoPath) {
			t.Fatal(err)
		}
		if q.Found != (err == nil) {
			t.Fatalf("%s: quote found = %v, fresh search err = %v", tc.name, q.Found, err)
		}
		if q.Found && (q.Delivered.Cmp(plan.Delivered) != 0 || q.SourceCost.Cmp(plan.SourceCost) != 0) {
			t.Fatalf("%s: quote %+v != fresh finder (delivered %s cost %s)", tc.name, q, plan.Delivered, plan.SourceCost)
		}
	}
}

// TestPlanCacheConcurrentQuotesAndSubmissions races quote readers
// against the applier under -race: every quote must be coherent (either
// the pre- or post-mutation liquidity, never a torn value) and the final
// drained quote must equal a fresh reference search.
func TestPlanCacheConcurrentQuotesAndSubmissions(t *testing.T) {
	live, ref, a, _, c := figure1Engines(t)
	fd := New(live, Options{QueueDepth: 64, Backpressure: true})

	deliver := usd("2")
	var wg sync.WaitGroup
	stopQuotes := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopQuotes:
					return
				default:
				}
				if _, err := fd.PathFind(c, a, amount.USD, deliver); err != nil {
					t.Errorf("concurrent quote: %v", err)
					return
				}
			}
		}()
	}

	// Ten small payments over the quoted path, mirrored on the reference
	// engine afterwards.
	for i := 0; i < 10; i++ {
		pay := &ledger.Tx{
			Type: ledger.TxPayment, Account: c, Sequence: 0, Fee: 10,
			Destination: a, Amount: usd("1"),
		}
		tk, err := fd.Submit(pay)
		if err != nil {
			t.Fatal(err)
		}
		if st, err := tk.Wait(context.Background()); err != nil || !st.Succeeded {
			t.Fatalf("payment %d: %v %+v", i, err, st)
		}
	}
	close(stopQuotes)
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := fd.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		pay := &ledger.Tx{
			Type: ledger.TxPayment, Account: c, Sequence: ref.NextSequence(c), Fee: 10,
			Destination: a, Amount: usd("1"),
		}
		if meta, err := ref.Apply(pay); err != nil || !meta.Result.Succeeded() {
			t.Fatalf("reference payment %d: %v %v", i, err, meta)
		}
	}
	got, err := fd.PathFind(c, a, amount.USD, deliver)
	if err != nil {
		t.Fatal(err)
	}
	want := freshQuote(t, ref, c, a, deliver)
	if !got.Found || got.Delivered.Cmp(want.Delivered) != 0 {
		t.Fatalf("final quote %+v != fresh reference (delivered %s)", got, want.Delivered)
	}
	fd.Close()
}

// TestPlanCacheEviction pins FIFO capacity eviction.
func TestPlanCacheEviction(t *testing.T) {
	c := newPlanCache(2)
	mk := func(i uint64) quoteKey {
		return quoteKey{src: acct(i), dst: acct(i + 100), srcCur: amount.USD, dstCur: amount.USD, deliver: val("1")}
	}
	var rs pathfind.ReadSet
	rs.Accounts = append(rs.Accounts, acct(1))
	c.put(mk(1), Quote{Found: true}, rs)
	c.put(mk(2), Quote{Found: true}, rs)
	c.put(mk(3), Quote{Found: true}, rs) // evicts mk(1)
	if _, ok := c.get(mk(1)); ok {
		t.Error("oldest entry not evicted")
	}
	if _, ok := c.get(mk(3)); !ok {
		t.Error("newest entry missing")
	}
	_, _, _, evicted, size := c.statsNow()
	if evicted != 1 || size != 2 {
		t.Errorf("evicted=%d size=%d, want 1/2", evicted, size)
	}
}
