package replay

import (
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/payment"
)

// sameResult asserts two replay results are bit-identical.
func sameResult(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if got.Cross != want.Cross {
		t.Errorf("%s: cross row = %+v, want %+v", label, got.Cross, want.Cross)
	}
	if got.Single != want.Single {
		t.Errorf("%s: single row = %+v, want %+v", label, got.Single, want.Single)
	}
	if got.RemovedMarketMakers != want.RemovedMarketMakers {
		t.Errorf("%s: removed MMs = %d, want %d", label, got.RemovedMarketMakers, want.RemovedMarketMakers)
	}
	if got.SnapshotSeq != want.SnapshotSeq {
		t.Errorf("%s: snapshot seq = %d, want %d", label, got.SnapshotSeq, want.SnapshotSeq)
	}
	if got.StateDigest != want.StateDigest {
		t.Errorf("%s: state digest differs", label)
	}
	if got.StateRoot != want.StateRoot {
		t.Errorf("%s: sealed state root differs", label)
	}
	if got.StateRoot.IsZero() {
		t.Errorf("%s: sealed state root is zero", label)
	}
}

// TestRunStoreMatchesSlice replays the same history from a disk store
// (exercising the segment sequence index / PagesRangeRecycled path) and from
// memory; the two must agree.
func TestRunStoreMatchesSlice(t *testing.T) {
	pages, _ := generate(t, 2000, 8)
	snap := pages[len(pages)*7/10].Header.Sequence

	dir := t.TempDir()
	store, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := RunOpts(FromPages(pages), snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := RunOpts(store, snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, fromStore, "store")
}

// hist drives a real engine to produce a consistent crafted history:
// each submitted transaction is applied immediately, so sequences,
// funding, and metadata always match what replay's BuildState will see.
type hist struct {
	t     *testing.T
	eng   *payment.Engine
	pages []*ledger.Page
	seq   uint64
	txs   []*ledger.Tx
	metas []*ledger.TxMeta
}

func newHist(t *testing.T) *hist {
	return &hist{t: t, eng: payment.NewEngine()}
}

func (h *hist) submit(mutate func(*ledger.Tx)) *ledger.TxMeta {
	h.t.Helper()
	tx := &ledger.Tx{Fee: payment.BaseFee}
	mutate(tx)
	tx.Sequence = h.eng.NextSequence(tx.Account)
	meta, err := h.eng.Apply(tx)
	if err != nil {
		h.t.Fatalf("hist apply: %v", err)
	}
	h.txs = append(h.txs, tx)
	h.metas = append(h.metas, meta)
	return meta
}

// close seals the pending transactions into the next page.
func (h *hist) close() uint64 {
	h.seq++
	h.pages = append(h.pages, &ledger.Page{
		Header: ledger.PageHeader{Sequence: h.seq},
		Txs:    h.txs,
		Metas:  h.metas,
	})
	h.txs, h.metas = nil, nil
	return h.seq
}

func (h *hist) fund(a addr.AccountID, drops amount.Drops) {
	h.t.Helper()
	meta := h.submit(func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Account = addr.AccountZero
		tx.Destination = a
		tx.Amount = amount.XRPAmount(drops)
	})
	if !meta.Result.Succeeded() {
		h.t.Fatalf("funding failed: %s", meta.Result)
	}
}

func (h *hist) trust(truster, trustee addr.AccountID, cur amount.Currency, limit string) {
	h.t.Helper()
	meta := h.submit(func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.Account = truster
		tx.LimitPeer = trustee
		tx.Limit = amount.New(cur, amount.MustParse(limit))
	})
	if !meta.Result.Succeeded() {
		h.t.Fatalf("trust set failed: %s", meta.Result)
	}
}

func (h *hist) pay(from, to addr.AccountID, cur amount.Currency, v string) *ledger.TxMeta {
	h.t.Helper()
	return h.submit(func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Account = from
		tx.Destination = to
		tx.Amount = amount.New(cur, amount.MustParse(v))
	})
}

func acct(b byte) addr.AccountID { return addr.AccountID{b} }

// TestReplaySourceCreatedAfterSnapshot covers a payment whose sender
// account only comes into existence after the snapshot: the funding is
// a direct XRP transfer (excluded from replay), so the replayed payment
// must fail cleanly as unfunded — counted submitted, not delivered.
func TestReplaySourceCreatedAfterSnapshot(t *testing.T) {
	eur := amount.MustCurrency("EUR")
	alice, bob, dave := acct(1), acct(2), acct(3)

	h := newHist(t)
	h.fund(alice, 1_000_000_000)
	h.fund(bob, 1_000_000_000)
	h.trust(bob, alice, eur, "100")
	snap := h.close()

	// Post-snapshot: dave is born, gets trusted, and pays.
	h.fund(dave, 1_000_000_000) // direct XRP: not replayed
	h.trust(bob, dave, eur, "100")
	if m := h.pay(dave, bob, eur, "40"); !m.Result.Succeeded() {
		t.Fatalf("dave's payment failed in history: %s", m.Result)
	}
	// A control payment from a pre-snapshot account still delivers.
	if m := h.pay(alice, bob, eur, "30"); !m.Result.Succeeded() {
		t.Fatalf("alice's payment failed in history: %s", m.Result)
	}
	h.close()

	want, err := RunOpts(FromPages(h.pages), snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want.Single.Submitted != 2 {
		t.Fatalf("submitted = %d, want 2", want.Single.Submitted)
	}
	if want.Single.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (dave unborn, alice fine)", want.Single.Delivered)
	}
}
