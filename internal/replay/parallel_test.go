package replay

import (
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/payment"
)

// sameResult asserts two replay results are bit-identical in everything
// but the informational pipeline Stats.
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
		t.Errorf("%s: state digest differs from sequential replay", label)
	}
	if got.StateRoot != want.StateRoot {
		t.Errorf("%s: sealed state root differs from sequential replay", label)
	}
	if got.StateRoot.IsZero() {
		t.Errorf("%s: sealed state root is zero", label)
	}
}

// TestRunParallelMatchesSequential is the differential test pinning the
// optimistic-parallel replay bit-identical to the sequential reference,
// across worker counts. `make race` runs it under the race detector,
// which also exercises the concurrent planner.
func TestRunParallelMatchesSequential(t *testing.T) {
	pages, _ := generate(t, 4000, 7)
	snap := pages[len(pages)*7/10].Header.Sequence
	want, err := Run(FromPages(pages), snap)
	if err != nil {
		t.Fatal(err)
	}
	if want.Total().Submitted == 0 {
		t.Fatal("no replayable payments; differential test is vacuous")
	}
	if want.Cross.Category != CategoryCross || want.Single.Category != CategorySingle {
		t.Errorf("sequential rows are labelled %s / %s", want.Cross.Category, want.Single.Category)
	}
	for _, w := range []int{1, 2, 4, 8} {
		got, err := RunParallel(FromPages(pages), snap, w)
		if err != nil {
			t.Fatalf("RunParallel(%d workers): %v", w, err)
		}
		sameResult(t, want, got, "parallel")
		if got.Cross.Category != CategoryCross || got.Single.Category != CategorySingle {
			t.Errorf("parallel rows are labelled %s / %s", got.Cross.Category, got.Single.Category)
		}
		if got.Stats.Workers != w {
			t.Errorf("stats workers = %d, want %d", got.Stats.Workers, w)
		}
		if got.Stats.PlannedAhead+got.Stats.Conflicts == 0 {
			t.Error("no payments went through the optimistic planner")
		}
		t.Logf("workers=%d: %d batches, %d planned ahead, %d conflicts",
			w, got.Stats.Batches, got.Stats.PlannedAhead, got.Stats.Conflicts)
	}
}

// TestRunStoreMatchesSlice replays the same history from a disk store
// (exercising the segment sequence index / PagesRange path) and from
// memory, sequentially and in parallel — all four must agree.
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

	want, err := Run(FromPages(pages), snap)
	if err != nil {
		t.Fatal(err)
	}
	fromStore, err := Run(store, snap)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, fromStore, "store sequential")
	parStore, err := RunParallel(store, snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, parStore, "store parallel")
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
// must fail cleanly as unfunded — counted submitted, not delivered —
// and sequential and parallel replay must agree exactly.
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

	want, err := Run(FromPages(h.pages), snap)
	if err != nil {
		t.Fatal(err)
	}
	if want.Single.Submitted != 2 {
		t.Fatalf("submitted = %d, want 2", want.Single.Submitted)
	}
	if want.Single.Delivered != 1 {
		t.Fatalf("delivered = %d, want 1 (dave unborn, alice fine)", want.Single.Delivered)
	}
	got, err := RunParallel(FromPages(h.pages), snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "parallel")
}

// TestOptimisticTrustLineRaceReplans pins the conflict path: a
// trust-line update lands in the same batch as a payment whose plan
// depends on it, so the optimistic plan (computed against the frozen
// pre-batch state, where the line is too small) must be detected as
// stale and re-planned — delivering the payment exactly as sequential
// replay does.
func TestOptimisticTrustLineRaceReplans(t *testing.T) {
	eur := amount.MustCurrency("EUR")
	alice, bob := acct(4), acct(5)

	h := newHist(t)
	h.fund(alice, 1_000_000_000)
	h.fund(bob, 1_000_000_000)
	h.trust(bob, alice, eur, "100")
	snap := h.close()

	// Post-snapshot, in one batch: the line grows, then a payment needs
	// the grown limit.
	h.trust(bob, alice, eur, "200")
	if m := h.pay(alice, bob, eur, "150"); !m.Result.Succeeded() {
		t.Fatalf("payment failed in history: %s", m.Result)
	}
	h.close()

	want, err := Run(FromPages(h.pages), snap)
	if err != nil {
		t.Fatal(err)
	}
	if want.Single.Delivered != 1 {
		t.Fatalf("sequential delivered = %d, want 1", want.Single.Delivered)
	}
	got, err := RunParallel(FromPages(h.pages), snap, 4)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, want, got, "parallel")
	if got.Stats.Conflicts != 1 {
		t.Errorf("conflicts = %d, want exactly 1 (the raced payment)", got.Stats.Conflicts)
	}
	if got.Single.Delivered != 1 {
		t.Errorf("parallel delivered = %d, want 1 after re-plan", got.Single.Delivered)
	}
}
