package payment

import (
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/shamap"
	"ripplestudy/internal/trustgraph"
)

// numPairs counts the trust pairs of g.
func numPairs(g *trustgraph.Graph) int {
	n := 0
	g.Pairs(func(*trustgraph.Pair) { n++ })
	return n
}

// mapStore is a minimal content-addressed sink for WriteNewStateNodes.
type mapStore map[ledger.Hash][]byte

func (m mapStore) put(h ledger.Hash, data []byte) error {
	m[h] = append([]byte(nil), data...)
	return nil
}

func (m mapStore) get(h ledger.Hash) ([]byte, error) {
	d, ok := m[h]
	if !ok {
		return nil, shamap.ErrUnsealed // any error will do for a missing node
	}
	return d, nil
}

// stateWorkload drives a fixed scripted sequence through every
// state-mutating path — funding, XRP transfer, trust lines, rippling,
// offers (partial fill, full consumption, cancel), cross-currency
// bridging, and a failing payment that still burns a fee. after (may be
// nil) runs after each step.
func stateWorkload(t *testing.T, e *Engine, after func(step int)) {
	t.Helper()
	step := 0
	tick := func() {
		if after != nil {
			after(step)
		}
		step++
	}
	src, mm, dst, rip := kp(1), kp(2), kp(3), kp(4)
	for _, h := range []*addr.KeyPair{src, mm, dst, rip} {
		e.Fund(h.AccountID(), 1_000_000_000)
		tick()
	}
	submit(t, e, src, func(tx *ledger.Tx) { // XRP transfer
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.XRP, val("25"))
	})
	tick()
	submit(t, e, mm, func(tx *ledger.Tx) { // mm trusts src in EUR
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = src.AccountID()
		tx.Limit = amount.New(amount.EUR, val("1000"))
	})
	tick()
	submit(t, e, dst, func(tx *ledger.Tx) { // dst trusts mm in USD
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = mm.AccountID()
		tx.Limit = amount.New(amount.USD, val("1000"))
	})
	tick()
	submit(t, e, rip, func(tx *ledger.Tx) { // rip trusts dst in USD
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = dst.AccountID()
		tx.Limit = amount.New(amount.USD, val("500"))
	})
	tick()
	submit(t, e, mm, func(tx *ledger.Tx) { // mm sells 100 USD for 90 EUR
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("90"))
		tx.TakerGets = amount.New(amount.USD, val("100"))
	})
	tick()
	meta := submit(t, e, src, func(tx *ledger.Tx) { // partial fill
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("50"))
		tx.SendMax = amount.New(amount.EUR, val("60"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("cross-currency payment: %s", meta.Result)
	}
	tick()
	meta = submit(t, e, dst, func(tx *ledger.Tx) { // rippled IOU payment
		tx.Type = ledger.TxPayment
		tx.Destination = rip.AccountID()
		tx.Amount = amount.New(amount.USD, val("7"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("IOU payment: %s", meta.Result)
	}
	tick()
	submit(t, e, mm, func(tx *ledger.Tx) { // an offer that will be cancelled
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("500"))
		tx.TakerGets = amount.New(amount.USD, val("400"))
	})
	tick()
	cancelSeq := e.NextSequence(mm.AccountID()) - 1
	submit(t, e, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCancel
		tx.OfferSequence = cancelSeq
	})
	tick()
	meta = submit(t, e, src, func(tx *ledger.Tx) { // consume the residual offer fully
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("50"))
		tx.SendMax = amount.New(amount.EUR, val("60"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("full-fill payment: %s", meta.Result)
	}
	tick()
	meta = submit(t, e, src, func(tx *ledger.Tx) { // fails path-dry, still burns a fee
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("9999"))
	})
	if meta.Result != ledger.ResultPathDry {
		t.Fatalf("overdrawn payment: %s, want tecPATH_DRY", meta.Result)
	}
	tick()
}

func TestStateRootPureFunctionOfState(t *testing.T) {
	everySteps := NewEngine(WithStateTree())
	stateWorkload(t, everySteps, func(int) {
		if _, err := everySteps.SealState(); err != nil {
			t.Fatal(err)
		}
	})
	rootA, err := everySteps.SealState()
	if err != nil {
		t.Fatal(err)
	}

	once := NewEngine(WithStateTree())
	stateWorkload(t, once, nil)
	rootB, err := once.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if rootA.IsZero() {
		t.Fatal("workload sealed to the zero root")
	}
	if rootA != rootB {
		t.Fatalf("seal cadence changed the root: %s vs %s", rootA.Short(), rootB.Short())
	}

	// A tree enabled only after the fact commits to the same state.
	late := NewEngine()
	stateWorkload(t, late, nil)
	late.EnableStateTree()
	rootC, err := late.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if rootC != rootA {
		t.Fatalf("late-enabled tree root %s, want %s", rootC.Short(), rootA.Short())
	}
}

// continueWorkload applies a few more transactions — used to check that
// a restored engine behaves exactly like the original going forward.
func continueWorkload(t *testing.T, e *Engine) {
	t.Helper()
	src, mm, dst := kp(1), kp(2), kp(3)
	submit(t, e, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("30"))
		tx.TakerGets = amount.New(amount.USD, val("25"))
	})
	meta := submit(t, e, src, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("10"))
		tx.SendMax = amount.New(amount.EUR, val("15"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("continuation payment: %s", meta.Result)
	}
	submit(t, e, dst, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = src.AccountID()
		tx.Amount = amount.New(amount.XRP, val("3"))
	})
}

func TestRestoreEngineRoundTrip(t *testing.T) {
	orig := NewEngine(WithStateTree())
	store := mapStore{}
	// Seal and persist incrementally, as the checkpoint writer does.
	stateWorkload(t, orig, func(int) {
		if _, err := orig.SealState(); err != nil {
			t.Fatal(err)
		}
		if _, err := orig.WriteNewStateNodes(store.put); err != nil {
			t.Fatal(err)
		}
	})
	root, err := orig.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.WriteNewStateNodes(store.put); err != nil {
		t.Fatal(err)
	}

	tree, err := shamap.Load(root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(tree, RestoreScalars{
		TotalDrops:    orig.TotalDrops(),
		FeesDestroyed: orig.FeesDestroyed(),
		StateDigest:   orig.StateDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}

	for seed := uint64(1); seed <= 4; seed++ {
		a := kp(seed).AccountID()
		if got, want := restored.XRPBalance(a), orig.XRPBalance(a); got != want {
			t.Errorf("account %d: balance %d, want %d", seed, got, want)
		}
		if got, want := restored.NextSequence(a), orig.NextSequence(a); got != want {
			t.Errorf("account %d: sequence %d, want %d", seed, got, want)
		}
	}
	if got, want := restored.XRPBalance(addr.AccountZero), orig.XRPBalance(addr.AccountZero); got != want {
		t.Errorf("ACCOUNT_ZERO balance %d, want %d", got, want)
	}
	if got, want := restored.Books().NumOffers(), orig.Books().NumOffers(); got != want {
		t.Errorf("restored %d offers, want %d", got, want)
	}
	if got, want := numPairs(restored.Graph()), numPairs(orig.Graph()); got != want {
		t.Errorf("restored %d trust pairs, want %d", got, want)
	}
	if restored.StateDigest() != orig.StateDigest() {
		t.Error("restored digest differs")
	}
	if restored.StateRoot() != root {
		t.Errorf("restored root %s, want %s", restored.StateRoot().Short(), root.Short())
	}

	// The restored engine must be indistinguishable going forward: same
	// transactions, same digests, same roots.
	continueWorkload(t, orig)
	continueWorkload(t, restored)
	if restored.StateDigest() != orig.StateDigest() {
		t.Fatal("digests diverged after continuation")
	}
	origRoot, err := orig.SealState()
	if err != nil {
		t.Fatal(err)
	}
	restoredRoot, err := restored.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if origRoot != restoredRoot {
		t.Fatalf("roots diverged after continuation: %s vs %s", origRoot.Short(), restoredRoot.Short())
	}
}

func TestRestoreAfterMarketMakerAblation(t *testing.T) {
	orig := NewEngine(WithStateTree())
	stateWorkload(t, orig, nil)
	// Leave a standing offer so the ablation has something to remove.
	mm := kp(2)
	submit(t, orig, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("10"))
		tx.TakerGets = amount.New(amount.USD, val("10"))
	})
	removed := orig.RemoveMarketMakers()
	if len(removed) == 0 {
		t.Fatal("nothing removed")
	}
	root, err := orig.SealState()
	if err != nil {
		t.Fatal(err)
	}
	store := mapStore{}
	if _, err := orig.WriteNewStateNodes(store.put); err != nil {
		t.Fatal(err)
	}
	tree, err := shamap.Load(root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreEngine(tree, RestoreScalars{
		TotalDrops:    orig.TotalDrops(),
		FeesDestroyed: orig.FeesDestroyed(),
		StateDigest:   orig.StateDigest(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if restored.Books().NumOffers() != 0 {
		t.Error("offers resurrected through restore")
	}
	if restored.AccountExists(mm.AccountID()) {
		t.Error("removed market maker resurrected")
	}
	rootAgain, err := restored.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if rootAgain != root {
		t.Fatalf("restored re-seal %s, want %s", rootAgain.Short(), root.Short())
	}
}

func TestRestoreRejectsScalarMismatch(t *testing.T) {
	orig := NewEngine(WithStateTree())
	stateWorkload(t, orig, nil)
	root, err := orig.SealState()
	if err != nil {
		t.Fatal(err)
	}
	store := mapStore{}
	if _, err := orig.WriteNewStateNodes(store.put); err != nil {
		t.Fatal(err)
	}
	tree, err := shamap.Load(root, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreEngine(tree, RestoreScalars{
		TotalDrops:    orig.TotalDrops() + 1,
		FeesDestroyed: orig.FeesDestroyed(),
		StateDigest:   orig.StateDigest(),
	}); err == nil {
		t.Fatal("mismatched supply accepted")
	}
}

func TestStateTreeAbsent(t *testing.T) {
	e := NewEngine()
	if _, err := e.SealState(); err != ErrNoStateTree {
		t.Fatalf("SealState err = %v, want ErrNoStateTree", err)
	}
	if _, err := e.WriteNewStateNodes(func(ledger.Hash, []byte) error { return nil }); err != ErrNoStateTree {
		t.Fatalf("WriteNewStateNodes err = %v, want ErrNoStateTree", err)
	}
	if !e.StateRoot().IsZero() {
		t.Fatal("plain engine has a state root")
	}
}
