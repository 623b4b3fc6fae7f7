package payment

import (
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
)

func kp(seed uint64) *addr.KeyPair { return addr.KeyPairFromSeed(seed) }

func val(s string) amount.Value { return amount.MustParse(s) }

// submit builds, signs, and applies a transaction with the account's
// next sequence number.
func submit(t *testing.T, e *Engine, sender *addr.KeyPair, mutate func(*ledger.Tx)) *ledger.TxMeta {
	t.Helper()
	tx := &ledger.Tx{
		Account:  sender.AccountID(),
		Sequence: e.NextSequence(sender.AccountID()),
		Fee:      BaseFee,
	}
	mutate(tx)
	tx.Sign(sender)
	meta, err := e.Apply(tx)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return meta
}

func fundedEngine(t *testing.T, holders ...*addr.KeyPair) *Engine {
	t.Helper()
	e := NewEngine()
	for _, h := range holders {
		e.Fund(h.AccountID(), 1_000_000_000) // 1000 XRP
	}
	return e
}

func TestGenesisState(t *testing.T) {
	e := NewEngine()
	if e.TotalDrops() != ledger.GenesisTotalDrops {
		t.Errorf("total drops = %d, want genesis supply", e.TotalDrops())
	}
	if e.XRPBalance(addr.AccountZero) != amount.Drops(ledger.GenesisTotalDrops) {
		t.Error("ACCOUNT_ZERO does not own the full supply at genesis")
	}
}

func TestXRPPaymentAndActivation(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice)
	if e.AccountExists(bob.AccountID()) {
		t.Fatal("bob exists before funding")
	}
	meta := submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = bob.AccountID()
		tx.Amount = amount.XRPAmount(50_000_000) // 50 XRP
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("result = %s", meta.Result)
	}
	if got := e.XRPBalance(bob.AccountID()); got != 50_000_000 {
		t.Errorf("bob balance = %d, want 50000000", got)
	}
	if !e.AccountExists(bob.AccountID()) {
		t.Error("XRP payment did not activate bob")
	}
	// Fee destroyed and supply shrank.
	if e.FeesDestroyed() != BaseFee {
		t.Errorf("fees destroyed = %d, want %d", e.FeesDestroyed(), BaseFee)
	}
	if e.TotalDrops() != ledger.GenesisTotalDrops-uint64(BaseFee) {
		t.Error("total supply did not shrink by the fee")
	}
	if got := e.XRPBalance(alice.AccountID()); got != 1_000_000_000-50_000_000-amount.Drops(BaseFee) {
		t.Errorf("alice balance = %d", got)
	}
}

func TestXRPPaymentUnfunded(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	meta := submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = bob.AccountID()
		tx.Amount = amount.XRPAmount(2_000_000_000) // more than alice has
	})
	if meta.Result != ledger.ResultUnfunded {
		t.Errorf("result = %s, want tecUNFUNDED", meta.Result)
	}
	// Fee still burned, sequence still consumed.
	if e.NextSequence(alice.AccountID()) != 2 {
		t.Error("failed payment did not consume a sequence number")
	}
}

func TestSequenceDiscipline(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	tx := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     alice.AccountID(),
		Sequence:    7, // wrong: expected 1
		Fee:         BaseFee,
		Destination: bob.AccountID(),
		Amount:      amount.XRPAmount(1_000_000),
	}
	tx.Sign(alice)
	meta, err := e.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Result != ledger.ResultBadSequence {
		t.Errorf("result = %s, want tefPAST_SEQ", meta.Result)
	}
	if e.NextSequence(alice.AccountID()) != 1 {
		t.Error("bad-sequence tx consumed a sequence number")
	}
}

func TestUnknownSenderRejected(t *testing.T) {
	ghost, bob := kp(66), kp(2)
	e := fundedEngine(t, bob)
	tx := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     ghost.AccountID(),
		Sequence:    1,
		Fee:         BaseFee,
		Destination: bob.AccountID(),
		Amount:      amount.XRPAmount(1),
	}
	tx.Sign(ghost)
	meta, err := e.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Result != ledger.ResultUnfunded {
		t.Errorf("result = %s, want tecUNFUNDED for unknown sender", meta.Result)
	}
}

func TestTrustSetAndIOUPayment(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	// Alice trusts Bob for 10 USD.
	meta := submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = bob.AccountID()
		tx.Limit = amount.New(amount.USD, val("10"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("TrustSet: %s", meta.Result)
	}
	// Bob pays Alice 4.5 USD over the trust-line.
	meta = submit(t, e, bob, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = alice.AccountID()
		tx.Amount = amount.New(amount.USD, val("4.5"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("IOU payment: %s", meta.Result)
	}
	if meta.Delivered.Value.Cmp(val("4.5")) != 0 {
		t.Errorf("delivered %s, want 4.5", meta.Delivered)
	}
	if got := e.Graph().Owed(alice.AccountID(), bob.AccountID(), amount.USD); got.Cmp(val("4.5")) != 0 {
		t.Errorf("bob owes alice %s, want 4.5", got)
	}
	if meta.ParallelPaths() != 1 || meta.MaxHops() != 0 {
		t.Errorf("meta paths = %v", meta.PathHops)
	}
	if meta.CrossCurrency {
		t.Error("same-currency payment marked cross-currency")
	}
}

func TestIOUPaymentPathDry(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = bob.AccountID()
		tx.Limit = amount.New(amount.USD, val("10"))
	})
	meta := submit(t, e, bob, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = alice.AccountID()
		tx.Amount = amount.New(amount.USD, val("25")) // above the limit
	})
	if meta.Result != ledger.ResultPathDry {
		t.Errorf("result = %s, want tecPATH_DRY", meta.Result)
	}
	// Nothing moved.
	if got := e.Graph().Owed(alice.AccountID(), bob.AccountID(), amount.USD); !got.IsZero() {
		t.Errorf("failed payment moved value: %s", got)
	}
}

func TestIOUPaymentToMissingDestination(t *testing.T) {
	alice := kp(1)
	e := fundedEngine(t, alice)
	meta := submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = kp(99).AccountID()
		tx.Amount = amount.New(amount.USD, val("1"))
	})
	if meta.Result != ledger.ResultNoDestination {
		t.Errorf("result = %s, want tecNO_DST", meta.Result)
	}
}

func TestRipplingThroughIntermediary(t *testing.T) {
	// Figure 1: A trusts B, B trusts C; C pays A through B.
	a, b, c := kp(1), kp(2), kp(3)
	e := fundedEngine(t, a, b, c)
	submit(t, e, a, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = b.AccountID()
		tx.Limit = amount.New(amount.USD, val("10"))
	})
	submit(t, e, b, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = c.AccountID()
		tx.Limit = amount.New(amount.USD, val("20"))
	})
	meta := submit(t, e, c, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = a.AccountID()
		tx.Amount = amount.New(amount.USD, val("10"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("rippled payment: %s", meta.Result)
	}
	if meta.MaxHops() != 1 {
		t.Errorf("hops = %d, want 1 (through B)", meta.MaxHops())
	}
	if len(meta.Intermediaries) != 1 || meta.Intermediaries[0] != b.AccountID() {
		t.Errorf("intermediaries = %v, want exactly B", meta.Intermediaries)
	}
	// Debt moved along the chain: C owes B, B owes A.
	if got := e.Graph().Owed(b.AccountID(), c.AccountID(), amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("C owes B %s, want 10", got)
	}
	if got := e.Graph().Owed(a.AccountID(), b.AccountID(), amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("B owes A %s, want 10", got)
	}
}

// crossCurrencyEngine sets up a EUR→USD market maker between src and dst.
func crossCurrencyEngine(t *testing.T) (*Engine, *addr.KeyPair, *addr.KeyPair, *addr.KeyPair) {
	t.Helper()
	src, mm, dst := kp(1), kp(2), kp(3)
	e := fundedEngine(t, src, mm, dst)
	submit(t, e, mm, func(tx *ledger.Tx) { // mm trusts src in EUR
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = src.AccountID()
		tx.Limit = amount.New(amount.EUR, val("1000"))
	})
	submit(t, e, dst, func(tx *ledger.Tx) { // dst trusts mm in USD
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = mm.AccountID()
		tx.Limit = amount.New(amount.USD, val("1000"))
	})
	meta := submit(t, e, mm, func(tx *ledger.Tx) { // mm sells 100 USD for 90 EUR
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("90"))
		tx.TakerGets = amount.New(amount.USD, val("100"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("OfferCreate: %s", meta.Result)
	}
	return e, src, mm, dst
}

func TestCrossCurrencyPayment(t *testing.T) {
	e, src, mm, dst := crossCurrencyEngine(t)
	meta := submit(t, e, src, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("50"))
		tx.SendMax = amount.New(amount.EUR, val("60"))
	})
	if !meta.Result.Succeeded() {
		t.Fatalf("cross-currency payment: %s", meta.Result)
	}
	if !meta.CrossCurrency {
		t.Error("payment not marked cross-currency")
	}
	if meta.OffersConsumed != 1 {
		t.Errorf("offers consumed = %d, want 1", meta.OffersConsumed)
	}
	// src paid 45 EUR to mm; mm delivered 50 USD to dst.
	if got := e.Graph().Owed(mm.AccountID(), src.AccountID(), amount.EUR); got.Cmp(val("45")) != 0 {
		t.Errorf("src owes mm %s EUR, want 45", got)
	}
	if got := e.Graph().Owed(dst.AccountID(), mm.AccountID(), amount.USD); got.Cmp(val("50")) != 0 {
		t.Errorf("mm owes dst %s USD, want 50", got)
	}
	// The offer shrank.
	if e.Books().NumOffers() != 1 {
		t.Fatal("offer disappeared after partial fill")
	}
}

func TestSendMaxEnforced(t *testing.T) {
	e, src, _, dst := crossCurrencyEngine(t)
	meta := submit(t, e, src, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("50"))
		tx.SendMax = amount.New(amount.EUR, val("40")) // needs 45
	})
	if meta.Result != ledger.ResultPathDry {
		t.Errorf("result = %s, want tecPATH_DRY when SendMax too low", meta.Result)
	}
}

func TestMarketMakerAblationKillsCrossCurrency(t *testing.T) {
	e, src, _, dst := crossCurrencyEngine(t)
	removed := e.RemoveMarketMakers()
	if len(removed) != 1 {
		t.Fatalf("removed %d market makers, want 1", len(removed))
	}
	if e.Books().NumOffers() != 0 {
		t.Error("offers survived ablation")
	}
	meta := submit(t, e, src, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = dst.AccountID()
		tx.Amount = amount.New(amount.USD, val("10"))
		tx.SendMax = amount.New(amount.EUR, val("20"))
	})
	if meta.Result != ledger.ResultPathDry {
		t.Errorf("result = %s, want tecPATH_DRY after ablation", meta.Result)
	}
}

// TestUnderfundedXRPOfferIsPathDry crosses offers that sell more XRP than
// their owner holds — nothing checks an offer owner's XRP when it is
// placed or quoted — on a direct IOU→XRP quote and on the first leg of an
// auto-bridge. The payment is an ordinary tecPATH_DRY, not an engine
// error: the fee is burned and every planned trust flow is undone.
func TestUnderfundedXRPOfferIsPathDry(t *testing.T) {
	for _, tc := range []struct {
		name    string
		deliver amount.Amount
		bridge  bool // deliver USD through a second, funded XRP→USD offer
	}{
		{"direct IOU→XRP", amount.New(amount.XRP, val("200")), false},
		{"auto-bridge first leg", amount.New(amount.USD, val("10")), true},
	} {
		src, mm, dst, mm2 := kp(1), kp(2), kp(3), kp(4)
		e := fundedEngine(t, src, dst, mm2)
		// mm holds 100 XRP and offers 5000.
		e.Fund(mm.AccountID(), 100_000_000)
		submit(t, e, mm, func(tx *ledger.Tx) { // mm trusts src in EUR
			tx.Type = ledger.TxTrustSet
			tx.LimitPeer = src.AccountID()
			tx.Limit = amount.New(amount.EUR, val("1000"))
		})
		if meta := submit(t, e, mm, func(tx *ledger.Tx) { // mm sells 5000 XRP it does not hold
			tx.Type = ledger.TxOfferCreate
			tx.TakerPays = amount.New(amount.EUR, val("100"))
			tx.TakerGets = amount.New(amount.XRP, val("5000"))
		}); !meta.Result.Succeeded() {
			t.Fatalf("%s: OfferCreate: %s", tc.name, meta.Result)
		}
		if tc.bridge {
			submit(t, e, dst, func(tx *ledger.Tx) { // dst trusts mm2 in USD
				tx.Type = ledger.TxTrustSet
				tx.LimitPeer = mm2.AccountID()
				tx.Limit = amount.New(amount.USD, val("1000"))
			})
			if meta := submit(t, e, mm2, func(tx *ledger.Tx) { // mm2 sells 100 USD for 2000 XRP
				tx.Type = ledger.TxOfferCreate
				tx.TakerPays = amount.New(amount.XRP, val("2000"))
				tx.TakerGets = amount.New(amount.USD, val("100"))
			}); !meta.Result.Succeeded() {
				t.Fatalf("%s: OfferCreate: %s", tc.name, meta.Result)
			}
		}
		xrpSrc, xrpMM, xrpDst := e.XRPBalance(src.AccountID()), e.XRPBalance(mm.AccountID()), e.XRPBalance(dst.AccountID())
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: src.AccountID(), Sequence: e.NextSequence(src.AccountID()),
			Fee: BaseFee, Destination: dst.AccountID(), Amount: tc.deliver, SendMax: amount.New(amount.EUR, val("100"))}
		meta, err := e.Apply(tx)
		if err != nil {
			t.Fatalf("%s: Apply: %v", tc.name, err)
		}
		if meta.Result != ledger.ResultPathDry {
			t.Errorf("%s: result = %s, want tecPATH_DRY", tc.name, meta.Result)
		}
		if got := e.XRPBalance(src.AccountID()); got != xrpSrc-BaseFee {
			t.Errorf("%s: src holds %d drops, want %d (only the fee burned)", tc.name, got, xrpSrc-BaseFee)
		}
		if e.XRPBalance(mm.AccountID()) != xrpMM || e.XRPBalance(dst.AccountID()) != xrpDst {
			t.Errorf("%s: mm/dst hold %d/%d drops, held %d/%d", tc.name,
				e.XRPBalance(mm.AccountID()), e.XRPBalance(dst.AccountID()), xrpMM, xrpDst)
		}
		if got := e.Graph().Owed(mm.AccountID(), src.AccountID(), amount.EUR); !got.IsZero() {
			t.Errorf("%s: src owes mm %s EUR after a dry payment", tc.name, got)
		}
	}
}

func TestOfferCancel(t *testing.T) {
	mm := kp(1)
	e := fundedEngine(t, mm)
	meta := submit(t, e, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.EUR, val("90"))
		tx.TakerGets = amount.New(amount.USD, val("100"))
	})
	if !meta.Result.Succeeded() {
		t.Fatal(meta.Result)
	}
	if e.Books().NumOffers() != 1 {
		t.Fatal("offer not placed")
	}
	meta = submit(t, e, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCancel
		tx.OfferSequence = 1
	})
	if !meta.Result.Succeeded() {
		t.Fatal(meta.Result)
	}
	if e.Books().NumOffers() != 0 {
		t.Error("offer survived cancel")
	}
}

func TestMalformedTransactions(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	// Self-payment.
	meta := submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = alice.AccountID()
		tx.Amount = amount.XRPAmount(1)
	})
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("self-payment result = %s, want temMALFORMED", meta.Result)
	}
	// Zero amount.
	meta = submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = bob.AccountID()
	})
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("zero payment result = %s, want temMALFORMED", meta.Result)
	}
	// Same-currency offer.
	meta = submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(amount.USD, val("1"))
		tx.TakerGets = amount.New(amount.USD, val("1"))
	})
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("bad offer result = %s, want temMALFORMED", meta.Result)
	}
	// XRP trust-line.
	meta = submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = bob.AccountID()
		tx.Limit = amount.XRPAmount(1)
	})
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("XRP trust result = %s, want temMALFORMED", meta.Result)
	}
	// Unknown type.
	meta = submit(t, e, alice, func(tx *ledger.Tx) { tx.Type = ledger.TxType(42) })
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("unknown type result = %s, want temMALFORMED", meta.Result)
	}
}

func TestAccountSetIsNoOp(t *testing.T) {
	alice := kp(1)
	e := fundedEngine(t, alice)
	meta := submit(t, e, alice, func(tx *ledger.Tx) { tx.Type = ledger.TxAccountSet })
	if !meta.Result.Succeeded() {
		t.Errorf("AccountSet result = %s", meta.Result)
	}
}

func TestStateDigestDeterminism(t *testing.T) {
	run := func() ledger.Hash {
		alice, bob := kp(1), kp(2)
		e := fundedEngine(t, alice, bob)
		submit(t, e, alice, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = bob.AccountID()
			tx.Amount = amount.XRPAmount(123)
		})
		submit(t, e, bob, func(tx *ledger.Tx) {
			tx.Type = ledger.TxTrustSet
			tx.LimitPeer = alice.AccountID()
			tx.Limit = amount.New(amount.USD, val("5"))
		})
		return e.StateDigest()
	}
	if run() != run() {
		t.Error("identical histories produced different state digests")
	}
}

func TestCloneIndependence(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	cp := e.Clone()
	submit(t, cp, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = bob.AccountID()
		tx.Amount = amount.XRPAmount(1_000_000)
	})
	if e.XRPBalance(bob.AccountID()) != 1_000_000_000 {
		t.Error("clone mutation leaked into original")
	}
	if cp.XRPBalance(bob.AccountID()) != 1_001_000_000 {
		t.Error("clone did not apply the payment")
	}
	if e.NextSequence(alice.AccountID()) != 1 {
		t.Error("clone consumed original's sequence")
	}
}

func TestSignatureVerificationOption(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := NewEngine(WithSignatureVerification())
	e.Fund(alice.AccountID(), 1_000_000_000)
	e.Fund(bob.AccountID(), 1_000_000_000)

	// Unsigned: rejected without touching state.
	tx := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     alice.AccountID(),
		Sequence:    1,
		Fee:         BaseFee,
		Destination: bob.AccountID(),
		Amount:      amount.XRPAmount(1_000_000),
	}
	meta, err := e.Apply(tx)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Result != ledger.ResultMalformed {
		t.Errorf("unsigned tx = %s, want temMALFORMED", meta.Result)
	}
	if e.NextSequence(alice.AccountID()) != 1 {
		t.Error("rejected tx consumed a sequence")
	}
	// Signed by the wrong key: rejected.
	tx.Sign(bob)
	if meta, _ = e.Apply(tx); meta.Result != ledger.ResultMalformed {
		t.Errorf("wrong-key tx = %s, want temMALFORMED", meta.Result)
	}
	// Properly signed: applies.
	tx.Sign(alice)
	if meta, _ = e.Apply(tx); !meta.Result.Succeeded() {
		t.Errorf("signed tx = %s, want success", meta.Result)
	}
	// ACCOUNT_ZERO is exempt (its key is public).
	zeroTx := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     addr.AccountZero,
		Sequence:    e.NextSequence(addr.AccountZero),
		Fee:         BaseFee,
		Destination: bob.AccountID(),
		Amount:      amount.XRPAmount(1),
	}
	if meta, _ = e.Apply(zeroTx); !meta.Result.Succeeded() {
		t.Errorf("ACCOUNT_ZERO unsigned tx = %s, want success", meta.Result)
	}
	// The option survives Clone.
	clone := e.Clone()
	bad := &ledger.Tx{
		Type: ledger.TxAccountSet, Account: alice.AccountID(),
		Sequence: clone.NextSequence(alice.AccountID()), Fee: BaseFee,
	}
	if meta, _ = clone.Apply(bad); meta.Result != ledger.ResultMalformed {
		t.Errorf("clone accepted unsigned tx: %s", meta.Result)
	}
}

func TestFundIgnoresNegative(t *testing.T) {
	e := NewEngine()
	a := kp(1).AccountID()
	e.Fund(a, -5)
	if e.XRPBalance(a) != 0 || e.AccountExists(a) {
		t.Error("negative funding created state")
	}
}

func TestOfferCancelMissingSucceeds(t *testing.T) {
	// rippled treats cancelling a consumed/missing offer as success.
	mm := kp(1)
	e := fundedEngine(t, mm)
	meta := submit(t, e, mm, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCancel
		tx.OfferSequence = 999
	})
	if !meta.Result.Succeeded() {
		t.Errorf("cancel of missing offer = %s, want success", meta.Result)
	}
}

func TestSameCurrencySendMaxCap(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	submit(t, e, alice, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = bob.AccountID()
		tx.Limit = amount.New(amount.USD, val("100"))
	})
	meta := submit(t, e, bob, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = alice.AccountID()
		tx.Amount = amount.New(amount.USD, val("50"))
		tx.SendMax = amount.New(amount.USD, val("10")) // cap below the amount
	})
	if meta.Result != ledger.ResultPathDry {
		t.Errorf("result = %s, want tecPATH_DRY when SendMax < Amount", meta.Result)
	}
}

func TestFeeFloorsAtBase(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	before := e.XRPBalance(alice.AccountID())
	tx := &ledger.Tx{
		Type:        ledger.TxPayment,
		Account:     alice.AccountID(),
		Sequence:    e.NextSequence(alice.AccountID()),
		Fee:         1, // below BaseFee
		Destination: bob.AccountID(),
		Amount:      amount.XRPAmount(1_000_000),
	}
	tx.Sign(alice)
	if _, err := e.Apply(tx); err != nil {
		t.Fatal(err)
	}
	spent := before - e.XRPBalance(alice.AccountID())
	if spent != 1_000_000+amount.Drops(BaseFee) {
		t.Errorf("spent %d drops, want amount + BaseFee floor", spent)
	}
}

func TestGraphInvariantsAfterWorkload(t *testing.T) {
	// A small mixed workload must leave the credit network internally
	// consistent.
	a, b, c := kp(1), kp(2), kp(3)
	e := fundedEngine(t, a, b, c)
	pairs := []struct {
		truster, trustee *addr.KeyPair
	}{{a, b}, {b, c}, {c, a}, {b, a}}
	for _, p := range pairs {
		submit(t, e, p.truster, func(tx *ledger.Tx) {
			tx.Type = ledger.TxTrustSet
			tx.LimitPeer = p.trustee.AccountID()
			tx.Limit = amount.New(amount.USD, val("100"))
		})
	}
	senders := []*addr.KeyPair{b, c, a, b, c}
	receivers := []*addr.KeyPair{a, b, c, c, a}
	for i := range senders {
		if senders[i] == receivers[i] {
			continue
		}
		submit(t, e, senders[i], func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = receivers[i].AccountID()
			tx.Amount = amount.New(amount.USD, val("7"))
		})
	}
	if errs := e.Graph().CheckInvariants(); len(errs) != 0 {
		t.Fatalf("invariants violated: %v", errs)
	}
}

// TestApplyDirectXRPAllocs pins what a direct XRP transfer between funded
// accounts allocates: the TxMeta it returns and nothing else — the
// transaction is hashed once, on the stack, and folded into the state
// digest from a stack array (the grown buffers used to make it 10).
func TestApplyDirectXRPAllocs(t *testing.T) {
	alice, bob := kp(1), kp(2)
	e := fundedEngine(t, alice, bob)
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: alice.AccountID(), Fee: BaseFee,
		Destination: bob.AccountID(), Amount: amount.XRPAmount(25)}
	tx.Sign(alice)
	allocs := testing.AllocsPerRun(200, func() {
		tx.Sequence = e.NextSequence(tx.Account)
		if meta, err := e.Apply(tx); err != nil || !meta.Result.Succeeded() {
			t.Fatalf("Apply: %v, %v", meta, err)
		}
	})
	if allocs > 1 {
		t.Errorf("direct XRP Apply allocates %.1f per call, want 1 (the TxMeta)", allocs)
	}
}

// TestApplyResultIOUAllocs pins the result-only apply of a warm IOU
// payment that ripples through a gateway at 0 allocations: the search
// reuses the Finder's scratch and plan, each flow applies to the pair the
// plan carries, and no metadata is built.
func TestApplyResultIOUAllocs(t *testing.T) {
	alice, gw, bob := kp(1), kp(2), kp(3)
	e := fundedEngine(t, alice, gw, bob)
	for _, line := range [][2]*addr.KeyPair{{alice, gw}, {gw, alice}, {bob, gw}, {gw, bob}} {
		if meta := submit(t, e, line[0], func(tx *ledger.Tx) {
			tx.Type = ledger.TxTrustSet
			tx.LimitPeer = line[1].AccountID()
			tx.Limit = amount.MustAmount("1000000/USD")
		}); !meta.Result.Succeeded() {
			t.Fatalf("TrustSet: %s", meta.Result)
		}
	}
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: alice.AccountID(), Fee: BaseFee,
		Destination: bob.AccountID(), Amount: amount.MustAmount("2/USD")}
	allocs := testing.AllocsPerRun(200, func() {
		tx.Sequence = e.NextSequence(tx.Account)
		if res, _, err := e.ApplyResult(tx); err != nil || !res.Succeeded() {
			t.Fatalf("ApplyResult: %s, %v", res, err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm IOU ApplyResult allocates %.1f per call, want 0", allocs)
	}
}

// TestExecutePlanRollsBack hands executePlan plans that fail part-way —
// at a trust flow, and at an XRP leg after every flow and one XRP leg have
// applied — and requires the state be exactly as before.
func TestExecutePlanRollsBack(t *testing.T) {
	a, b, c, mm := kp(1), kp(2), kp(3), kp(4)
	e := fundedEngine(t, a, b, c, mm)
	for _, line := range [][2]*addr.KeyPair{{a, b}, {b, c}} {
		if meta := submit(t, e, line[0], func(tx *ledger.Tx) {
			tx.Type = ledger.TxTrustSet
			tx.LimitPeer = line[1].AccountID()
			tx.Limit = amount.MustAmount("10/USD")
		}); !meta.Result.Succeeded() {
			t.Fatalf("TrustSet: %s", meta.Result)
		}
	}
	flow := func(from, to *addr.KeyPair, v string) pathfind.Flow {
		line := e.Graph().PairOf(from.AccountID(), to.AccountID(), amount.USD)
		return pathfind.Flow{From: from.AccountID(), To: to.AccountID(), Currency: amount.USD, Value: val(v),
			Line: line, FromLo: line.Lo == from.AccountID()}
	}
	fill := func(drops amount.Drops) orderbook.Fill {
		return orderbook.Fill{Offer: &orderbook.Offer{Owner: mm.AccountID(), Seq: 1}, Pays: drops.XRPValue(), Gets: val("1")}
	}
	for name, plan := range map[string]*pathfind.Plan{
		"second flow exceeds its line": {Src: c.AccountID(), Dst: a.AccountID(), Currency: amount.USD,
			TrustFlows: []pathfind.Flow{flow(c, b, "5"), flow(b, a, "50")}},
		"second XRP leg exceeds the balance": {Src: c.AccountID(), Dst: a.AccountID(), Currency: amount.USD,
			TrustFlows: []pathfind.Flow{flow(c, b, "5"), flow(b, a, "5")},
			Quotes: []orderbook.Quote{{Pair: orderbook.Pair{Pays: amount.XRP, Gets: amount.USD},
				Fills: []orderbook.Fill{fill(1000), fill(5_000_000_000)}}}},
	} {
		capCB, capBA := e.Graph().Capacity(c.AccountID(), b.AccountID(), amount.USD), e.Graph().Capacity(b.AccountID(), a.AccountID(), amount.USD)
		xrpC, xrpMM := e.XRPBalance(c.AccountID()), e.XRPBalance(mm.AccountID())
		if err := e.executePlan(plan); err == nil {
			t.Fatalf("%s: plan executed", name)
		}
		if got := e.Graph().Capacity(c.AccountID(), b.AccountID(), amount.USD); got != capCB {
			t.Errorf("%s: capacity C→B %s after rollback, was %s", name, got, capCB)
		}
		if got := e.Graph().Capacity(b.AccountID(), a.AccountID(), amount.USD); got != capBA {
			t.Errorf("%s: capacity B→A %s after rollback, was %s", name, got, capBA)
		}
		if e.XRPBalance(c.AccountID()) != xrpC || e.XRPBalance(mm.AccountID()) != xrpMM {
			t.Errorf("%s: XRP balances %d/%d after rollback, were %d/%d", name,
				e.XRPBalance(c.AccountID()), e.XRPBalance(mm.AccountID()), xrpC, xrpMM)
		}
	}
}
