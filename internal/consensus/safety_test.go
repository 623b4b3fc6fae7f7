package consensus

import (
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// TestSafetyNoConflictingValidations verifies agreement safety: within
// one run, no two distinct main-chain pages are ever validated at the
// same sequence, and no validated hash ever conflicts with the chain.
func TestSafetyNoConflictingValidations(t *testing.T) {
	specs := activeSpecs(7)
	// Add noise: laggards and forks whose validations must never
	// produce a conflicting *validated* page.
	specs = append(specs,
		ValidatorSpec{Behavior: BehaviorLaggard, Seed: 50, Availability: 1, SyncProbability: 0.2},
		ValidatorSpec{Behavior: BehaviorForked, Seed: 51, Availability: 1},
		ValidatorSpec{Behavior: BehaviorTestnet, Seed: 52, Availability: 1},
	)
	n := NewNetwork(Config{Seed: 31, TxDropRate: 0.1}, specs)
	validatedAt := make(map[uint64]ledger.Hash)
	n.Subscribe(func(ev Event) {
		if ev.Kind != EventLedgerClosed {
			return
		}
		if prev, ok := validatedAt[ev.Seq]; ok && prev != ev.LedgerHash {
			t.Fatalf("two different pages validated at sequence %d", ev.Seq)
		}
		validatedAt[ev.Seq] = ev.LedgerHash
	})
	alice := addr.KeyPairFromSeed(99)
	n.Engine().Fund(alice.AccountID(), 10_000_000_000)
	if _, err := n.Run(200, func(round int) []*ledger.Tx {
		if round%3 != 0 {
			return nil
		}
		tx := &ledger.Tx{
			Type:        ledger.TxPayment,
			Account:     alice.AccountID(),
			Sequence:    n.Engine().NextSequence(alice.AccountID()),
			Fee:         10,
			Destination: addr.KeyPairFromSeed(uint64(200 + round)).AccountID(),
			Amount:      amount.XRPAmount(1_000_000),
		}
		tx.Sign(alice)
		return []*ledger.Tx{tx}
	}); err != nil {
		t.Fatal(err)
	}
	// Every validated hash must be on the canonical chain.
	for seq, h := range validatedAt {
		page, ok := pageByHash(n.Chain(), h)
		if !ok {
			t.Fatalf("validated hash at seq %d is not on the main chain", seq)
		}
		if page.Header.Sequence != seq {
			t.Fatalf("validated hash at seq %d belongs to page %d", seq, page.Header.Sequence)
		}
	}
	if len(validatedAt) < 190 {
		t.Errorf("only %d/200 rounds validated", len(validatedAt))
	}
}

// TestLivenessUnderPartialAvailability: with 90%-available trusted
// validators, most rounds still reach the 80% quorum.
func TestLivenessUnderPartialAvailability(t *testing.T) {
	specs := make([]ValidatorSpec, 0, 10)
	for i := 0; i < 10; i++ {
		specs = append(specs, ValidatorSpec{
			Behavior: BehaviorActive, Seed: uint64(i + 1),
			Availability: 0.9, Trusted: true,
		})
	}
	n := NewNetwork(Config{Seed: 8}, specs)
	validated := 0
	const rounds = 300
	for i := 0; i < rounds; i++ {
		res, err := n.RunRound(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Validated {
			validated++
		}
	}
	frac := float64(validated) / rounds
	// P(quorum) with 10 validators at 0.9 needs ≥... the quorum counts
	// matching signatures vs *present* trusted actives; availability
	// gates both proposal and validation, so most rounds validate.
	if frac < 0.5 {
		t.Errorf("validated fraction %.2f, want majority of rounds", frac)
	}
	t.Logf("validated %d/%d rounds at 90%% availability", validated, rounds)
}

// TestChainHaltsWithoutQuorum: if most trusted validators are offline,
// rounds close pages (the simulator's canonical chain advances) but they
// are not validated — the monitor-visible symptom of the paper's DoS
// concern.
func TestChainHaltsWithoutQuorum(t *testing.T) {
	specs := make([]ValidatorSpec, 0, 5)
	for i := 0; i < 5; i++ {
		avail := 1.0
		if i >= 2 {
			avail = 0.01 // three of five effectively down
		}
		specs = append(specs, ValidatorSpec{
			Behavior: BehaviorActive, Seed: uint64(i + 1),
			Availability: avail, Trusted: true,
		})
	}
	n := NewNetwork(Config{Seed: 77}, specs)
	validated := 0
	for i := 0; i < 100; i++ {
		res, err := n.RunRound(nil)
		if err != nil {
			t.Fatal(err)
		}
		if res.Validated {
			validated++
		}
	}
	if validated > 20 {
		t.Errorf("validated %d/100 rounds with 3/5 trusted validators down; quorum should fail", validated)
	}
}
