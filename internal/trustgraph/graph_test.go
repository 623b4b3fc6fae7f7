package trustgraph

import (
	"fmt"
	"math/rand"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

func acct(seed uint64) addr.AccountID { return addr.KeyPairFromSeed(seed).AccountID() }

func val(s string) amount.Value { return amount.MustParse(s) }

// trust returns the limit truster currently extends to trustee.
func trust(g *Graph, truster, trustee addr.AccountID, cur amount.Currency) amount.Value {
	p := g.pair(truster, trustee, cur, false)
	if p == nil {
		return amount.Zero
	}
	if p.Lo == truster {
		return p.LimitLoHi
	}
	return p.LimitHiLo
}

// applyFlow moves v from → to across their pair in cur, resolved
// through PairOf: the pair and orientation a planned flow carries.
func applyFlow(g *Graph, from, to addr.AccountID, cur amount.Currency, v amount.Value) error {
	p := g.PairOf(from, to, cur)
	if p == nil {
		return fmt.Errorf("no trust between %s and %s in %s", from.Short(), to.Short(), cur)
	}
	return p.ApplyFlow(p.Lo == from, v)
}

// hasEdges reports whether a participates in any trust pair.
func hasEdges(g *Graph, a addr.AccountID) bool {
	ai, ok := g.ids[a]
	return ok && len(g.adj[ai]) > 0
}

// activeAccounts counts the accounts with at least one trust pair.
func activeAccounts(g *Graph) int {
	n := 0
	for _, edges := range g.adj {
		if len(edges) > 0 {
			n++
		}
	}
	return n
}

func TestSetTrustAndCapacity(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)

	// "A trusts B for 10 USD" limits payments from B to A to 10 USD.
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(b, a, amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("capacity B→A = %s, want 10", got)
	}
	if got := g.Capacity(a, b, amount.USD); !got.IsZero() {
		t.Errorf("capacity A→B = %s, want 0 (no trust from B, no debt)", got)
	}
	if got := trust(g, a, b, amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("Trust(a,b) = %s, want 10", got)
	}
	if got := trust(g, b, a, amount.USD); !got.IsZero() {
		t.Errorf("Trust(b,a) = %s, want 0", got)
	}
}

func TestSetTrustValidation(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.XRP, val("10")); err == nil {
		t.Error("XRP trust-line accepted")
	}
	if _, err := g.SetTrust(a, a, amount.USD, val("10")); err == nil {
		t.Error("self-trust accepted")
	}
	if _, err := g.SetTrust(a, b, amount.USD, val("-1")); err == nil {
		t.Error("negative limit accepted")
	}
}

func TestApplyFlowAndOwed(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	// B pays A 4.5 USD: B's debt to A grows.
	if err := applyFlow(g, b, a, amount.USD, val("4.5")); err != nil {
		t.Fatal(err)
	}
	if got := g.Owed(a, b, amount.USD); got.Cmp(val("4.5")) != 0 {
		t.Errorf("B owes A %s, want 4.5", got)
	}
	if got := g.Owed(b, a, amount.USD); !got.IsZero() {
		t.Errorf("A owes B %s, want 0", got)
	}
	// Remaining capacity B→A is reduced; reverse capacity is the debt.
	if got := g.Capacity(b, a, amount.USD); got.Cmp(val("5.5")) != 0 {
		t.Errorf("capacity B→A = %s, want 5.5", got)
	}
	if got := g.Capacity(a, b, amount.USD); got.Cmp(val("4.5")) != 0 {
		t.Errorf("capacity A→B = %s, want 4.5 (debt pay-down)", got)
	}
	// Paying back more than the debt fails without reverse trust.
	if err := applyFlow(g, a, b, amount.USD, val("5")); err == nil {
		t.Error("overflow flow accepted")
	}
	// Paying down exactly the debt works.
	if err := applyFlow(g, a, b, amount.USD, val("4.5")); err != nil {
		t.Fatal(err)
	}
	if got := g.Owed(a, b, amount.USD); !got.IsZero() {
		t.Errorf("after pay-down B owes A %s, want 0", got)
	}
}

func TestApplyFlowErrors(t *testing.T) {
	g := New()
	a, b, c := acct(1), acct(2), acct(3)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if err := applyFlow(g, b, a, amount.USD, val("0")); err == nil {
		t.Error("zero flow accepted")
	}
	if err := applyFlow(g, b, a, amount.USD, val("-1")); err == nil {
		t.Error("negative flow accepted")
	}
	// A flow applies to the pair its plan carries, so a missing edge is
	// one PairOf does not find: no pair, no flow to apply.
	if p := g.PairOf(b, c, amount.USD); p != nil {
		t.Errorf("flow on missing edge accepted: PairOf found %s/%s", p.Lo.Short(), p.Hi.Short())
	}
	if err := applyFlow(g, b, a, amount.USD, val("11")); err == nil {
		t.Error("flow above capacity accepted")
	}
	// Failed flows must leave the balance untouched.
	if got := g.Owed(a, b, amount.USD); !got.IsZero() {
		t.Errorf("failed flows changed balance to %s", got)
	}
}

func TestBidirectionalTrust(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SetTrust(b, a, amount.USD, val("20")); err != nil {
		t.Fatal(err)
	}
	// A can pay B up to 20 (B's trust), B can pay A up to 10.
	if got := g.Capacity(a, b, amount.USD); got.Cmp(val("20")) != 0 {
		t.Errorf("capacity A→B = %s, want 20", got)
	}
	if got := g.Capacity(b, a, amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("capacity B→A = %s, want 10", got)
	}
	// After A pays B 5, capacity A→B drops to 15 and B→A rises to 15.
	if err := applyFlow(g, a, b, amount.USD, val("5")); err != nil {
		t.Fatal(err)
	}
	if got := g.Capacity(a, b, amount.USD); got.Cmp(val("15")) != 0 {
		t.Errorf("capacity A→B = %s, want 15", got)
	}
	if got := g.Capacity(b, a, amount.USD); got.Cmp(val("15")) != 0 {
		t.Errorf("capacity B→A = %s, want 15", got)
	}
}

func TestPerCurrencyIsolation(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SetTrust(a, b, amount.EUR, val("7")); err != nil {
		t.Fatal(err)
	}
	if err := applyFlow(g, b, a, amount.USD, val("3")); err != nil {
		t.Fatal(err)
	}
	if got := g.Owed(a, b, amount.EUR); !got.IsZero() {
		t.Errorf("EUR balance affected by USD flow: %s", got)
	}
	count := 0
	g.Currencies(a, func(amount.Currency) { count++ })
	if count != 2 {
		t.Errorf("Currencies reported %d, want 2", count)
	}
}

func TestNeighbors(t *testing.T) {
	g := New()
	hub, s1, s2, s3 := acct(1), acct(2), acct(3), acct(4)
	for i, spoke := range []addr.AccountID{s1, s2, s3} {
		if _, err := g.SetTrust(spoke, hub, amount.USD, amount.FromInt64(int64(10*(i+1)))); err != nil {
			t.Fatal(err)
		}
	}
	hi, _ := g.Index(hub)
	got := make(map[addr.AccountID]string)
	edges := g.Edges(hi, amount.USD)
	for i := range edges {
		got[g.AccountAt(edges[i].Peer())] = edges[i].Capacity().String()
	}
	want := map[addr.AccountID]string{s1: "10", s2: "20", s3: "30"}
	if len(got) != len(want) {
		t.Fatalf("neighbors = %v, want 3 spokes", got)
	}
	for peer, c := range want {
		if got[peer] != c {
			t.Errorf("capacity hub→%s = %s, want %s", peer.Short(), got[peer], c)
		}
	}
	// Wrong currency: no neighbors.
	if n := len(g.Edges(hi, amount.EUR)); n != 0 {
		t.Errorf("EUR neighbors = %d, want 0", n)
	}
}

func TestRemoveAccount(t *testing.T) {
	g := New()
	a, b, c := acct(1), acct(2), acct(3)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SetTrust(b, c, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if g.pairs != 2 || activeAccounts(g) != 3 {
		t.Fatalf("pairs=%d accounts=%d, want 2 and 3", g.pairs, activeAccounts(g))
	}
	g.RemoveAccount(b)
	if g.pairs != 0 {
		t.Errorf("pairs=%d after removing hub, want 0", g.pairs)
	}
	if hasEdges(g, b) || hasEdges(g, a) || hasEdges(g, c) {
		t.Error("orphaned accounts remain after hub removal")
	}
	if got := g.Capacity(b, a, amount.USD); !got.IsZero() {
		t.Errorf("capacity through removed account = %s", got)
	}
}

func TestClone(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if err := applyFlow(g, b, a, amount.USD, val("4")); err != nil {
		t.Fatal(err)
	}
	cp := g.Clone()
	// Mutating the clone must not affect the original.
	if err := applyFlow(cp, b, a, amount.USD, val("6")); err != nil {
		t.Fatal(err)
	}
	if got := g.Owed(a, b, amount.USD); got.Cmp(val("4")) != 0 {
		t.Errorf("original mutated by clone: owed = %s, want 4", got)
	}
	if got := cp.Owed(a, b, amount.USD); got.Cmp(val("10")) != 0 {
		t.Errorf("clone owed = %s, want 10", got)
	}
	// The clone shares pair identity internally: both endpoints must see
	// the same state.
	if cp.Capacity(b, a, amount.USD).Sign() != 0 {
		t.Errorf("clone capacity B→A = %s, want 0", cp.Capacity(b, a, amount.USD))
	}
}

func TestCheckInvariants(t *testing.T) {
	g := New()
	a, b := acct(1), acct(2)
	if _, err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if err := applyFlow(g, b, a, amount.USD, val("8")); err != nil {
		t.Fatal(err)
	}
	if errs := g.CheckInvariants(); len(errs) != 0 {
		t.Fatalf("healthy graph reports violations: %v", errs)
	}
	// Reducing the limit below the balance is legal but flags a
	// violation.
	if _, err := g.SetTrust(a, b, amount.USD, val("5")); err != nil {
		t.Fatal(err)
	}
	if errs := g.CheckInvariants(); len(errs) != 1 {
		t.Fatalf("want 1 violation after limit cut, got %v", errs)
	}
}

func TestProfileOf(t *testing.T) {
	g := New()
	gw, u1, u2 := acct(1), acct(2), acct(3)
	// Users trust the gateway; the gateway owes them (deposits).
	if _, err := g.SetTrust(u1, gw, amount.USD, val("100")); err != nil {
		t.Fatal(err)
	}
	if _, err := g.SetTrust(u2, gw, amount.USD, val("50")); err != nil {
		t.Fatal(err)
	}
	if err := applyFlow(g, gw, u1, amount.USD, val("30")); err != nil {
		t.Fatal(err)
	}
	rate := func(c amount.Currency) float64 { return 1 }
	p := g.ProfileOf(gw, rate)
	if p.TrustReceived != 150 {
		t.Errorf("gateway trust received = %v, want 150", p.TrustReceived)
	}
	if p.TrustGiven != 0 {
		t.Errorf("gateway trust given = %v, want 0", p.TrustGiven)
	}
	if p.NetBalance != -30 {
		t.Errorf("gateway net balance = %v, want -30 (debt)", p.NetBalance)
	}
	if p.Lines != 2 {
		t.Errorf("gateway lines = %d, want 2", p.Lines)
	}
	up := g.ProfileOf(u1, rate)
	if up.NetBalance != 30 {
		t.Errorf("user net balance = %v, want 30 (credit)", up.NetBalance)
	}
	// A rate of zero skips the currency entirely.
	zero := g.ProfileOf(gw, func(amount.Currency) float64 { return 0 })
	if zero.Lines != 0 || zero.TrustReceived != 0 {
		t.Errorf("zero-rate profile = %+v, want empty", zero)
	}
}

func TestPairsIteration(t *testing.T) {
	g := New()
	for i := uint64(0); i < 10; i++ {
		if _, err := g.SetTrust(acct(i), acct(i+1), amount.USD, val("5")); err != nil {
			t.Fatal(err)
		}
	}
	count := 0
	g.Pairs(func(p *Pair) {
		count++
		if !p.Lo.Less(p.Hi) {
			t.Error("pair endpoints not canonically ordered")
		}
	})
	if count != 10 {
		t.Errorf("Pairs visited %d, want 10", count)
	}
}

// TestPropRandomFlowsRespectInvariants drives random flows through a
// random topology and verifies capacity bookkeeping never breaks the
// credit invariants.
func TestPropRandomFlowsRespectInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	g := New()
	const n = 12
	accounts := make([]addr.AccountID, n)
	for i := range accounts {
		accounts[i] = acct(uint64(i + 100))
	}
	for i := 0; i < 40; i++ {
		a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
		if a == b {
			continue
		}
		_, _ = g.SetTrust(a, b, amount.USD, amount.FromInt64(int64(r.Intn(100)+1)))
	}
	applied := 0
	for i := 0; i < 3000; i++ {
		a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
		if a == b {
			continue
		}
		cap := g.Capacity(a, b, amount.USD)
		if cap.IsZero() {
			continue
		}
		// Sometimes exceed capacity on purpose.
		v := amount.FromInt64(int64(r.Intn(150) + 1))
		err := applyFlow(g, a, b, amount.USD, v)
		if v.Cmp(cap) <= 0 && err != nil {
			t.Fatalf("flow %s within capacity %s rejected: %v", v, cap, err)
		}
		if v.Cmp(cap) > 0 && err == nil {
			t.Fatalf("flow %s above capacity %s accepted", v, cap)
		}
		if err == nil {
			applied++
		}
		if errs := g.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("invariants broken after %d flows: %v", applied, errs)
		}
	}
	if applied == 0 {
		t.Fatal("property test applied no flows; topology too sparse")
	}
}
