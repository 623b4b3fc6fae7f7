package pathfind

import (
	"errors"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/trustgraph"
)

func acct(seed uint64) addr.AccountID { return addr.KeyPairFromSeed(seed).AccountID() }

func val(s string) amount.Value { return amount.MustParse(s) }

func usd(s string) amount.Amount { return amount.New(amount.USD, val(s)) }

// figure1 builds the paper's Figure 1: A trusts B for 10 USD, B trusts C
// for 20 USD, so C can pay A up to 10 USD through B.
func figure1(t *testing.T) (*trustgraph.Graph, addr.AccountID, addr.AccountID, addr.AccountID) {
	t.Helper()
	g := trustgraph.New()
	a, b, c := acct(1), acct(2), acct(3)
	if err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTrust(b, c, amount.USD, val("20")); err != nil {
		t.Fatal(err)
	}
	return g, a, b, c
}

// withMaxPaths bounds the number of parallel paths per payment.
func withMaxPaths(n int) Option { return func(f *Finder) { f.maxPaths = n } }

func TestFigure1Payment(t *testing.T) {
	g, a, b, c := figure1(t)
	f := New(g, orderbook.New())
	plan, err := f.FindPayment(c, a, amount.USD, usd("10"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delivered.Cmp(val("10")) != 0 {
		t.Errorf("delivered %s, want 10", plan.Delivered)
	}
	if len(plan.Paths) != 1 || plan.Paths[0].Hops != 1 {
		t.Errorf("paths = %+v, want one path through B (1 hop)", plan.Paths)
	}
	if len(plan.TrustFlows) != 2 {
		t.Fatalf("flows = %d, want 2 (C→B, B→A)", len(plan.TrustFlows))
	}
	if plan.TrustFlows[0].From != c || plan.TrustFlows[0].To != b {
		t.Error("first flow is not C→B")
	}
	if plan.TrustFlows[1].From != b || plan.TrustFlows[1].To != a {
		t.Error("second flow is not B→A")
	}
	if plan.UsedBridge {
		t.Error("pure trust path marked as bridged")
	}
}

func TestFigure1CapacityLimit(t *testing.T) {
	g, a, _, c := figure1(t)
	f := New(g, orderbook.New())
	// More than A's trust in B: impossible.
	if _, err := f.FindPayment(c, a, amount.USD, usd("15")); !errors.Is(err, ErrNoPath) {
		// Partial delivery yields a plan below the request; the planner
		// reports it, and the engine rejects it. Either way 15 must not
		// be fully deliverable.
		plan, err2 := f.FindPayment(c, a, amount.USD, usd("15"))
		if err2 == nil && plan.Delivered.Cmp(val("15")) >= 0 {
			t.Errorf("delivered %s over a 10-capacity path", plan.Delivered)
		}
		_ = err
	}
}

func TestDirectTrustPayment(t *testing.T) {
	g := trustgraph.New()
	a, b := acct(1), acct(2)
	if err := g.SetTrust(a, b, amount.USD, val("100")); err != nil {
		t.Fatal(err)
	}
	f := New(g, orderbook.New())
	plan, err := f.FindPayment(b, a, amount.USD, usd("40"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Paths[0].Hops != 0 {
		t.Errorf("direct payment hops = %d, want 0", plan.Paths[0].Hops)
	}
}

func TestParallelPathSplitting(t *testing.T) {
	// width disjoint chains of length intermediaries from s to d, every
	// link of capacity limit; paying pay needs exactly two chains. The
	// diamond is the smallest case; the others are wide, and deep enough
	// to reach well into the default hop budget.
	for _, tc := range []struct {
		name          string
		width, length int
		limit, pay    string
	}{
		{"diamond", 2, 1, "5", "8"},
		{"narrow-4x6", 4, 6, "100", "150"},
		{"wide-16x4", 16, 4, "100", "150"},
		{"deep-2x30", 2, 30, "100", "150"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := trustgraph.New()
			s, d := acct(1), acct(2)
			next := uint64(100)
			for w := 0; w < tc.width; w++ {
				prev := s
				for l := 0; l < tc.length; l++ {
					next++
					if err := g.SetTrust(acct(next), prev, amount.USD, val(tc.limit)); err != nil {
						t.Fatal(err)
					}
					prev = acct(next)
				}
				if err := g.SetTrust(d, prev, amount.USD, val(tc.limit)); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := New(g, orderbook.New()).FindPayment(s, d, amount.USD, usd(tc.pay))
			if err != nil {
				t.Fatal(err)
			}
			if plan.Delivered.Cmp(val(tc.pay)) != 0 {
				t.Fatalf("delivered %s, want %s", plan.Delivered, tc.pay)
			}
			if len(plan.Paths) != 2 {
				t.Fatalf("parallel paths = %d, want 2", len(plan.Paths))
			}
			for _, p := range plan.Paths {
				if p.Hops != tc.length {
					t.Errorf("path hops = %d, want %d", p.Hops, tc.length)
				}
			}
		})
	}
}

func TestMaxPathsBound(t *testing.T) {
	// 8 disjoint 1-hop branches of capacity 1; with MaxPaths(3) only 3
	// can be used.
	g := trustgraph.New()
	s, d := acct(100), acct(101)
	for i := uint64(0); i < 8; i++ {
		m := acct(10 + i)
		if err := g.SetTrust(m, s, amount.USD, val("1")); err != nil {
			t.Fatal(err)
		}
		if err := g.SetTrust(d, m, amount.USD, val("1")); err != nil {
			t.Fatal(err)
		}
	}
	f := New(g, orderbook.New(), withMaxPaths(3))
	plan, err := f.FindPayment(s, d, amount.USD, usd("8"))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Paths) != 3 {
		t.Errorf("paths = %d, want 3 (bounded)", len(plan.Paths))
	}
	if plan.Delivered.Cmp(val("3")) != 0 {
		t.Errorf("delivered %s, want 3", plan.Delivered)
	}
}

func TestMaxHopsBound(t *testing.T) {
	// Chain with 4 intermediaries; MaxHops(3) cannot reach.
	g := trustgraph.New()
	nodes := []addr.AccountID{acct(1), acct(2), acct(3), acct(4), acct(5), acct(6)}
	for i := 0; i+1 < len(nodes); i++ {
		// value flows nodes[i] → nodes[i+1], so nodes[i+1] trusts nodes[i]
		if err := g.SetTrust(nodes[i+1], nodes[i], amount.USD, val("10")); err != nil {
			t.Fatal(err)
		}
	}
	short := New(g, orderbook.New(), WithMaxHops(3))
	if _, err := short.FindPayment(nodes[0], nodes[5], amount.USD, usd("1")); !errors.Is(err, ErrNoPath) {
		t.Errorf("4-intermediary path found with MaxHops=3: %v", err)
	}
	long := New(g, orderbook.New(), WithMaxHops(4))
	plan, err := long.FindPayment(nodes[0], nodes[5], amount.USD, usd("1"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Paths[0].Hops != 4 {
		t.Errorf("hops = %d, want 4", plan.Paths[0].Hops)
	}
}

func TestNoPath(t *testing.T) {
	g := trustgraph.New()
	a, b := acct(1), acct(2)
	if err := g.SetTrust(a, b, amount.USD, val("10")); err != nil {
		t.Fatal(err)
	}
	f := New(g, orderbook.New())
	// Wrong direction: B never trusted A.
	if _, err := f.FindPayment(a, b, amount.USD, usd("1")); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
	// Disconnected destination.
	if _, err := f.FindPayment(a, acct(99), amount.USD, usd("1")); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath", err)
	}
}

func TestFindPaymentValidation(t *testing.T) {
	f := New(trustgraph.New(), orderbook.New())
	if _, err := f.FindPayment(acct(1), acct(1), amount.USD, usd("1")); err == nil {
		t.Error("self-payment accepted")
	}
	if _, err := f.FindPayment(acct(1), acct(2), amount.USD, usd("0")); err == nil {
		t.Error("zero payment accepted")
	}
}

// crossSetup builds: sender src holds EUR trust route to market maker mm;
// mm sells USD for EUR; destination dst trusts mm in USD.
func crossSetup(t *testing.T) (*Finder, addr.AccountID, addr.AccountID, addr.AccountID) {
	t.Helper()
	g := trustgraph.New()
	books := orderbook.New()
	src, mm, dst := acct(1), acct(2), acct(3)
	// src can move EUR to mm: mm trusts src in EUR.
	if err := g.SetTrust(mm, src, amount.EUR, val("1000")); err != nil {
		t.Fatal(err)
	}
	// mm can move USD to dst: dst trusts mm in USD.
	if err := g.SetTrust(dst, mm, amount.USD, val("1000")); err != nil {
		t.Fatal(err)
	}
	// mm's offer: sells 100 USD for 90 EUR (taker pays EUR, gets USD).
	err := books.Place(&orderbook.Offer{
		Owner: mm, Seq: 1,
		Pays: amount.New(amount.EUR, val("90")),
		Gets: amount.New(amount.USD, val("100")),
	})
	if err != nil {
		t.Fatal(err)
	}
	return New(g, books), src, mm, dst
}

func TestCrossCurrencyDirectBook(t *testing.T) {
	f, src, mm, dst := crossSetup(t)
	plan, err := f.FindPayment(src, dst, amount.EUR, usd("50"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delivered.Cmp(val("50")) != 0 {
		t.Errorf("delivered %s, want 50", plan.Delivered)
	}
	// 50 USD at 0.9 EUR/USD = 45 EUR.
	if plan.SourceCost.Cmp(val("45")) != 0 {
		t.Errorf("source cost %s EUR, want 45", plan.SourceCost)
	}
	if !plan.UsedBridge {
		t.Error("cross-currency plan not marked as bridged")
	}
	if len(plan.Quotes) != 1 {
		t.Fatalf("quotes = %d, want 1", len(plan.Quotes))
	}
	if plan.Quotes[0].Fills[0].Offer.Owner != mm {
		t.Error("bridge offer not the market maker's")
	}
	// The market maker appears as an intermediate hop.
	if len(plan.Paths) != 1 || plan.Paths[0].Hops < 1 {
		t.Errorf("paths = %+v, want the MM as intermediate hop", plan.Paths)
	}
}

func TestCrossCurrencyInsufficientBook(t *testing.T) {
	f, src, _, dst := crossSetup(t)
	// The book only has 100 USD of liquidity.
	if _, err := f.FindPayment(src, dst, amount.EUR, usd("150")); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath for oversize conversion", err)
	}
}

func TestCrossCurrencyNeedsTrustLegs(t *testing.T) {
	// Book exists but src has no trust route to the MM: plan must fail.
	g := trustgraph.New()
	books := orderbook.New()
	src, mm, dst := acct(1), acct(2), acct(3)
	if err := g.SetTrust(dst, mm, amount.USD, val("1000")); err != nil {
		t.Fatal(err)
	}
	err := books.Place(&orderbook.Offer{
		Owner: mm, Seq: 1,
		Pays: amount.New(amount.EUR, val("90")),
		Gets: amount.New(amount.USD, val("100")),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New(g, books)
	if _, err := f.FindPayment(src, dst, amount.EUR, usd("10")); !errors.Is(err, ErrNoPath) {
		t.Errorf("err = %v, want ErrNoPath without a source trust leg", err)
	}
}

func TestAutoBridgeViaXRP(t *testing.T) {
	// No direct EUR→USD book; instead EUR→XRP and XRP→USD books exist.
	g := trustgraph.New()
	books := orderbook.New()
	src, mm1, mm2, dst := acct(1), acct(2), acct(3), acct(4)
	if err := g.SetTrust(mm1, src, amount.EUR, val("1000")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTrust(dst, mm2, amount.USD, val("1000")); err != nil {
		t.Fatal(err)
	}
	// mm1 sells XRP for EUR: taker pays EUR, gets XRP. 1 EUR = 100 XRP.
	err := books.Place(&orderbook.Offer{
		Owner: mm1, Seq: 1,
		Pays: amount.New(amount.EUR, val("100")),
		Gets: amount.New(amount.XRP, val("10000")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// mm2 sells USD for XRP: taker pays XRP, gets USD. 100 XRP = 1 USD.
	err = books.Place(&orderbook.Offer{
		Owner: mm2, Seq: 1,
		Pays: amount.New(amount.XRP, val("20000")),
		Gets: amount.New(amount.USD, val("200")),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New(g, books)
	plan, err := f.FindPayment(src, dst, amount.EUR, usd("50"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delivered.Cmp(val("50")) != 0 {
		t.Errorf("delivered %s, want 50", plan.Delivered)
	}
	if len(plan.Quotes) != 2 {
		t.Fatalf("quotes = %d, want 2 (auto-bridge)", len(plan.Quotes))
	}
	// 50 USD needs 5000 XRP, which needs 50 EUR.
	if plan.SourceCost.Cmp(val("50")) != 0 {
		t.Errorf("source cost %s EUR, want 50", plan.SourceCost)
	}
}

func TestSameCurrencyBridgeFallback(t *testing.T) {
	// No USD trust path from src to dst at all: src reaches only mm1
	// and dst trusts only mm2. USD↔XRP books at the two market makers
	// let offers carry the payment (sell USD for XRP at mm1, buy USD
	// back at mm2) — the paper's "exchange offers make up for the lack
	// of direct trust".
	g := trustgraph.New()
	books := orderbook.New()
	src, mm1, mm2, dst := acct(1), acct(2), acct(3), acct(4)
	if err := g.SetTrust(mm1, src, amount.USD, val("1000")); err != nil {
		t.Fatal(err)
	}
	if err := g.SetTrust(dst, mm2, amount.USD, val("1000")); err != nil {
		t.Fatal(err)
	}
	// mm1 sells XRP for USD (entry leg: taker pays USD, gets XRP).
	err := books.Place(&orderbook.Offer{
		Owner: mm1, Seq: 1,
		Pays: amount.New(amount.USD, val("100")),
		Gets: amount.New(amount.XRP, val("10000")),
	})
	if err != nil {
		t.Fatal(err)
	}
	// mm2 sells USD for XRP (exit leg: taker pays XRP, gets USD).
	err = books.Place(&orderbook.Offer{
		Owner: mm2, Seq: 1,
		Pays: amount.New(amount.XRP, val("10000")),
		Gets: amount.New(amount.USD, val("100")),
	})
	if err != nil {
		t.Fatal(err)
	}
	f := New(g, books)
	plan, err := f.FindPayment(src, dst, amount.USD, usd("10"))
	if err != nil {
		t.Fatal(err)
	}
	if plan.Delivered.Cmp(val("10")) != 0 {
		t.Fatalf("delivered %s, want 10", plan.Delivered)
	}
	if !plan.UsedBridge {
		t.Error("fallback plan not marked as bridged")
	}
	if len(plan.Quotes) != 2 {
		t.Errorf("quotes = %d, want 2 (USD→XRP→USD)", len(plan.Quotes))
	}
}

func TestPlannerDoesNotMutate(t *testing.T) {
	g, a, b, c := figure1(t)
	books := orderbook.New()
	f := New(g, books)
	before := g.Capacity(c, b, amount.USD)
	if _, err := f.FindPayment(c, a, amount.USD, usd("10")); err != nil {
		t.Fatal(err)
	}
	after := g.Capacity(c, b, amount.USD)
	if before.Cmp(after) != 0 {
		t.Errorf("planning mutated capacity: %s -> %s", before, after)
	}
	_ = b
}
