package pathfind

import (
	"errors"
	"math/rand"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/trustgraph"
)

// TestPropPlanFlowConservation builds random trust topologies, plans
// random same-currency payments, and verifies plan-level conservation:
// per intermediate node, inflow equals outflow; the source's net outflow
// and the destination's net inflow both equal Delivered; and the sum of
// per-path values equals Delivered.
func TestPropPlanFlowConservation(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	for trial := 0; trial < 60; trial++ {
		g := trustgraph.New()
		const n = 10
		accounts := make([]addr.AccountID, n)
		for i := range accounts {
			accounts[i] = addr.KeyPairFromSeed(uint64(1000*trial + i + 1)).AccountID()
		}
		for e := 0; e < 25; e++ {
			a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
			if a == b {
				continue
			}
			_, _ = g.SetTrust(a, b, amount.USD, amount.FromInt64(int64(5+r.Intn(50))))
		}
		f := New(g, orderbook.New())
		src, dst := accounts[0], accounts[1]
		want := amount.FromInt64(int64(1 + r.Intn(80)))
		plan, err := f.FindPayment(src, dst, amount.USD, amount.New(amount.USD, want))
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}

		// Net flow per account.
		net := make(map[addr.AccountID]amount.Value)
		for _, fl := range plan.TrustFlows {
			out, err := net[fl.From].Sub(fl.Value)
			if err != nil {
				t.Fatal(err)
			}
			net[fl.From] = out
			in, err := net[fl.To].Add(fl.Value)
			if err != nil {
				t.Fatal(err)
			}
			net[fl.To] = in
		}
		for a, v := range net {
			switch a {
			case src:
				if v.Neg().Cmp(plan.Delivered) != 0 {
					t.Fatalf("trial %d: source outflow %s != delivered %s", trial, v.Neg(), plan.Delivered)
				}
			case dst:
				if v.Cmp(plan.Delivered) != 0 {
					t.Fatalf("trial %d: destination inflow %s != delivered %s", trial, v, plan.Delivered)
				}
			default:
				if !v.IsZero() {
					t.Fatalf("trial %d: intermediate %s has net flow %s", trial, a.Short(), v)
				}
			}
		}
		// Path values sum to Delivered.
		sum := amount.Zero
		for _, p := range plan.Paths {
			var err error
			if sum, err = sum.Add(p.Value); err != nil {
				t.Fatal(err)
			}
		}
		if sum.Cmp(plan.Delivered) != 0 {
			t.Fatalf("trial %d: path values sum %s != delivered %s", trial, sum, plan.Delivered)
		}
		// Delivered never exceeds the request.
		if plan.Delivered.Cmp(want) > 0 {
			t.Fatalf("trial %d: delivered %s > requested %s", trial, plan.Delivered, want)
		}
	}
}

// TestPropPlanRespectsCapacities: every planned flow fits the graph's
// capacity when applied in order (exactly what the engine does).
func TestPropPlanRespectsCapacities(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	for trial := 0; trial < 60; trial++ {
		g := trustgraph.New()
		const n = 8
		accounts := make([]addr.AccountID, n)
		for i := range accounts {
			accounts[i] = addr.KeyPairFromSeed(uint64(2000*trial + i + 1)).AccountID()
		}
		for e := 0; e < 20; e++ {
			a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
			if a == b {
				continue
			}
			_, _ = g.SetTrust(a, b, amount.USD, amount.FromInt64(int64(5+r.Intn(40))))
		}
		f := New(g, orderbook.New())
		src, dst := accounts[0], accounts[1]
		plan, err := f.FindPayment(src, dst, amount.USD, amount.MustAmount("60/USD"))
		if errors.Is(err, ErrNoPath) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		// Applying the flows in order must never fail.
		for i, fl := range plan.TrustFlows {
			if err := applyFlow(g, fl.From, fl.To, fl.Currency, fl.Value); err != nil {
				t.Fatalf("trial %d: flow %d unappliable: %v", trial, i, err)
			}
		}
		if errs := g.CheckInvariants(); len(errs) != 0 {
			t.Fatalf("trial %d: invariants after apply: %v", trial, errs[0])
		}
	}
}

// TestPropShortestPathsFirst: the first path found is never longer than
// subsequent parallel paths (BFS order).
func TestPropShortestPathsFirst(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	for trial := 0; trial < 40; trial++ {
		g := trustgraph.New()
		const n = 12
		accounts := make([]addr.AccountID, n)
		for i := range accounts {
			accounts[i] = addr.KeyPairFromSeed(uint64(3000*trial + i + 1)).AccountID()
		}
		for e := 0; e < 30; e++ {
			a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
			if a == b {
				continue
			}
			_, _ = g.SetTrust(a, b, amount.USD, amount.FromInt64(int64(2+r.Intn(10))))
		}
		f := New(g, orderbook.New())
		plan, err := f.FindPayment(accounts[0], accounts[1], amount.USD, amount.MustAmount("40/USD"))
		if err != nil {
			continue
		}
		for i := 1; i < len(plan.Paths); i++ {
			if plan.Paths[i].Hops < plan.Paths[0].Hops {
				t.Fatalf("trial %d: later path shorter (%d) than first (%d): residual graph should only lengthen",
					trial, plan.Paths[i].Hops, plan.Paths[0].Hops)
			}
		}
	}
}
