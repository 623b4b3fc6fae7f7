package pathfind

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/trustgraph"
)

// line builds a trust chain a0←a1←…←aN so aN can pay a0.
func line(t *testing.T, n int) (*trustgraph.Graph, []addr.AccountID) {
	t.Helper()
	g := trustgraph.New()
	accts := make([]addr.AccountID, n)
	for i := range accts {
		accts[i] = acct(uint64(100 + i))
	}
	for i := 0; i+1 < len(accts); i++ {
		if _, err := g.SetTrust(accts[i], accts[i+1], amount.USD, val("1000")); err != nil {
			t.Fatal(err)
		}
	}
	return g, accts
}

// planCase is one payment of planWorld.
type planCase struct {
	name     string
	src, dst addr.AccountID
	srcCur   amount.Currency
	deliver  amount.Amount
}

// planWorld is one network holding the payments the plan-storage tests
// search, each on its own accounts: a long single path, a payment that
// splits over DefaultMaxPaths parallel paths of six hops, and an XRP
// auto-bridged payment.
func planWorld(t *testing.T) (*trustgraph.Graph, *orderbook.Books, []planCase) {
	t.Helper()
	g, chain := line(t, 12)
	books := orderbook.New()
	addChains(t, g, acct(200), acct(201), DefaultMaxPaths, 6, "1", 300)
	addAutoBridge(t, g, books, acct(400), acct(401), acct(402), acct(403))
	return g, books, []planCase{
		{"line", chain[len(chain)-1], chain[0], amount.USD, usd("5")},
		{"parallel", acct(200), acct(201), amount.USD, usd("6")},
		{"bridged", acct(400), acct(403), amount.EUR, usd("50")},
	}
}

// clonePlan deep-copies a plan out of its Finder's storage, with empty
// slices as nil, so plans compare by content.
func clonePlan(p *Plan) *Plan {
	if p == nil {
		return nil
	}
	c := *p
	c.TrustFlows = append([]Flow(nil), p.TrustFlows...)
	c.Paths = append([]PathInfo(nil), p.Paths...)
	c.Quotes = nil
	for _, q := range p.Quotes {
		q.Fills = append([]orderbook.Fill(nil), q.Fills...)
		c.Quotes = append(c.Quotes, q)
	}
	return &c
}

// TestFindPaymentSteadyStateAllocs pins that a warm Finder plans without
// allocating: the BFS scratch, the overlay, and the plan it returns with
// its flows, paths, quotes and fills all reuse storage earlier searches
// grew.
func TestFindPaymentSteadyStateAllocs(t *testing.T) {
	g, books, cases := planWorld(t)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := New(g, books)
			plan, err := f.FindPayment(tc.src, tc.dst, tc.srcCur, tc.deliver)
			if err != nil {
				t.Fatal(err)
			}
			switch tc.name {
			case "parallel":
				if len(plan.Paths) != DefaultMaxPaths || plan.Paths[0].Hops != 6 {
					t.Fatalf("paths %v, want %d of 6 hops", plan.Paths, DefaultMaxPaths)
				}
			case "bridged":
				if len(plan.Quotes) != 2 || !plan.UsedBridge {
					t.Fatalf("quotes %v, want the two legs of an XRP bridge", plan.Quotes)
				}
			}
			allocs := testing.AllocsPerRun(200, func() {
				if _, err := f.FindPayment(tc.src, tc.dst, tc.srcCur, tc.deliver); err != nil {
					t.Fatal(err)
				}
			})
			if allocs != 0 {
				t.Errorf("FindPayment allocates %.1f per call, want 0", allocs)
			}
		})
	}
}

// TestPlanFlowsGrowGeometrically pins how a plan outgrows its storage:
// six seven-flow paths planned into storage sized for one path take
// ⌈log2 6⌉ = 3 growths, not one per path.
func TestPlanFlowsGrowGeometrically(t *testing.T) {
	g, books, cases := planWorld(t)
	tc := cases[1] // the parallel payment
	f := New(g, books)
	if _, err := f.FindPayment(tc.src, tc.dst, tc.srcCur, tc.deliver); err != nil {
		t.Fatal(err) // warm every other buffer
	}
	allocs := testing.AllocsPerRun(50, func() {
		f.plan.TrustFlows = f.plan.TrustFlows[:0:7]
		if _, err := f.FindPayment(tc.src, tc.dst, tc.srcCur, tc.deliver); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 3 {
		t.Errorf("flows grew %.1f times from one path to %d, want ≤ 3", allocs, DefaultMaxPaths)
	}
}

// TestPlanValidUntilNextSearch pins the plan's lifetime on one Finder: a
// search overwrites the plan the previous one returned, and nothing of
// it leaks into the next plan — searching a payment again after another
// gives back what a copy of its first plan holds.
func TestPlanValidUntilNextSearch(t *testing.T) {
	g, books, cases := planWorld(t)
	f := New(g, books)
	for _, a := range cases {
		for _, b := range cases {
			if a == b {
				continue
			}
			first, err := f.FindPayment(a.src, a.dst, a.srcCur, a.deliver)
			if err != nil {
				t.Fatal(err)
			}
			want := clonePlan(first)
			if _, err := f.FindPayment(b.src, b.dst, b.srcCur, b.deliver); err != nil {
				t.Fatal(err)
			}
			again, err := f.FindPayment(a.src, a.dst, a.srcCur, a.deliver)
			if err != nil {
				t.Fatal(err)
			}
			if got := clonePlan(again); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s after %s: plan %+v, first search %+v", a.name, b.name, got, want)
			}
		}
	}
}

// TestMarkEpochWrap pins the destination marks across their stamp
// counter's wrap: before each payment the counter is set to its last
// value, so the payment's first marking wraps it while the marks of the
// previous payment's destinations still hold small stamps. Every plan
// and read set must be the one a fresh Finder produces.
func TestMarkEpochWrap(t *testing.T) {
	r := rand.New(rand.NewSource(1841))
	w := newHubWorld(r, 41)
	f := New(w.g, w.books, WithRecording())
	marked := 0
	for n := 0; n < 120; n++ {
		src, dst, srcCur, deliver, _ := w.payment(r)
		if src == dst {
			continue
		}
		f.markEpoch = math.MaxUint32
		got, err := f.FindPayment(src, dst, srcCur, deliver)
		if f.markEpoch != math.MaxUint32 {
			marked++
		}
		fresh := New(w.g, w.books, WithRecording())
		want, wantErr := fresh.FindPayment(src, dst, srcCur, deliver)
		if !reflect.DeepEqual(clonePlan(got), clonePlan(want)) || (err == nil) != (wantErr == nil) {
			t.Fatalf("payment %d (%s→%s %s): plan %v (err %v), fresh Finder %v (err %v)", n, src.Short(), dst.Short(), deliver, got, err, want, wantErr)
		}
		var gotRS, wantRS ReadSet
		f.AppendReadSet(&gotRS)
		fresh.AppendReadSet(&wantRS)
		if !reflect.DeepEqual(gotRS, wantRS) {
			t.Fatalf("payment %d (%s→%s %s): read set %v, fresh Finder %v", n, src.Short(), dst.Short(), deliver, gotRS, wantRS)
		}
	}
	if marked < 60 {
		t.Fatalf("only %d of 120 payments marked a destination's neighbours", marked)
	}
}

// TestReadSetRecordsTrustSearch pins read-set capture for the quote
// cache's validity check: the endpoints and every account whose
// edges the BFS expanded must be present.
func TestReadSetRecordsTrustSearch(t *testing.T) {
	g, accts := line(t, 5)
	f := New(g, orderbook.New(), WithRecording())
	src, dst := accts[4], accts[0]
	if _, err := f.FindPayment(src, dst, amount.USD, usd("5")); err != nil {
		t.Fatal(err)
	}
	var rs ReadSet
	f.AppendReadSet(&rs)
	have := make(map[addr.AccountID]bool, len(rs.Accounts))
	for _, a := range rs.Accounts {
		have[a] = true
	}
	// The path crosses every chain account; all of them were either
	// expanded or are endpoints.
	for i, a := range accts {
		if !have[a] {
			t.Errorf("read set missing chain account %d", i)
		}
	}
	if len(rs.Pairs) != 0 {
		t.Errorf("pure trust search read %d book pairs, want 0", len(rs.Pairs))
	}
}

// TestReadSetRecordsFailedSearch pins that a PathDry search still
// certifies its reads — including endpoints not present in the graph
// and the (empty) book pairs probed for a bridge.
func TestReadSetRecordsFailedSearch(t *testing.T) {
	g, accts := line(t, 3)
	f := New(g, orderbook.New(), WithRecording())
	ghost := acct(999) // never interned
	if _, err := f.FindPayment(accts[2], ghost, amount.USD, usd("5")); err == nil {
		t.Fatal("payment to an unknown account found a path")
	}
	var rs ReadSet
	f.AppendReadSet(&rs)
	found := false
	for _, a := range rs.Accounts {
		if a == ghost {
			found = true
		}
	}
	if !found {
		t.Error("read set missing the absent destination — a later TrustSet creating it would not invalidate the PathDry verdict")
	}

	// Cross-currency search with empty books must record the probed
	// pairs, so a later offer placement invalidates the plan.
	if _, err := f.FindPayment(accts[2], accts[0], amount.EUR, usd("5")); err == nil {
		t.Fatal("cross-currency payment with no books found a path")
	}
	rs.Reset()
	f.AppendReadSet(&rs)
	wantPairs := map[orderbook.Pair]bool{
		{Pays: amount.EUR, Gets: amount.USD}: false,
		{Pays: amount.XRP, Gets: amount.USD}: false,
	}
	for _, p := range rs.Pairs {
		if _, ok := wantPairs[p]; ok {
			wantPairs[p] = true
		}
	}
	for p, seen := range wantPairs {
		if !seen {
			t.Errorf("read set missing probed empty book %s", p)
		}
	}
}

// TestReadSetResetBetweenSearches pins that consecutive searches don't
// leak reads into each other.
func TestReadSetResetBetweenSearches(t *testing.T) {
	g, accts := line(t, 6)
	f := New(g, orderbook.New(), WithRecording())
	if _, err := f.FindPayment(accts[5], accts[0], amount.USD, usd("5")); err != nil {
		t.Fatal(err)
	}
	// A direct one-hop search afterwards must not still list the whole
	// chain.
	if _, err := f.FindPayment(accts[1], accts[0], amount.USD, usd("5")); err != nil {
		t.Fatal(err)
	}
	var rs ReadSet
	f.AppendReadSet(&rs)
	for _, a := range rs.Accounts {
		if a == accts[5] {
			t.Error("read set leaked the previous search's source")
		}
	}
}
