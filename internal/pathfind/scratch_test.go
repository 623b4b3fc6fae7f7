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
		if err := g.SetTrust(accts[i], accts[i+1], amount.USD, val("1000")); err != nil {
			t.Fatal(err)
		}
	}
	return g, accts
}

// TestFindPaymentSteadyStateAllocs pins the tentpole contract: after a
// warm-up search sizes the Finder's scratch workspace, repeated trust
// routing allocates only the returned Plan — the BFS itself (visited,
// parent, frontier, overlay) allocates nothing.
func TestFindPaymentSteadyStateAllocs(t *testing.T) {
	g, accts := line(t, 12)
	f := New(g, orderbook.New())
	src, dst := accts[len(accts)-1], accts[0]
	if _, err := f.FindPayment(src, dst, amount.USD, usd("5")); err != nil {
		t.Fatal(err) // warm-up
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := f.FindPayment(src, dst, amount.USD, usd("5")); err != nil {
			t.Fatal(err)
		}
	})
	// The Plan struct, its flow slice, and its path slice are the
	// caller's result and necessarily fresh; everything else must come
	// from the workspace.
	const planAllocs = 3
	if allocs > planAllocs {
		t.Errorf("FindPayment allocates %.1f per call, want ≤ %d (plan only)", allocs, planAllocs)
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
		if !reflect.DeepEqual(got, want) || (err == nil) != (wantErr == nil) {
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
