package deanon

import (
	"slices"
	"sort"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/synth"
)

// xrpPage builds a page with the given XRP payments (from, to pairs).
func xrpPage(seq uint64, tm uint32, pairs [][2]uint64) *ledger.Page {
	var txs []*ledger.Tx
	var metas []*ledger.TxMeta
	for _, pr := range pairs {
		txs = append(txs, &ledger.Tx{
			Type: ledger.TxPayment, Account: acct(pr[0]), Destination: acct(pr[1]),
			Amount: amount.XRPAmount(1_000_000),
		})
		metas = append(metas, &ledger.TxMeta{Result: ledger.ResultSuccess})
	}
	return &ledger.Page{
		Header: ledger.PageHeader{Sequence: seq, CloseTime: ledger.CloseTime(tm), TxSetHash: ledger.TxSetHash(txs)},
		Txs:    txs, Metas: metas,
	}
}

// clusterOf returns the activation cluster holding a, singletons
// included.
func clusterOf(c *Clusterer, a addr.AccountID) (Cluster, bool) {
	for _, cl := range c.Clusters(1) {
		for _, member := range cl.Accounts {
			if member == a {
				return cl, true
			}
		}
	}
	return Cluster{}, false
}

func TestActivationRecordsFirstFunderOnly(t *testing.T) {
	c := NewClusterer()
	// 1 activates 10; later 2 also pays 10 — only the first counts.
	if err := c.Page(xrpPage(2, 100, [][2]uint64{{1, 10}})); err != nil {
		t.Fatal(err)
	}
	if err := c.Page(xrpPage(3, 200, [][2]uint64{{2, 10}})); err != nil {
		t.Fatal(err)
	}
	cl, ok := clusterOf(c, acct(10))
	if !ok {
		t.Fatal("activation missing")
	}
	if cl.Activator != acct(1) {
		t.Errorf("account 10 clustered under %s, want its first funder, account 1", cl.Activator.Short())
	}
}

func TestClustersByActivator(t *testing.T) {
	c := NewClusterer()
	// Account 1 activates 10, 11, 12; account 2 activates 20.
	if err := c.Page(xrpPage(2, 100, [][2]uint64{{1, 10}, {1, 11}, {1, 12}, {2, 20}})); err != nil {
		t.Fatal(err)
	}
	clusters := c.Clusters(2)
	if len(clusters) != 1 {
		t.Fatalf("clusters = %d, want 1 (singleton filtered)", len(clusters))
	}
	want := []addr.AccountID{acct(10), acct(11), acct(12)}
	sort.Slice(want, func(i, j int) bool { return want[i].Less(want[j]) })
	if clusters[0].Activator != acct(1) || !slices.Equal(clusters[0].Accounts, want) {
		t.Errorf("cluster = %+v, want accounts 10, 11, 12 sorted under activator 1", clusters[0])
	}
	if cl, ok := clusterOf(c, acct(20)); !ok || cl.Activator != acct(2) || len(cl.Accounts) != 1 {
		t.Errorf("account 20's cluster = %+v, want a singleton under activator 2", cl)
	}
}

func TestAccountZeroExcluded(t *testing.T) {
	c := NewClusterer()
	// ACCOUNT_ZERO funds everyone: must not merge the network.
	page := &ledger.Page{Header: ledger.PageHeader{Sequence: 2, CloseTime: 5}}
	for i := uint64(1); i <= 5; i++ {
		page.Txs = append(page.Txs, &ledger.Tx{
			Type: ledger.TxPayment, Account: addr.AccountZero, Destination: acct(i),
			Amount: amount.XRPAmount(1),
		})
		page.Metas = append(page.Metas, &ledger.TxMeta{Result: ledger.ResultSuccess})
	}
	page.Header.TxSetHash = ledger.TxSetHash(page.Txs)
	if err := c.Page(page); err != nil {
		t.Fatal(err)
	}
	if got := c.Clusters(1); len(got) != 0 {
		t.Errorf("ACCOUNT_ZERO produced %d clusters", len(got))
	}
}

func TestCustomExclusion(t *testing.T) {
	c := NewClusterer(acct(99))
	if err := c.Page(xrpPage(2, 1, [][2]uint64{{99, 1}, {99, 2}})); err != nil {
		t.Fatal(err)
	}
	if got := c.Clusters(1); len(got) != 0 {
		t.Errorf("accounts clustered through an explicitly excluded activator: %+v", got)
	}
}

// TestAkhavrClusterOnSyntheticHistory reproduces the paper's §D finding:
// the two hyper-active hubs were both activated by ~akhavr, so the
// activation heuristic links them into one cluster.
func TestAkhavrClusterOnSyntheticHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a history")
	}
	c := NewClusterer()
	var pop *synth.Population
	res, err := synth.Generate(synth.Config{
		Payments: 3000, Seed: 13, SkipSignatures: true,
	}, c.Page)
	if err != nil {
		t.Fatal(err)
	}
	pop = res.Population

	hub1, hub2 := pop.Hubs[0].ID, pop.Hubs[1].ID
	akhavr := pop.Akhavr.AccountID()
	// The akhavr cluster appears in the cluster list, and holds exactly
	// the two hubs: de-anonymizing one hub hands the attacker the other
	// hub's history, and ~akhavr's, too.
	found := false
	for _, cl := range c.Clusters(2) {
		if cl.Activator == akhavr {
			found = true
			if len(cl.Accounts) != 2 || !slices.Contains(cl.Accounts, hub1) || !slices.Contains(cl.Accounts, hub2) {
				t.Errorf("akhavr cluster holds %d accounts, want the 2 hubs", len(cl.Accounts))
			}
		}
	}
	if !found {
		t.Error("akhavr cluster not found")
	}
}
