package deanon

import (
	"sort"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/ledger"
)

// Account clustering, after the paper's §D observation: "both users have
// been 'activated' (i.e. received their first XRP payment) by a third
// Ripple user known as ~akhavr ... This suggests a possible connection
// between ~akhavr and the 2 most active nodes." Moreno-Sanchez et al.
// (the paper's [10]) generalize such linkings into clustering heuristics;
// this implementation provides the activation heuristic: accounts first
// funded by the same (non-faucet) account likely belong to one entity.

// Clusterer streams a history and groups accounts by their activator.
type Clusterer struct {
	firstFunder map[addr.AccountID]addr.AccountID
	// excluded activators (faucets/exchanges like ACCOUNT_ZERO) whose
	// funding fan-out says nothing about common ownership.
	excluded map[addr.AccountID]bool
}

// NewClusterer creates a clusterer. ACCOUNT_ZERO is excluded by default:
// it activates everyone (the genesis distribution), so clustering on it
// would merge the whole network.
func NewClusterer(exclude ...addr.AccountID) *Clusterer {
	c := &Clusterer{
		firstFunder: make(map[addr.AccountID]addr.AccountID),
		excluded:    map[addr.AccountID]bool{addr.AccountZero: true},
	}
	for _, a := range exclude {
		c.excluded[a] = true
	}
	return c
}

// Page folds one ledger page into the activation records.
func (c *Clusterer) Page(p *ledger.Page) error {
	for i, tx := range p.Txs {
		if tx.Type != ledger.TxPayment || !p.Metas[i].Result.Succeeded() {
			continue
		}
		if !tx.Amount.Currency.IsXRP() {
			continue
		}
		if _, seen := c.firstFunder[tx.Destination]; seen {
			continue
		}
		c.firstFunder[tx.Destination] = tx.Account
	}
	return nil
}

// Cluster is a set of accounts sharing a (non-excluded) activator.
type Cluster struct {
	Activator addr.AccountID
	Accounts  []addr.AccountID
}

// Clusters returns all activation clusters with at least minSize
// members, largest first. Accounts within a cluster are sorted.
func (c *Clusterer) Clusters(minSize int) []Cluster {
	byActivator := make(map[addr.AccountID][]addr.AccountID)
	for account, funder := range c.firstFunder {
		if c.excluded[funder] {
			continue
		}
		byActivator[funder] = append(byActivator[funder], account)
	}
	out := make([]Cluster, 0, len(byActivator))
	for activator, accounts := range byActivator {
		if len(accounts) < minSize {
			continue
		}
		sort.Slice(accounts, func(i, j int) bool { return accounts[i].Less(accounts[j]) })
		out = append(out, Cluster{Activator: activator, Accounts: accounts})
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Accounts) != len(out[j].Accounts) {
			return len(out[i].Accounts) > len(out[j].Accounts)
		}
		return out[i].Activator.Less(out[j].Activator)
	})
	return out
}
