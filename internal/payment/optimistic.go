package payment

import (
	"sync"
	"sync/atomic"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
)

// Optimistic executes batches of transactions with the pathfinding done
// ahead of the commits: Plan runs the pathfinder for every indirect
// payment of a batch over the engine's current state, on worker
// goroutines, reading only; Commit then applies the batch one
// transaction at a time, in order. Each plan carries the read set its
// search depended on (accounts whose trust edges were inspected,
// order-book pairs quoted — a search that found nothing has one too, and
// it certifies the PathDry verdict). A commit records what it mutated;
// a later payment of the batch whose read set meets those records is
// planned again by Engine.Apply against live state. The planner is
// deterministic and runs at the bounds Apply's own finder uses, so an
// untouched read set means the plan is the one Apply would have computed
// and every TxMeta and the state reached are exactly those of calling
// Engine.Apply in the same order. Commit also returns the hash of the
// transaction as applied — the engine computes it once, to fold into the
// state digest — so callers that index outcomes by hash do not hash again.
//
// XRP balances, fees and sequence numbers are not tracked: the planner
// never reads them and every commit checks them live.
//
// An Optimistic is driven by one goroutine. Plan only reads the engine,
// so its caller may share the engine with other readers meanwhile;
// Commit writes it.
type Optimistic struct {
	eng     *Engine
	finders []*pathfind.Finder

	// The batch in flight: its transactions, one route per transaction
	// (reused from batch to batch), the indices Plan fans out, and the
	// commit cursor.
	txs    []*ledger.Tx
	routes []route
	todo   []int
	next   int
	filled ledger.Tx

	dirtyAcct map[addr.AccountID]struct{}
	dirtyPair map[orderbook.Pair]struct{}

	// PlannedAhead counts payments committed straight from their plan,
	// Conflicts those whose plan an earlier commit of the batch
	// invalidated. Informational: they depend on batch boundaries, the
	// outcomes do not.
	PlannedAhead, Conflicts int
}

// route is what Plan leaves for one payment: the plan (nil when the
// search found no path) and the read set that certifies it.
type route struct {
	planned bool
	plan    *pathfind.Plan
	reads   pathfind.ReadSet
}

// NewOptimistic returns an executor over eng that plans on up to
// `workers` goroutines. With zero workers Plan reads no engine state and
// plans nothing: every payment is searched once, by the engine at
// commit, and the executor only records what each commit dirtied — how
// the txq front door runs it.
func NewOptimistic(eng *Engine, workers int) *Optimistic {
	x := &Optimistic{
		eng:       eng,
		finders:   make([]*pathfind.Finder, workers),
		dirtyAcct: make(map[addr.AccountID]struct{}),
		dirtyPair: make(map[orderbook.Pair]struct{}),
	}
	for i := range x.finders {
		x.finders[i] = pathfind.New(eng.graph, eng.books, pathfind.WithRecording())
	}
	return x
}

// Plan starts a batch: it forgets the previous batch's dirty sets and
// plans every indirect payment in txs against the engine as it stands.
// The engine must not change until Plan returns; txs must stay valid
// until the batch's last Commit.
func (x *Optimistic) Plan(txs []*ledger.Tx) {
	clear(x.dirtyAcct)
	clear(x.dirtyPair)
	x.txs, x.next = txs, 0
	if len(txs) > len(x.routes) {
		x.routes = append(x.routes, make([]route, len(txs)-len(x.routes))...)
	}
	x.todo = x.todo[:0]
	for i, tx := range txs {
		x.routes[i].planned = false
		if tx.Type == ledger.TxPayment && !tx.IsDirectXRP() {
			x.todo = append(x.todo, i)
		}
	}
	finders := x.finders[:min(len(x.finders), len(x.todo))]
	if len(finders) == 0 {
		return
	}
	var cursor atomic.Int64
	work := func(f *pathfind.Finder) {
		for {
			n := int(cursor.Add(1)) - 1
			if n >= len(x.todo) {
				return
			}
			tx, r := txs[x.todo[n]], &x.routes[x.todo[n]]
			plan, err := f.FindPayment(tx.Account, tx.Destination, tx.SourceCurrency(), tx.Amount)
			if err != nil {
				plan = nil
			}
			r.plan, r.planned = plan, true
			r.reads.Reset()
			f.AppendReadSet(&r.reads)
		}
	}
	// The caller takes a share itself: a batch that needs one finder
	// starts no goroutine.
	var wg sync.WaitGroup
	for _, f := range finders[1:] {
		wg.Add(1)
		go func(f *pathfind.Finder) {
			defer wg.Done()
			work(f)
		}(f)
	}
	work(finders[0])
	wg.Wait()
}

// Commit applies the batch's next transaction and returns it as applied,
// with the hash the engine computed for it, and Engine.Apply's results.
// With fillSequence the transaction is applied as a copy carrying the
// account's next sequence number; that copy is reused by the next Commit.
func (x *Optimistic) Commit(fillSequence bool) (*ledger.Tx, ledger.Hash, *ledger.TxMeta, error) {
	tx, r := x.txs[x.next], &x.routes[x.next]
	x.next++
	if fillSequence {
		x.filled = *tx
		x.filled.Sequence = x.eng.NextSequence(tx.Account)
		tx = &x.filled
	}
	// What a non-payment may mutate is marked whether or not it goes on
	// to succeed: a false mark costs one re-plan, a missed one breaks the
	// equivalence with Apply. A cancelled offer's pair can only be named
	// while the offer still stands.
	switch tx.Type {
	case ledger.TxTrustSet:
		x.dirtyAcct[tx.Account] = struct{}{}
		x.dirtyAcct[tx.LimitPeer] = struct{}{}
	case ledger.TxOfferCreate:
		x.dirtyPair[orderbook.Pair{Pays: tx.TakerPays.Currency, Gets: tx.TakerGets.Currency}] = struct{}{}
	case ledger.TxOfferCancel:
		if o := x.eng.books.Lookup(tx.Account, tx.OfferSequence); o != nil {
			x.dirtyPair[orderbook.Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}] = struct{}{}
		}
	}
	// A plan whose read set an earlier commit touched is not used: apply
	// searches again against live state.
	havePlan := r.planned && x.clean(&r.reads)
	if havePlan {
		x.PlannedAhead++
	} else if r.planned {
		x.Conflicts++
	}
	meta, hash, err := x.eng.apply(tx, r.plan, havePlan)
	// A delivered payment mutated every trust line its flows crossed and
	// every book it filled.
	if plan := x.eng.lastPlan; plan != nil {
		for _, fl := range plan.TrustFlows {
			x.dirtyAcct[fl.From] = struct{}{}
			x.dirtyAcct[fl.To] = struct{}{}
		}
		for _, q := range plan.Quotes {
			x.dirtyPair[q.Pair] = struct{}{}
		}
	}
	return tx, hash, meta, err
}

// clean reports whether no commit of this batch has touched the read set.
func (x *Optimistic) clean(rs *pathfind.ReadSet) bool {
	if len(x.dirtyAcct) > 0 {
		for _, a := range rs.Accounts {
			if _, dirty := x.dirtyAcct[a]; dirty {
				return false
			}
		}
	}
	if len(x.dirtyPair) > 0 {
		for _, p := range rs.Pairs {
			if _, dirty := x.dirtyPair[p]; dirty {
				return false
			}
		}
	}
	return true
}

// Dirty returns the accounts and book pairs the batch's commits so far
// may have mutated. The maps are the executor's own: read them before
// the next Plan.
func (x *Optimistic) Dirty() (map[addr.AccountID]struct{}, map[orderbook.Pair]struct{}) {
	return x.dirtyAcct, x.dirtyPair
}
