// Package pathfind implements Ripple's payment routing: it searches the
// credit network for transaction paths ("a sequence of trust-lines, along
// which IOU payments travel"), splits payments across parallel paths when
// a single path lacks liquidity, and bridges currencies through order
// books — directly or via XRP, "a universal bridge between markets".
//
// The planner is pure: it never mutates the trust graph or the books.
// It produces a Plan — ordered trust flows plus order-book quotes — that
// the payment engine applies atomically.
//
// A Finder owns a reusable scratch workspace (visited/parent/frontier
// arrays over the graph's dense account indices, a flow overlay, and
// quote buffers), so the BFS and trust routing allocate nothing on the
// steady state. The search walks each expanded account's edge block
// (trustgraph.Edges): a peer already seen is skipped before its edge is
// weighed, the overlay is consulted only for an edge between two accounts
// that both carry planned flow, the block is abandoned at the destination,
// and the edge each account was reached through is remembered, so the
// bottleneck pass does not look the path's edges up again. A Finder is
// therefore NOT safe for concurrent use; spawn one Finder per goroutine
// over a shared read-only graph.
package pathfind

import (
	"errors"
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/trustgraph"
)

// Defaults bounding the search. BFS returns shortest paths first, so a
// generous hop bound does not lengthen organic routes; it only allows
// the rare absurdly long chains the paper's Figure 6(a) shows (one
// route used exactly 44 intermediate hops). Callers that want rippled's
// tighter behaviour pass WithMaxHops.
const (
	DefaultMaxHops  = 46 // maximum intermediate accounts on one path
	DefaultMaxPaths = 6  // maximum parallel paths per payment
)

// ErrNoPath is returned when no liquidity at all can be found.
var ErrNoPath = errors.New("pathfind: no path with liquidity")

// Flow is one planned trust-line movement: value flows From → To. Path
// is the index of the parallel path the flow belongs to, so consumers
// can attribute hops per path (an account on three parallel paths served
// as an intermediate hop three times).
type Flow struct {
	From, To addr.AccountID
	Currency amount.Currency
	Value    amount.Value
	Path     int
}

// PathInfo describes one parallel path for transaction metadata: the
// number of intermediate accounts and the value carried.
type PathInfo struct {
	Hops  int
	Value amount.Value
}

// Plan is an executable payment route. TrustFlows apply in order; Quotes
// consume order-book offers. Delivered may be less than requested when
// liquidity ran short — callers treat partial delivery as failure unless
// they support partial payments.
type Plan struct {
	Src, Dst    addr.AccountID
	Currency    amount.Currency // delivered currency
	SrcCurrency amount.Currency // currency the sender spends
	Delivered   amount.Value
	SourceCost  amount.Value // amount spent in SrcCurrency
	TrustFlows  []Flow
	Quotes      []orderbook.Quote
	Paths       []PathInfo
	// UsedBridge records whether the plan crossed an order book (directly
	// or via XRP) — cross-currency metadata for the analyses.
	UsedBridge bool
}

// ReadSet lists the state a plan (or a failed search) depended on: the
// accounts whose trust edges the search inspected and the order-book
// pairs it quoted. The txq quote cache validates a cached plan by
// checking that nothing in its read set has been mutated since planning
// — if the read set is untouched, re-planning against current state
// would read the exact same values and produce the exact same plan.
type ReadSet struct {
	Accounts []addr.AccountID
	Pairs    []orderbook.Pair
}

// Reset empties the read set, keeping capacity.
func (rs *ReadSet) Reset() {
	rs.Accounts = rs.Accounts[:0]
	rs.Pairs = rs.Pairs[:0]
}

// Finder searches for payment paths. The zero value is not usable; call
// New. A Finder is not safe for concurrent use (it reuses internal
// scratch buffers across calls).
type Finder struct {
	graph    *trustgraph.Graph
	books    *orderbook.Books
	maxHops  int
	maxPaths int
	record   bool

	// BFS scratch, indexed by the graph's dense account indices.
	// seen/readSeen are epoch-stamped so searches never clear them.
	epoch     uint32
	readEpoch uint32
	seen      []uint32
	readSeen  []uint32
	parent    []int32
	via       []*trustgraph.Edge // the edge parent[i] → i of the current search
	depth     []int32
	frontier  []int32
	next      []int32
	pathIdx   []int32

	ov overlay

	// Read-set accumulation for the current FindPayment (recording mode).
	readAcct []addr.AccountID
	readPair []orderbook.Pair

	// Scratch quotes for bridge probing; accepted quotes are deep-copied
	// out before the scratch is reused.
	qtmp [3]orderbook.Quote
}

// Option configures a Finder.
type Option func(*Finder)

// WithMaxHops bounds intermediate accounts per path.
func WithMaxHops(n int) Option { return func(f *Finder) { f.maxHops = n } }

// WithRecording makes every FindPayment accumulate the ReadSet of state
// it inspected, retrievable via AppendReadSet until the next call.
func WithRecording() Option { return func(f *Finder) { f.record = true } }

// New creates a Finder over a credit network and an order-book set.
func New(graph *trustgraph.Graph, books *orderbook.Books, opts ...Option) *Finder {
	f := &Finder{graph: graph, books: books, maxHops: DefaultMaxHops, maxPaths: DefaultMaxPaths}
	for _, opt := range opts {
		opt(f)
	}
	return f
}

// AppendReadSet appends the most recent FindPayment's read set into rs
// (which the caller owns). Only meaningful with WithRecording.
func (f *Finder) AppendReadSet(rs *ReadSet) {
	rs.Accounts = append(rs.Accounts, f.readAcct...)
	rs.Pairs = append(rs.Pairs, f.readPair...)
}

// ensureScratch grows the dense-index scratch arrays to cover the graph.
func (f *Finder) ensureScratch() {
	n := f.graph.NumInterned()
	if n <= len(f.seen) {
		return
	}
	f.seen = append(f.seen, make([]uint32, n-len(f.seen))...)
	f.readSeen = append(f.readSeen, make([]uint32, n-len(f.readSeen))...)
	f.parent = append(f.parent, make([]int32, n-len(f.parent))...)
	f.via = append(f.via, make([]*trustgraph.Edge, n-len(f.via))...)
	f.depth = append(f.depth, make([]int32, n-len(f.depth))...)
	f.ov.heads = append(f.ov.heads, make([]ovHead, n-len(f.ov.heads))...)
}

// noteRead records that the search inspected account u's edges.
func (f *Finder) noteRead(u int32) {
	if !f.record || f.readSeen[u] == f.readEpoch {
		return
	}
	f.readSeen[u] = f.readEpoch
	f.readAcct = append(f.readAcct, f.graph.AccountAt(u))
}

// notePair records that the search quoted an order-book pair.
func (f *Finder) notePair(p orderbook.Pair) {
	if !f.record {
		return
	}
	for _, have := range f.readPair {
		if have == p {
			return
		}
	}
	f.readPair = append(f.readPair, p)
}

// overlay tracks planned flows so capacity queries reflect in-plan usage
// without mutating the graph. The flows sit in one slice, each chained to
// the previous flow out of the same account, so a query walks only the
// flows out of its two endpoints — and walks at all only for an edge
// between two accounts that both carry planned flow; most edges a search
// weighs touch an account that carries none.
type overlay struct {
	flows []ovFlow
	// heads[a], valid while its stamp is the current epoch, marks dense
	// index a as an endpoint of some planned flow of the current payment
	// and indexes the latest flow out of it (-1 when it only receives).
	epoch uint32
	heads []ovHead
}

type ovHead struct {
	stamp uint32
	last  int32
}

// ovFlow is the net planned flow in one currency out of the account whose
// chain it is on, to `to`; prev is the chain's next index, -1 at its end.
type ovFlow struct {
	to   int32
	prev int32
	cur  amount.Currency
	v    amount.Value
}

// reset forgets every planned flow.
func (o *overlay) reset() {
	o.flows = o.flows[:0]
	o.epoch++
	if o.epoch == 0 { // epoch counter wrapped: invalidate all stamps
		clear(o.heads)
		o.epoch = 1
	}
}

// between reports whether both accounts carry planned flow — the only
// edges residual can change.
func (o *overlay) between(a, b int32) bool {
	return o.heads[a].stamp == o.epoch && o.heads[b].stamp == o.epoch
}

// flow returns the planned flow from→to, or nil. from must carry flow.
func (o *overlay) flow(from, to int32, cur amount.Currency) *ovFlow {
	for i := o.heads[from].last; i >= 0; i = o.flows[i].prev {
		if fl := &o.flows[i]; fl.to == to && fl.cur == cur {
			return fl
		}
	}
	return nil
}

// residual adjusts a base capacity from→to by the planned net flows
// between the two, which must both carry flow.
func (o *overlay) residual(base amount.Value, from, to int32, cur amount.Currency) amount.Value {
	var fwd, rev amount.Value
	if fl := o.flow(from, to, cur); fl != nil {
		fwd = fl.v
	}
	if fl := o.flow(to, from, cur); fl != nil {
		rev = fl.v
	}
	c, err := base.Sub(fwd)
	if err != nil {
		return amount.Zero
	}
	c, err = c.Add(rev)
	if err != nil {
		return amount.Zero
	}
	if c.IsNegative() {
		return amount.Zero
	}
	return c
}

func (o *overlay) addFlow(from, to int32, cur amount.Currency, v amount.Value) error {
	for _, a := range [2]int32{from, to} {
		if o.heads[a].stamp != o.epoch {
			o.heads[a] = ovHead{stamp: o.epoch, last: -1}
		}
	}
	if fl := o.flow(from, to, cur); fl != nil {
		sum, err := fl.v.Add(v)
		if err == nil {
			fl.v = sum
		}
		return err
	}
	o.flows = append(o.flows, ovFlow{to: to, prev: o.heads[from].last, cur: cur, v: v})
	o.heads[from].last = int32(len(o.flows) - 1)
	return nil
}

// residual returns what can still flow across from's edge e once the
// flows planned so far are counted.
func (f *Finder) residual(from int32, e *trustgraph.Edge, cur amount.Currency) amount.Value {
	c := e.Capacity()
	if to := e.Peer(); f.ov.between(from, to) {
		c = f.ov.residual(c, from, to, cur)
	}
	return c
}

// beginSearch resets the per-payment scratch: the overlay, the read set,
// and the read-dedup epoch.
func (f *Finder) beginSearch(src, dst addr.AccountID) {
	f.ensureScratch()
	f.ov.reset()
	if !f.record {
		return
	}
	f.readAcct = f.readAcct[:0]
	f.readPair = f.readPair[:0]
	f.readEpoch++
	if f.readEpoch == 0 {
		clear(f.readSeen)
		f.readEpoch = 1
	}
	// The endpoints' edge sets (including their absence) are always part
	// of what the search observed.
	f.recordAccount(src)
	f.recordAccount(dst)
}

// recordAccount adds an account to the read set, deduplicating interned
// accounts via the epoch stamps.
func (f *Finder) recordAccount(a addr.AccountID) {
	if i, ok := f.graph.Index(a); ok {
		f.noteRead(i)
		return
	}
	f.readAcct = append(f.readAcct, a)
}

// FindPayment plans delivery of `deliver` (in its currency) from src to
// dst. When srcCur differs from the delivery currency the plan bridges
// through order books. XRP-to-XRP payments need no path (the ledger moves
// drops directly); callers handle them before planning.
func (f *Finder) FindPayment(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) (*Plan, error) {
	f.beginSearch(src, dst)
	if src == dst {
		return nil, fmt.Errorf("pathfind: src and dst are the same account")
	}
	if !deliver.Value.IsPositive() {
		return nil, fmt.Errorf("pathfind: non-positive delivery %s", deliver)
	}
	if srcCur == deliver.Currency {
		return f.planSameCurrency(src, dst, deliver)
	}
	return f.planCrossCurrency(src, dst, srcCur, deliver)
}

// planSameCurrency routes over trust-lines only, falling back to an
// XRP auto-bridge (cur→XRP→cur through the books) for any residue the
// trust network cannot carry.
func (f *Finder) planSameCurrency(src, dst addr.AccountID, deliver amount.Amount) (*Plan, error) {
	plan := &Plan{Src: src, Dst: dst, Currency: deliver.Currency, SrcCurrency: deliver.Currency}
	delivered, err := f.routeTrust(plan, src, dst, deliver.Currency, deliver.Value)
	if err != nil {
		return nil, err
	}
	plan.Delivered = delivered
	plan.SourceCost = delivered
	if delivered.Cmp(deliver.Value) < 0 && !deliver.Currency.IsXRP() {
		// Residue: try bridging the same currency through XRP books
		// (sell cur for XRP, buy cur back). This is how offers "make up
		// for the lack of direct trust on a particular currency".
		residue, err := deliver.Value.Sub(delivered)
		if err != nil {
			return nil, err
		}
		if bridged := f.tryBridge(plan, src, dst, deliver.Currency, amount.New(deliver.Currency, residue)); bridged != nil {
			plan = bridged
		}
	}
	if plan.Delivered.IsZero() {
		return nil, ErrNoPath
	}
	return plan, nil
}

// routeTrust finds up to maxPaths augmenting paths carrying `want` from
// src to dst in cur, appending flows and path metadata to the plan.
// Returns the total value routed.
func (f *Finder) routeTrust(plan *Plan, src, dst addr.AccountID, cur amount.Currency, want amount.Value) (amount.Value, error) {
	f.recordAccount(src)
	f.recordAccount(dst)
	srcIdx, ok := f.graph.Index(src)
	if !ok {
		return amount.Zero, nil
	}
	dstIdx, ok := f.graph.Index(dst)
	if !ok {
		return amount.Zero, nil
	}
	total := amount.Zero
	remaining := want
	for len(plan.Paths) < f.maxPaths && remaining.IsPositive() {
		path := f.shortestPath(srcIdx, dstIdx, cur)
		if path == nil {
			break
		}
		// Bottleneck along the path, capped at the remaining need.
		bottleneck := remaining
		for i := 0; i+1 < len(path); i++ {
			bottleneck = bottleneck.Min(f.residual(path[i], f.via[path[i+1]], cur))
		}
		if !bottleneck.IsPositive() {
			break
		}
		// Reserve the whole path's flows at once: one growth per path
		// instead of log(len) incremental doublings.
		if need := len(path) - 1; cap(plan.TrustFlows)-len(plan.TrustFlows) < need {
			grown := make([]Flow, len(plan.TrustFlows), len(plan.TrustFlows)+need)
			copy(grown, plan.TrustFlows)
			plan.TrustFlows = grown
		}
		for i := 0; i+1 < len(path); i++ {
			plan.TrustFlows = append(plan.TrustFlows, Flow{
				From: f.graph.AccountAt(path[i]), To: f.graph.AccountAt(path[i+1]),
				Currency: cur, Value: bottleneck,
				Path: len(plan.Paths),
			})
			if err := f.ov.addFlow(path[i], path[i+1], cur, bottleneck); err != nil {
				return amount.Zero, fmt.Errorf("pathfind: overlay: %w", err)
			}
		}
		plan.Paths = append(plan.Paths, PathInfo{Hops: len(path) - 2, Value: bottleneck})
		var err error
		if total, err = total.Add(bottleneck); err != nil {
			return amount.Zero, err
		}
		if remaining, err = remaining.Sub(bottleneck); err != nil {
			return amount.Zero, err
		}
	}
	return total, nil
}

// shortestPath runs a BFS from src to dst over edges with positive
// residual capacity, bounded by maxHops intermediate accounts. It
// returns the dense-index node list src..dst (valid until the next
// search), or nil. All state lives in the Finder's scratch arrays:
// the steady state allocates nothing.
func (f *Finder) shortestPath(src, dst int32, cur amount.Currency) []int32 {
	f.epoch++
	if f.epoch == 0 { // epoch counter wrapped: invalidate all stamps
		clear(f.seen)
		f.epoch = 1
	}
	e := f.epoch
	f.seen[src] = e
	f.depth[src] = 0
	frontier := f.frontier[:0]
	frontier = append(frontier, src)
	next := f.next[:0]
	maxLen := int32(f.maxHops + 1) // edges allowed = intermediate hops + 1
	defer func() {
		// Keep grown buffers for the next search.
		f.frontier = frontier[:0]
		f.next = next[:0]
	}()
	for len(frontier) > 0 {
		next = next[:0]
		for _, u := range frontier {
			du := f.depth[u]
			if du >= maxLen {
				continue
			}
			f.noteRead(u)
			found := false
			edges := f.graph.Edges(u, cur)
			for i := range edges {
				peer := edges[i].Peer()
				if f.seen[peer] == e {
					continue
				}
				if !f.residual(u, &edges[i], cur).IsPositive() {
					continue
				}
				f.seen[peer] = e
				f.parent[peer] = u
				f.via[peer] = &edges[i]
				f.depth[peer] = du + 1
				if peer == dst {
					found = true
					break
				}
				next = append(next, peer)
			}
			if found {
				// Reconstruct into the path scratch buffer.
				rev := f.pathIdx[:0]
				for at := dst; ; at = f.parent[at] {
					rev = append(rev, at)
					if at == src {
						break
					}
				}
				for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
					rev[i], rev[j] = rev[j], rev[i]
				}
				f.pathIdx = rev
				return rev
			}
		}
		frontier, next = next, frontier
	}
	return nil
}

// quoteBuy quotes the book into one of the Finder's scratch quotes,
// recording the pair read.
func (f *Finder) quoteBuy(slot int, pair orderbook.Pair, want amount.Value) (*orderbook.Quote, error) {
	f.notePair(pair)
	q := &f.qtmp[slot]
	if err := f.books.QuoteBuyInto(pair, want, q); err != nil {
		return nil, err
	}
	return q, nil
}

// cloneQuote deep-copies a scratch quote for inclusion in a plan.
func cloneQuote(q *orderbook.Quote) orderbook.Quote {
	out := *q
	out.Fills = append([]orderbook.Fill(nil), q.Fills...)
	return out
}

// bridgeQuote finds the cheapest conversion of srcCur into `deliver`:
// the direct book, or an XRP auto-bridge composing two books. It returns
// the quotes (1 or 2) and the source-currency cost, or ok=false when no
// liquidity exists.
func (f *Finder) bridgeQuote(srcCur amount.Currency, deliver amount.Amount) (quotes []orderbook.Quote, cost amount.Value, ok bool) {
	var bestQuotes []orderbook.Quote
	var bestCost amount.Value
	haveBest := false

	// Direct book: taker pays srcCur, receives deliver.Currency.
	direct, err := f.quoteBuy(0, orderbook.Pair{Pays: srcCur, Gets: deliver.Currency}, deliver.Value)
	if err == nil && direct.TotalGets.Cmp(deliver.Value) == 0 {
		bestQuotes = []orderbook.Quote{cloneQuote(direct)}
		bestCost = direct.TotalPays
		haveBest = true
	}

	// Auto-bridge via XRP: buy deliver with XRP, then buy that XRP with
	// srcCur. Skipped when either leg is already XRP.
	if !srcCur.IsXRP() && !deliver.Currency.IsXRP() {
		leg2, err2 := f.quoteBuy(1, orderbook.Pair{Pays: amount.XRP, Gets: deliver.Currency}, deliver.Value)
		if err2 == nil && leg2.TotalGets.Cmp(deliver.Value) == 0 {
			leg1, err1 := f.quoteBuy(2, orderbook.Pair{Pays: srcCur, Gets: amount.XRP}, leg2.TotalPays)
			if err1 == nil && leg1.TotalGets.Cmp(leg2.TotalPays) == 0 {
				if !haveBest || leg1.TotalPays.Cmp(bestCost) < 0 {
					bestQuotes = []orderbook.Quote{cloneQuote(leg1), cloneQuote(leg2)}
					bestCost = leg1.TotalPays
					haveBest = true
				}
			}
		}
	}
	if !haveBest {
		return nil, amount.Zero, false
	}
	return bestQuotes, bestCost, true
}

// planCrossCurrency bridges srcCur→deliver.Currency through books, then
// routes the source side src→(offer owners) and the delivery side
// (offer owners)→dst over trust-lines.
func (f *Finder) planCrossCurrency(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) (*Plan, error) {
	plan := &Plan{Src: src, Dst: dst, Currency: deliver.Currency, SrcCurrency: srcCur}
	out := f.tryBridge(plan, src, dst, srcCur, deliver)
	if out == nil || out.Delivered.IsZero() {
		return nil, ErrNoPath
	}
	return out, nil
}

// tryBridge attempts to add a bridged route for `deliver` to the plan.
// It returns the updated plan, or nil when bridging is impossible.
//
// Routing model: the sender moves srcCur to each consumed offer's owner
// over trust-lines (unless the leg is XRP, which transfers freely), the
// conversion happens at the owner, and the owner moves the delivery
// currency to the destination over trust-lines. A leg with no trust route
// voids the bridge.
func (f *Finder) tryBridge(plan *Plan, src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) *Plan {
	quotes, cost, ok := f.bridgeQuote(srcCur, deliver)
	if !ok {
		return nil
	}
	// Snapshot plan state for rollback-free trial: work on a copy.
	trial := *plan
	trial.TrustFlows = append([]Flow(nil), plan.TrustFlows...)
	trial.Paths = append([]PathInfo(nil), plan.Paths...)
	trial.Quotes = append([]orderbook.Quote(nil), plan.Quotes...)

	entry := quotes[0]            // sender pays srcCur into this quote's offers
	exit := quotes[len(quotes)-1] // delivery currency comes out of this quote's offers

	// Source leg: src → each entry-offer owner, in srcCur.
	if !srcCur.IsXRP() {
		for _, fill := range entry.Fills {
			owner := fill.Offer.Owner
			if owner == src {
				continue // self-owned offer: no movement needed
			}
			savedPaths := len(trial.Paths)
			routed, err := f.routeTrust(&trial, src, owner, srcCur, fill.Pays)
			if err != nil || routed.Cmp(fill.Pays) < 0 {
				return nil
			}
			// Source-side hops are part of the overall path; fold their
			// path records into bridge accounting below by trimming the
			// separate entries (we count one logical path per fill).
			trial.Paths = trial.Paths[:savedPaths]
		}
	}
	// Delivery leg: each exit-offer owner → dst, in deliver.Currency.
	exitHops := 0
	if !deliver.Currency.IsXRP() {
		for _, fill := range exit.Fills {
			owner := fill.Offer.Owner
			if owner == dst {
				continue
			}
			savedPaths := len(trial.Paths)
			routed, err := f.routeTrust(&trial, owner, dst, deliver.Currency, fill.Gets)
			if err != nil || routed.Cmp(fill.Gets) < 0 {
				return nil
			}
			for _, p := range trial.Paths[savedPaths:] {
				if p.Hops > exitHops {
					exitHops = p.Hops
				}
			}
			trial.Paths = trial.Paths[:savedPaths]
		}
	}
	trial.Quotes = append(trial.Quotes, quotes...)
	// Record one logical parallel path per exit fill; each crosses the
	// offer owner (1 hop) plus any trust hops on the delivery leg.
	for _, fill := range exit.Fills {
		trial.Paths = append(trial.Paths, PathInfo{Hops: 1 + exitHops, Value: fill.Gets})
	}
	var err error
	if trial.Delivered, err = trial.Delivered.Add(deliver.Value); err != nil {
		return nil
	}
	if trial.SourceCost, err = trial.SourceCost.Add(cost); err != nil {
		return nil
	}
	trial.UsedBridge = true
	return &trial
}
