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
// that both carry planned flow, and the edge each account was reached
// through is remembered, so neither the bottleneck pass nor the engine
// that applies the plan looks the path's edges up again: each planned
// flow carries the trust pair it crosses. Before it expands a layer past
// the source, the search checks the last hop: the destination's
// neighbours are marked once per routing call, and the first frontier
// account, in frontier order, that
// is marked and still has residual towards the destination is the parent
// the expansion would have given it — so the layer that reaches the
// destination (typically a gateway's thousands of lines) is never
// expanded, and the path and the accounts read stay what a full expansion
// gives. The plan lives in the Finder too: each search resets it and
// appends its flows, paths and quotes into the storage earlier searches
// grew, and a bridge trial that fails truncates the plan back to where
// the trial began. A Finder is therefore NOT safe for concurrent use;
// spawn one Finder per goroutine over a shared read-only graph.
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
// as an intermediate hop three times). Line is the trust pair the search
// crossed and FromLo whether From is its Lo endpoint, so the engine
// applies the flow (Line.ApplyFlow(FromLo, Value)) without finding the
// pair again; a pair never moves, so the pointer holds while the graph
// gains lines, and the plan is executed before the graph changes.
type Flow struct {
	From, To addr.AccountID
	Currency amount.Currency
	Value    amount.Value
	Path     int
	Line     *trustgraph.Pair
	FromLo   bool
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
	// seen/readSeen/marks are epoch-stamped so searches never clear them.
	epoch     uint32
	readEpoch uint32
	markEpoch uint32
	seen      []uint32
	readSeen  []uint32
	marks     []dstMark
	parent    []int32
	via       []*trustgraph.Edge // the edge parent[i] → i of the current search
	frontier  []int32
	next      []int32
	pathIdx   []int32

	// The destination's edge block in the currency being routed, once
	// marked (marked is reset by each routeTrust call), and the last hop
	// of the latest path found from it: the edge into the destination,
	// seen from the sender's side.
	dstEdges []trustgraph.Edge
	marked   bool
	lastHop  trustgraph.Edge

	ov overlay

	// Read-set accumulation for the current FindPayment (recording mode).
	readAcct []addr.AccountID
	readPair []orderbook.Pair

	// Scratch quotes for bridge probing; the chosen quotes are copied
	// into bridge, their fills into fills, before the scratch is reused.
	qtmp   [3]orderbook.Quote
	bridge [2]orderbook.Quote
	fills  []orderbook.Fill

	// The plan FindPayment returns, reset by each call.
	plan Plan
}

// dstMark marks an account that shares an edge with the destination:
// current while stamp is the Finder's markEpoch, with slot the index of
// that edge in the destination's block.
type dstMark struct {
	stamp uint32
	slot  int32
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
	f.marks = append(f.marks, make([]dstMark, n-len(f.marks))...)
	f.parent = append(f.parent, make([]int32, n-len(f.parent))...)
	f.via = append(f.via, make([]*trustgraph.Edge, n-len(f.via))...)
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
//
// The Finder owns the returned plan, down to its slices and its quotes'
// fills: it is valid until the next FindPayment on the same Finder, which
// overwrites it. A caller that keeps any of it longer copies it first.
func (f *Finder) FindPayment(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) (*Plan, error) {
	f.beginSearch(src, dst)
	if src == dst {
		return nil, fmt.Errorf("pathfind: src and dst are the same account")
	}
	if !deliver.Value.IsPositive() {
		return nil, fmt.Errorf("pathfind: non-positive delivery %s", deliver)
	}
	plan := &f.plan
	*plan = Plan{
		Src: src, Dst: dst, Currency: deliver.Currency, SrcCurrency: srcCur,
		TrustFlows: plan.TrustFlows[:0], Quotes: plan.Quotes[:0], Paths: plan.Paths[:0],
	}
	f.fills = f.fills[:0]
	if srcCur == deliver.Currency {
		return f.planSameCurrency(plan, deliver)
	}
	return f.planCrossCurrency(plan, deliver)
}

// planSameCurrency routes over trust-lines only, falling back to an
// XRP auto-bridge (cur→XRP→cur through the books) for any residue the
// trust network cannot carry.
func (f *Finder) planSameCurrency(plan *Plan, deliver amount.Amount) (*Plan, error) {
	delivered, err := f.routeTrust(plan, plan.Src, plan.Dst, deliver.Currency, deliver.Value)
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
		f.tryBridge(plan, deliver.Currency, amount.New(deliver.Currency, residue))
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
	f.marked = false
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
		for i := 0; i+1 < len(path); i++ {
			line, fromLo := f.via[path[i+1]].Line()
			plan.TrustFlows = append(plan.TrustFlows, Flow{
				From: f.graph.AccountAt(path[i]), To: f.graph.AccountAt(path[i+1]),
				Currency: cur, Value: bottleneck,
				Path: len(plan.Paths), Line: line, FromLo: fromLo,
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
//
// Every frontier account sits at the layer's depth, and dst is never
// seen before it is reached, so an expansion reaches dst from the first
// frontier account with positive residual towards it, having read the
// accounts up to and including that one. Past the source's layer,
// reachedFrom answers that from dst's marked neighbours before the
// layer is expanded, and the layer is expanded only when no frontier
// account reaches dst.
func (f *Finder) shortestPath(src, dst int32, cur amount.Currency) []int32 {
	f.epoch++
	if f.epoch == 0 { // epoch counter wrapped: invalidate all stamps
		clear(f.seen)
		f.epoch = 1
	}
	e := f.epoch
	f.seen[src] = e
	frontier := f.frontier[:0]
	frontier = append(frontier, src)
	next := f.next[:0]
	maxLen := int32(f.maxHops + 1) // edges allowed = intermediate hops + 1
	defer func() {
		// Keep grown buffers for the next search.
		f.frontier = frontier[:0]
		f.next = next[:0]
	}()
	for depth := int32(0); len(frontier) > 0 && depth < maxLen; depth++ {
		if depth > 0 {
			if !f.marked {
				f.markNeighbours(dst, cur)
			}
			if k := f.reachedFrom(frontier, dst, cur); k >= 0 {
				for _, u := range frontier[:k+1] {
					f.noteRead(u)
				}
				f.parent[dst] = frontier[k]
				f.via[dst] = &f.lastHop
				return f.walkBack(src, dst)
			}
		}
		next = next[:0]
		for _, u := range frontier {
			f.noteRead(u)
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
				if peer == dst { // only from src: later layers check first
					return f.walkBack(src, dst)
				}
				next = append(next, peer)
			}
		}
		frontier, next = next, frontier
	}
	return nil
}

// markNeighbours stamps every account that shares an edge with dst in
// cur, remembering which of dst's edges it is. dst's block cannot change
// while a plan is built (only the overlay moves), so one marking serves
// every search of a routeTrust call.
func (f *Finder) markNeighbours(dst int32, cur amount.Currency) {
	f.markEpoch++
	if f.markEpoch == 0 { // epoch counter wrapped: invalidate all stamps
		clear(f.marks)
		f.markEpoch = 1
	}
	f.dstEdges = f.graph.Edges(dst, cur)
	for i := range f.dstEdges {
		f.marks[f.dstEdges[i].Peer()] = dstMark{stamp: f.markEpoch, slot: int32(i)}
	}
	f.marked = true
}

// reachedFrom returns the position of the first frontier account with
// positive residual towards dst, leaving its edge to dst in lastHop, or
// -1 when none has. Each account costs one mark lookup; only a marked
// one has its edge weighed, read from dst's own block.
func (f *Finder) reachedFrom(frontier []int32, dst int32, cur amount.Currency) int {
	for k, u := range frontier {
		m := f.marks[u]
		if m.stamp != f.markEpoch {
			continue
		}
		f.lastHop = f.dstEdges[m.slot].Reverse(dst)
		if f.residual(u, &f.lastHop, cur).IsPositive() {
			return k
		}
	}
	return -1
}

// walkBack reconstructs the path src..dst from the parent links into
// the path scratch buffer.
func (f *Finder) walkBack(src, dst int32) []int32 {
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

// cloneQuote deep-copies a scratch quote into bridge[slot], its fills
// into the Finder's fill storage, for inclusion in the plan.
func (f *Finder) cloneQuote(slot int, q *orderbook.Quote) {
	start := len(f.fills)
	f.fills = append(f.fills, q.Fills...)
	f.bridge[slot] = *q
	f.bridge[slot].Fills = f.fills[start:len(f.fills):len(f.fills)]
}

// bridgeQuote finds the cheapest conversion of srcCur into `deliver`:
// the direct book, or an XRP auto-bridge composing two books. It returns
// the quotes (1 or 2, in the Finder's bridge storage) and the
// source-currency cost, or ok=false when no liquidity exists.
func (f *Finder) bridgeQuote(srcCur amount.Currency, deliver amount.Amount) (quotes []orderbook.Quote, cost amount.Value, ok bool) {
	// Direct book: taker pays srcCur, receives deliver.Currency.
	direct, err := f.quoteBuy(0, orderbook.Pair{Pays: srcCur, Gets: deliver.Currency}, deliver.Value)
	haveDirect := err == nil && direct.TotalGets.Cmp(deliver.Value) == 0

	// Auto-bridge via XRP: buy deliver with XRP, then buy that XRP with
	// srcCur. Skipped when either leg is already XRP.
	if !srcCur.IsXRP() && !deliver.Currency.IsXRP() {
		leg2, err2 := f.quoteBuy(1, orderbook.Pair{Pays: amount.XRP, Gets: deliver.Currency}, deliver.Value)
		if err2 == nil && leg2.TotalGets.Cmp(deliver.Value) == 0 {
			leg1, err1 := f.quoteBuy(2, orderbook.Pair{Pays: srcCur, Gets: amount.XRP}, leg2.TotalPays)
			if err1 == nil && leg1.TotalGets.Cmp(leg2.TotalPays) == 0 &&
				(!haveDirect || leg1.TotalPays.Cmp(direct.TotalPays) < 0) {
				f.cloneQuote(0, leg1)
				f.cloneQuote(1, leg2)
				return f.bridge[:2], leg1.TotalPays, true
			}
		}
	}
	if !haveDirect {
		return nil, amount.Zero, false
	}
	f.cloneQuote(0, direct)
	return f.bridge[:1], direct.TotalPays, true
}

// planCrossCurrency bridges srcCur→deliver.Currency through books, then
// routes the source side src→(offer owners) and the delivery side
// (offer owners)→dst over trust-lines.
func (f *Finder) planCrossCurrency(plan *Plan, deliver amount.Amount) (*Plan, error) {
	if !f.tryBridge(plan, plan.SrcCurrency, deliver) || plan.Delivered.IsZero() {
		return nil, ErrNoPath
	}
	return plan, nil
}

// tryBridge attempts to add a bridged route for `deliver` to the plan,
// reporting whether it did. A failed attempt truncates the plan's flows
// and paths back to where it began; the overlay keeps the trial's flows.
//
// Routing model: the sender moves srcCur to each consumed offer's owner
// over trust-lines (unless the leg is XRP, which transfers freely), the
// conversion happens at the owner, and the owner moves the delivery
// currency to the destination over trust-lines. A leg with no trust route
// voids the bridge.
func (f *Finder) tryBridge(plan *Plan, srcCur amount.Currency, deliver amount.Amount) bool {
	quotes, cost, ok := f.bridgeQuote(srcCur, deliver)
	if !ok {
		return false
	}
	src, dst := plan.Src, plan.Dst
	nFlows, nPaths := len(plan.TrustFlows), len(plan.Paths)
	abandon := func() bool {
		plan.TrustFlows, plan.Paths = plan.TrustFlows[:nFlows], plan.Paths[:nPaths]
		return false
	}

	entry := &quotes[0]            // sender pays srcCur into this quote's offers
	exit := &quotes[len(quotes)-1] // delivery currency comes out of this quote's offers

	// Source leg: src → each entry-offer owner, in srcCur.
	if !srcCur.IsXRP() {
		for _, fill := range entry.Fills {
			owner := fill.Offer.Owner
			if owner == src {
				continue // self-owned offer: no movement needed
			}
			routed, err := f.routeTrust(plan, src, owner, srcCur, fill.Pays)
			if err != nil || routed.Cmp(fill.Pays) < 0 {
				return abandon()
			}
			// Source-side hops are part of the overall path; fold their
			// path records into bridge accounting below by trimming the
			// separate entries (we count one logical path per fill).
			plan.Paths = plan.Paths[:nPaths]
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
			routed, err := f.routeTrust(plan, owner, dst, deliver.Currency, fill.Gets)
			if err != nil || routed.Cmp(fill.Gets) < 0 {
				return abandon()
			}
			for _, p := range plan.Paths[nPaths:] {
				if p.Hops > exitHops {
					exitHops = p.Hops
				}
			}
			plan.Paths = plan.Paths[:nPaths]
		}
	}
	delivered, err := plan.Delivered.Add(deliver.Value)
	if err != nil {
		return abandon()
	}
	sourceCost, err := plan.SourceCost.Add(cost)
	if err != nil {
		return abandon()
	}
	plan.Quotes = append(plan.Quotes, quotes...)
	// Record one logical parallel path per exit fill; each crosses the
	// offer owner (1 hop) plus any trust hops on the delivery leg.
	for _, fill := range exit.Fills {
		plan.Paths = append(plan.Paths, PathInfo{Hops: 1 + exitHops, Value: fill.Gets})
	}
	plan.Delivered, plan.SourceCost, plan.UsedBridge = delivered, sourceCost, true
	return true
}
