// Package trustgraph implements Ripple's credit network: the backbone of
// trust-lines over which IOU payments "ripple". For each account pair and
// currency it tracks the two directional trust limits and the single net
// balance between the parties, exactly the three-field record (amount,
// currency, issuers) the paper describes.
//
// Payment capacity follows the paper's semantics: "if A trusts B for
// 10USD ... IOU transactions in the opposite direction (from B to A)
// [are limited] to 10USD". Value flowing B→A consumes A's trust in B;
// value flowing back A→B first pays down existing debt and then consumes
// B's trust in A.
//
// Accounts are interned to dense int32 indices on first contact, and the
// adjacency is slice-backed: the payment replay pipeline runs millions of
// breadth-first searches over this graph, and dense indices let the path
// finder keep visited/parent state in flat arrays instead of per-search
// maps. The dense index of an account is stable for the lifetime of the
// graph (removal tombstones the slot; it is never reused). An account's
// edges in one currency are a contiguous block of its adjacency, handed
// out as a slice (Edges): each Edge knows its peer's index and which
// side of the pair its owner is, so the searcher decides per edge whether
// a capacity is worth computing and stops when it has arrived.
package trustgraph

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// Pair is the credit state between two accounts in one currency. The two
// endpoints are stored in canonical order (Lo < Hi by account ID).
//
//   - LimitLoHi: Lo trusts Hi — the most Hi may owe Lo.
//   - LimitHiLo: Hi trusts Lo — the most Lo may owe Hi.
//   - Balance:   net debt, positive when Hi owes Lo, negative when Lo
//     owes Hi.
type Pair struct {
	Lo, Hi    addr.AccountID
	Currency  amount.Currency
	LimitLoHi amount.Value
	LimitHiLo amount.Value
	Balance   amount.Value
}

// Edge is one directed view of a trust pair in its owner's adjacency
// list: the peer's dense index, the shared Pair record, and whether the
// owner is the pair's Lo endpoint — so nothing on the edge path compares
// account IDs to orient the pair. The flag sits in the padding after the
// 3-byte currency: an Edge is 16 bytes.
type Edge struct {
	cur     amount.Currency
	ownerLo bool
	peer    int32
	pair    *Pair
}

// Peer returns the dense index of the account at the far end.
func (e *Edge) Peer() int32 { return e.peer }

// Capacity returns the most value that can flow owner → peer across the
// edge: existing debt the peer owes the owner being paid down, plus fresh
// credit the peer extends to the owner.
func (e *Edge) Capacity() amount.Value { return pairCapacity(e.pair, e.ownerLo) }

// Graph is the in-memory credit network. It is not safe for concurrent
// mutation; analyses clone it before replaying. Concurrent readers are
// safe while no writer runs (all queries are pure).
type Graph struct {
	ids      map[addr.AccountID]int32
	accounts []addr.AccountID
	// adj[i] holds account i's edges sorted by (currency, peer account
	// ID), so iteration — and therefore path finding and everything
	// built on it — is deterministic and independent of interning order.
	adj [][]Edge
	// pairs counts distinct trust pairs.
	pairs int
}

// New creates an empty credit network.
func New() *Graph {
	return &Graph{ids: make(map[addr.AccountID]int32)}
}

// NumInterned returns the size of the dense index space: every account
// ever seen by the graph, including removed ones. Path finders size their
// scratch arrays by it.
func (g *Graph) NumInterned() int { return len(g.accounts) }

// Index returns the dense index of an account, if it has ever been
// interned.
func (g *Graph) Index(a addr.AccountID) (int32, bool) {
	i, ok := g.ids[a]
	return i, ok
}

// AccountAt returns the account interned at dense index i.
func (g *Graph) AccountAt(i int32) addr.AccountID { return g.accounts[i] }

// intern returns the dense index for a, allocating one on first contact.
func (g *Graph) intern(a addr.AccountID) int32 {
	if i, ok := g.ids[a]; ok {
		return i
	}
	i := int32(len(g.accounts))
	g.ids[a] = i
	g.accounts = append(g.accounts, a)
	g.adj = append(g.adj, nil)
	return i
}

// curKey packs a currency code into an integer that orders as its bytes
// do, so the adjacency searches compare one word instead of a slice.
func curKey(c amount.Currency) uint32 {
	return uint32(c[0])<<16 | uint32(c[1])<<8 | uint32(c[2])
}

// findEdge binary-searches account ai's adjacency — ordered by currency
// bytes, then peer account ID bytes — for (cur, peer), returning the slot
// and whether it holds that exact edge.
func (g *Graph) findEdge(ai int32, cur amount.Currency, peer addr.AccountID) (int, bool) {
	edges := g.adj[ai]
	k := curKey(cur)
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ek := curKey(edges[m].cur); ek < k || ek == k && g.accounts[edges[m].peer].Less(peer) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(edges) && edges[lo].cur == cur && g.accounts[edges[lo].peer] == peer {
		return lo, true
	}
	return lo, false
}

// link inserts the edge (ai → pi, cur) → p into ai's adjacency.
func (g *Graph) link(ai, pi int32, cur amount.Currency, p *Pair) {
	i, ok := g.findEdge(ai, cur, g.accounts[pi])
	if ok {
		g.adj[ai][i].pair = p
		return
	}
	g.adj[ai] = append(g.adj[ai], Edge{})
	copy(g.adj[ai][i+1:], g.adj[ai][i:])
	g.adj[ai][i] = Edge{cur: cur, ownerLo: p.Lo == g.accounts[ai], peer: pi, pair: p}
}

// unlink removes the edge (ai, cur, peer) from ai's adjacency.
func (g *Graph) unlink(ai int32, cur amount.Currency, peer addr.AccountID) {
	i, ok := g.findEdge(ai, cur, peer)
	if !ok {
		return
	}
	g.adj[ai] = append(g.adj[ai][:i], g.adj[ai][i+1:]...)
}

// canonical orders two accounts.
func canonical(a, b addr.AccountID) (lo, hi addr.AccountID, swapped bool) {
	if b.Less(a) {
		return b, a, true
	}
	return a, b, false
}

// edge returns a's edge to b in cur, or nil when they share no pair.
func (g *Graph) edge(a, b addr.AccountID, cur amount.Currency) *Edge {
	if ai, ok := g.ids[a]; ok {
		if i, ok := g.findEdge(ai, cur, b); ok {
			return &g.adj[ai][i]
		}
	}
	return nil
}

// pair returns the Pair for (a, b, cur), creating it when create is set.
func (g *Graph) pair(a, b addr.AccountID, cur amount.Currency, create bool) *Pair {
	if e := g.edge(a, b, cur); e != nil {
		return e.pair
	}
	if !create {
		return nil
	}
	lo, hi, _ := canonical(a, b)
	p := &Pair{Lo: lo, Hi: hi, Currency: cur}
	ai, bi := g.intern(a), g.intern(b)
	g.link(ai, bi, cur, p)
	g.link(bi, ai, cur, p)
	g.pairs++
	return p
}

// SetTrust declares that truster extends credit of up to limit to trustee
// in the given currency — the effect of a TrustSet transaction. A zero
// limit removes the trust in that direction (the pair survives while the
// other direction or a balance remains).
func (g *Graph) SetTrust(truster, trustee addr.AccountID, cur amount.Currency, limit amount.Value) error {
	if cur.IsXRP() {
		return fmt.Errorf("trustgraph: XRP needs no trust-lines")
	}
	if truster == trustee {
		return fmt.Errorf("trustgraph: account cannot trust itself")
	}
	if limit.IsNegative() {
		return fmt.Errorf("trustgraph: negative trust limit %s", limit)
	}
	p := g.pair(truster, trustee, cur, true)
	if p.Lo == truster {
		p.LimitLoHi = limit
	} else {
		p.LimitHiLo = limit
	}
	return nil
}

// Owed returns how much debtor currently owes creditor (zero or positive;
// debt in the other direction reports zero).
func (g *Graph) Owed(creditor, debtor addr.AccountID, cur amount.Currency) amount.Value {
	p := g.pair(creditor, debtor, cur, false)
	if p == nil {
		return amount.Zero
	}
	bal := p.Balance // positive: Hi owes Lo
	if p.Lo != creditor {
		bal = bal.Neg()
	}
	if bal.IsNegative() {
		return amount.Zero
	}
	return bal
}

// Capacity returns the maximum value that can flow from → to across the
// direct edge in the given currency: existing debt owed to `from` by `to`
// being paid down, plus fresh credit `to` extends to `from`.
func (g *Graph) Capacity(from, to addr.AccountID, cur amount.Currency) amount.Value {
	e := g.edge(from, to, cur)
	if e == nil {
		return amount.Zero
	}
	return e.Capacity()
}

// pairCapacity computes capacity for value flowing across p out of its Lo
// endpoint (fromLo) or its Hi endpoint.
func pairCapacity(p *Pair, fromLo bool) amount.Value {
	// Value flowing Lo→Hi decreases Balance; floor is -LimitHiLo.
	// capacity(Lo→Hi) = Balance + LimitHiLo
	// capacity(Hi→Lo) = LimitLoHi - Balance
	var c amount.Value
	var err error
	if fromLo {
		c, err = p.Balance.Add(p.LimitHiLo)
	} else {
		c, err = p.LimitLoHi.Sub(p.Balance)
	}
	if err != nil || c.IsNegative() {
		return amount.Zero
	}
	return c
}

// ApplyFlow moves v of value from → to across the direct edge, consuming
// capacity. It fails, leaving the graph unchanged, if v exceeds the
// available capacity or the edge does not exist.
func (g *Graph) ApplyFlow(from, to addr.AccountID, cur amount.Currency, v amount.Value) error {
	if v.IsNegative() || v.IsZero() {
		return fmt.Errorf("trustgraph: flow must be positive, got %s", v)
	}
	e := g.edge(from, to, cur)
	if e == nil {
		return fmt.Errorf("trustgraph: no trust between %s and %s in %s", from.Short(), to.Short(), cur)
	}
	if c := e.Capacity(); c.Cmp(v) < 0 {
		return fmt.Errorf("trustgraph: flow %s exceeds capacity %s on %s→%s/%s",
			v, c, from.Short(), to.Short(), cur)
	}
	p := e.pair
	var nb amount.Value
	var err error
	if e.ownerLo {
		nb, err = p.Balance.Sub(v)
	} else {
		nb, err = p.Balance.Add(v)
	}
	if err != nil {
		return fmt.Errorf("trustgraph: applying flow: %w", err)
	}
	p.Balance = nb
	return nil
}

// curBound returns the index of the first edge whose packed currency is
// at least k. An adjacency is sorted by (currency, peer), so the edges of
// one currency are the contiguous block between two bounds.
func curBound(edges []Edge, k uint32) int {
	lo, hi := 0, len(edges)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if curKey(edges[m].cur) < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// Edges returns account's edges in the given currency: one per peer it
// shares a trust pair with, ordered by peer account ID — deterministic,
// because payment routing must not depend on map iteration or interning
// order. The slice aliases the graph's adjacency: read-only, and valid
// until the graph is next mutated.
func (g *Graph) Edges(account int32, cur amount.Currency) []Edge {
	k := curKey(cur)
	edges := g.adj[account]
	edges = edges[curBound(edges, k):]
	n := curBound(edges, k+1)
	return edges[:n:n]
}

// Currencies calls fn for each currency in which account has any pair,
// in sorted order.
func (g *Graph) Currencies(account addr.AccountID, fn func(cur amount.Currency)) {
	ai, ok := g.ids[account]
	if !ok {
		return
	}
	var last amount.Currency
	first := true
	for _, e := range g.adj[ai] {
		if first || e.cur != last {
			fn(e.cur)
			last = e.cur
			first = false
		}
	}
}

// Pairs calls fn once per distinct trust pair in the graph, in a
// deterministic (dense-index) order.
func (g *Graph) Pairs(fn func(*Pair)) {
	for i := range g.adj {
		for _, e := range g.adj[i] {
			// Each pair is linked from both endpoints; visit it from the
			// lower dense index only.
			if e.peer > int32(i) {
				fn(e.pair)
			}
		}
	}
}

// PairOf returns the trust pair between a and b in the given currency,
// or nil when none exists. The returned Pair is live graph state —
// callers must treat it as read-only.
func (g *Graph) PairOf(a, b addr.AccountID, cur amount.Currency) *Pair {
	return g.pair(a, b, cur, false)
}

// PairsOf calls fn once per trust pair the account participates in, in
// the adjacency's canonical (currency, peer account) order — stable
// regardless of the order the pairs were created.
func (g *Graph) PairsOf(a addr.AccountID, fn func(*Pair)) {
	ai, ok := g.ids[a]
	if !ok {
		return
	}
	for _, e := range g.adj[ai] {
		fn(e.pair)
	}
}

// checkRestorable refuses the pairs no graph can hold: XRP, a self-pair,
// endpoints out of canonical order.
func checkRestorable(lo, hi addr.AccountID, cur amount.Currency) error {
	switch {
	case cur.IsXRP():
		return fmt.Errorf("trustgraph: XRP needs no trust-lines")
	case lo == hi:
		return fmt.Errorf("trustgraph: account cannot trust itself")
	case hi.Less(lo):
		return fmt.Errorf("trustgraph: restored pair %s/%s not in canonical order", lo.Short(), hi.Short())
	}
	return nil
}

// RestorePairs reinstates a whole persisted trust network into a graph
// that holds no pairs, as restoring each pair in order would, done at
// once: accounts are interned as the walk meets them (Lo, then Hi), every
// adjacency is allocated at its final size, filled by appending, and
// sorted a single time — restoring a hub costs a sort, not an insertion
// per edge. The same pairs are refused: XRP, a self-pair, endpoints out
// of canonical order, a pair given twice. The graph adopts the slice
// (its edges point into it); after an error the graph is not usable.
func (g *Graph) RestorePairs(pairs []Pair) error {
	if g.pairs != 0 {
		return fmt.Errorf("trustgraph: bulk restore into a graph of %d pairs", g.pairs)
	}
	ends := make([]int32, 0, 2*len(pairs)) // dense indices: pair i's Lo, Hi at 2i, 2i+1
	for _, p := range pairs {
		if err := checkRestorable(p.Lo, p.Hi, p.Currency); err != nil {
			return err
		}
		ends = append(ends, g.intern(p.Lo), g.intern(p.Hi))
	}
	degree := make([]int, len(g.accounts))
	for _, ai := range ends {
		degree[ai]++
	}
	// One backing array, cut so that no adjacency can grow into the next.
	slab := make([]Edge, len(ends))
	for ai, d := range degree {
		if d > 0 {
			g.adj[ai], slab = slab[:0:d], slab[d:]
		}
	}
	for i := range pairs {
		p, lo, hi := &pairs[i], ends[2*i], ends[2*i+1]
		g.adj[lo] = append(g.adj[lo], Edge{cur: p.Currency, ownerLo: true, peer: hi, pair: p})
		g.adj[hi] = append(g.adj[hi], Edge{cur: p.Currency, peer: lo, pair: p})
	}
	// The order findEdge searches: currency, then the peer's account ID.
	byCurrencyThenPeer := func(a, b Edge) int {
		if c := cmp.Compare(curKey(a.cur), curKey(b.cur)); c != 0 {
			return c
		}
		return bytes.Compare(g.accounts[a.peer][:], g.accounts[b.peer][:])
	}
	for _, edges := range g.adj {
		slices.SortFunc(edges, byCurrencyThenPeer)
		for i := 1; i < len(edges); i++ {
			if p := edges[i].pair; edges[i-1].cur == edges[i].cur && edges[i-1].peer == edges[i].peer {
				return fmt.Errorf("trustgraph: restored pair %s/%s/%s already present", p.Lo.Short(), p.Hi.Short(), p.Currency)
			}
		}
	}
	g.pairs = len(pairs)
	return nil
}

// RemoveAccount deletes an account and every trust pair it participates
// in — the mutation behind the paper's market-maker ablation (Table II).
// The dense index remains interned (a tombstone with no edges).
func (g *Graph) RemoveAccount(a addr.AccountID) {
	ai, ok := g.ids[a]
	if !ok || len(g.adj[ai]) == 0 {
		return
	}
	for _, e := range g.adj[ai] {
		g.unlink(e.peer, e.cur, a)
		g.pairs--
	}
	g.adj[ai] = nil
}

// Clone returns a deep copy of the graph, for replay experiments. The
// clone preserves dense indices, so iteration order — and therefore
// every analysis built on it — matches the original exactly.
func (g *Graph) Clone() *Graph {
	out := &Graph{
		ids:      make(map[addr.AccountID]int32, len(g.ids)),
		accounts: append([]addr.AccountID(nil), g.accounts...),
		adj:      make([][]Edge, len(g.adj)),
		pairs:    g.pairs,
	}
	for a, i := range g.ids {
		out.ids[a] = i
	}
	copies := make(map[*Pair]*Pair, g.pairs)
	for i, edges := range g.adj {
		if len(edges) == 0 {
			continue
		}
		ne := make([]Edge, len(edges))
		copy(ne, edges)
		for j := range ne {
			cp, ok := copies[ne[j].pair]
			if !ok {
				dup := *ne[j].pair
				cp = &dup
				copies[ne[j].pair] = cp
			}
			ne[j].pair = cp
		}
		out.adj[i] = ne
	}
	return out
}

// CheckInvariants verifies every pair's balance lies within its limits,
// returning the list of violations (empty when healthy). Limit
// *reductions* below an existing balance are legal in Ripple, so callers
// decide whether violations are fatal.
func (g *Graph) CheckInvariants() []error {
	var errs []error
	g.Pairs(func(p *Pair) {
		if p.Balance.Cmp(p.LimitLoHi) > 0 {
			errs = append(errs, fmt.Errorf("trustgraph: %s owes %s %s/%s above limit %s",
				p.Hi.Short(), p.Lo.Short(), p.Balance, p.Currency, p.LimitLoHi))
		}
		if p.Balance.Neg().Cmp(p.LimitHiLo) > 0 {
			errs = append(errs, fmt.Errorf("trustgraph: %s owes %s %s/%s above limit %s",
				p.Lo.Short(), p.Hi.Short(), p.Balance.Neg(), p.Currency, p.LimitHiLo))
		}
	})
	return errs
}

// Profile aggregates one account's standing in the network, the data
// behind Figure 7(b) and 7(c). Sums are computed in a reference currency
// using the supplied conversion rate function (units of reference
// currency per one unit of cur); rate may return 0 to skip a currency.
type Profile struct {
	// TrustReceived is the total credit other accounts extend to this
	// account (positive trust in Fig. 7(b)).
	TrustReceived float64
	// TrustGiven is the total credit this account extends to others
	// (negative trust in Fig. 7(b)).
	TrustGiven float64
	// NetBalance is credit minus debt: positive for accounts owed value
	// (common users), negative for debtors (gateways) — Fig. 7(c).
	NetBalance float64
	// Lines counts the account's trust pairs.
	Lines int
}

// ProfileOf computes the aggregate standing of account under rates.
func (g *Graph) ProfileOf(account addr.AccountID, rate func(amount.Currency) float64) Profile {
	var pr Profile
	ai, ok := g.ids[account]
	if !ok {
		return pr
	}
	// Iterate in sorted edge order: float accumulation must be
	// deterministic so profiles compare equal across replays.
	for _, e := range g.adj[ai] {
		p := e.pair
		r := rate(e.cur)
		if r == 0 {
			continue
		}
		pr.Lines++
		var limitIn, limitOut, bal amount.Value
		if p.Lo == account {
			limitOut = p.LimitLoHi // account trusts peer
			limitIn = p.LimitHiLo  // peer trusts account
			bal = p.Balance        // positive: peer owes account
		} else {
			limitOut = p.LimitHiLo
			limitIn = p.LimitLoHi
			bal = p.Balance.Neg()
		}
		pr.TrustGiven += limitOut.Float64() * r
		pr.TrustReceived += limitIn.Float64() * r
		pr.NetBalance += bal.Float64() * r
	}
	return pr
}
