package trustgraph

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// pairModel is the test's own bookkeeping of the credit network: a plain
// map of pair records, updated by the rules in the package comment and
// sharing no code with the graph's adjacency.
type pairKey struct {
	lo, hi addr.AccountID
	cur    amount.Currency
}

type pairModel map[pairKey]*Pair

func (m pairModel) key(a, b addr.AccountID, cur amount.Currency) pairKey {
	if bytes.Compare(b[:], a[:]) < 0 {
		a, b = b, a
	}
	return pairKey{a, b, cur}
}

// capacity is the textbook formula, oriented by comparing account IDs.
func (m pairModel) capacity(from, to addr.AccountID, cur amount.Currency) amount.Value {
	p := m[m.key(from, to, cur)]
	if p == nil {
		return amount.Zero
	}
	var c amount.Value
	if p.Lo == from {
		c, _ = p.Balance.Add(p.LimitHiLo)
	} else {
		c, _ = p.LimitLoHi.Sub(p.Balance)
	}
	if c.IsNegative() {
		return amount.Zero
	}
	return c
}

// checkEdges compares, for every interned account and every currency,
// the edge block the graph hands the path finder against a recomputation
// from the model: the peers that share a pair, sorted by peer account ID
// bytes, each with the model's capacity. It also checks the graph's own
// Pairs and Capacity against the model, and every edge's side flag.
func checkEdges(t *testing.T, step int, g *Graph, m pairModel, curs []amount.Currency) {
	t.Helper()
	seen := 0
	g.Pairs(func(p *Pair) {
		seen++
		want := m[pairKey{p.Lo, p.Hi, p.Currency}]
		if want == nil || *want != *p {
			t.Fatalf("step %d: graph pair %+v, model %+v", step, p, want)
		}
	})
	if seen != len(m) || g.NumPairs() != len(m) {
		t.Fatalf("step %d: graph has %d pairs (NumPairs %d), model %d", step, seen, g.NumPairs(), len(m))
	}
	for ai := int32(0); ai < int32(g.NumInterned()); ai++ {
		owner := g.AccountAt(ai)
		for _, cur := range curs {
			var peers []addr.AccountID
			for k := range m {
				if k.cur != cur {
					continue
				}
				if k.lo == owner {
					peers = append(peers, k.hi)
				} else if k.hi == owner {
					peers = append(peers, k.lo)
				}
			}
			sort.Slice(peers, func(i, j int) bool { return bytes.Compare(peers[i][:], peers[j][:]) < 0 })
			edges := g.Edges(ai, cur)
			if len(edges) != len(peers) {
				t.Fatalf("step %d: %s/%s has %d edges, model %d", step, owner.Short(), cur, len(edges), len(peers))
			}
			for i := range edges {
				e := &edges[i]
				peer := g.AccountAt(e.Peer())
				if peer != peers[i] {
					t.Fatalf("step %d: %s/%s edge %d is %s, model %s", step, owner.Short(), cur, i, peer.Short(), peers[i].Short())
				}
				want := m.capacity(owner, peer, cur)
				if got := e.Capacity(); got != want {
					t.Fatalf("step %d: edge capacity %s→%s/%s = %s, model %s", step, owner.Short(), peer.Short(), cur, got, want)
				}
				if got := g.Capacity(owner, peer, cur); got != want {
					t.Fatalf("step %d: Capacity(%s→%s/%s) = %s, model %s", step, owner.Short(), peer.Short(), cur, got, want)
				}
				if e.ownerLo != (e.pair.Lo == owner) || e.cur != cur {
					t.Fatalf("step %d: edge %s→%s/%s has side flag %v on pair Lo=%s", step, owner.Short(), peer.Short(), cur, e.ownerLo, e.pair.Lo.Short())
				}
			}
		}
	}
}

// TestEdgesMatchModel drives a seeded random mix of every mutation the
// graph has — SetTrust, ApplyFlow, RemoveAccount, RestorePair, and
// carrying on from a Clone — and after each step holds the edge blocks
// against the model.
func TestEdgesMatchModel(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	const n = 14
	accounts := make([]addr.AccountID, n)
	for i := range accounts {
		accounts[i] = acct(uint64(i + 500))
	}
	// Three currencies whose byte order differs in each position.
	curs := []amount.Currency{amount.USD, amount.EUR, amount.MustCurrency("USE")}
	g := New()
	m := pairModel{}
	flows, removals, restores, clones := 0, 0, 0, 0
	for step := 0; step < 4000; step++ {
		a, b := accounts[r.Intn(n)], accounts[r.Intn(n)]
		cur := curs[r.Intn(len(curs))]
		switch op := r.Intn(100); {
		case op < 30:
			limit := amount.FromInt64(int64(r.Intn(120)))
			err := g.SetTrust(a, b, cur, limit)
			if (err != nil) != (a == b) {
				t.Fatalf("step %d: SetTrust(%s, %s) err = %v", step, a.Short(), b.Short(), err)
			}
			if err != nil {
				break
			}
			k := m.key(a, b, cur)
			p := m[k]
			if p == nil {
				p = &Pair{Lo: k.lo, Hi: k.hi, Currency: cur}
				m[k] = p
			}
			if p.Lo == a {
				p.LimitLoHi = limit
			} else {
				p.LimitHiLo = limit
			}
		case op < 92:
			if a == b {
				break
			}
			v := amount.FromInt64(int64(r.Intn(30) + 1))
			fits := m[m.key(a, b, cur)] != nil && v.Cmp(m.capacity(a, b, cur)) <= 0
			err := g.ApplyFlow(a, b, cur, v)
			if (err == nil) != fits {
				t.Fatalf("step %d: ApplyFlow(%s→%s/%s, %s) err = %v, model fits = %v", step, a.Short(), b.Short(), cur, v, err, fits)
			}
			if err != nil {
				break
			}
			flows++
			p := m[m.key(a, b, cur)]
			if p.Lo == a {
				p.Balance, _ = p.Balance.Sub(v)
			} else {
				p.Balance, _ = p.Balance.Add(v)
			}
		case op < 93:
			g.RemoveAccount(a)
			for k := range m {
				if k.lo == a || k.hi == a {
					delete(m, k)
					removals++
				}
			}
		case op < 98:
			k := m.key(a, b, cur)
			if a == b || m[k] != nil {
				break
			}
			p := &Pair{Lo: k.lo, Hi: k.hi, Currency: cur,
				LimitLoHi: amount.FromInt64(int64(r.Intn(80))),
				LimitHiLo: amount.FromInt64(int64(r.Intn(80))),
				Balance:   amount.FromInt64(int64(r.Intn(41) - 20)),
			}
			if err := g.RestorePair(p.Lo, p.Hi, cur, p.LimitLoHi, p.LimitHiLo, p.Balance); err != nil {
				t.Fatalf("step %d: RestorePair: %v", step, err)
			}
			m[k] = p
			restores++
		default:
			// Carry on from a clone; the graph left behind must stay as
			// the model describes it now, whatever the clone does next.
			before, frozen := g, pairModel{}
			for k, p := range m {
				cp := *p
				frozen[k] = &cp
			}
			g = g.Clone()
			clones++
			defer func(step int) { checkEdges(t, step, before, frozen, curs) }(step)
		}
		checkEdges(t, step, g, m, curs)
	}
	if flows < 200 || removals == 0 || restores == 0 || clones == 0 {
		t.Fatalf("mix too thin: %d flows, %d removed pairs, %d restores, %d clones", flows, removals, restores, clones)
	}
}
