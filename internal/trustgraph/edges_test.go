package trustgraph

import (
	"bytes"
	"fmt"
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
	if seen != len(m) || g.pairs != len(m) {
		t.Fatalf("step %d: graph has %d pairs (NumPairs %d), model %d", step, seen, g.pairs, len(m))
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
				// The reverse view is the peer's own entry for owner.
				back := g.Edges(e.Peer(), cur)
				j := sort.Search(len(back), func(j int) bool { return !g.AccountAt(back[j].Peer()).Less(owner) })
				if rev := e.Reverse(ai); j == len(back) || back[j] != rev {
					t.Fatalf("step %d: reverse of %s→%s/%s is not %s's entry for %s", step, owner.Short(), peer.Short(), cur, peer.Short(), owner.Short())
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
			_, err := g.SetTrust(a, b, cur, limit)
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
			err := applyFlow(g, a, b, cur, v)
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
			if err := restorePair(g, p.Lo, p.Hi, cur, p.LimitLoHi, p.LimitHiLo, p.Balance); err != nil {
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

// restorePair reinstates one trust pair with explicit limits and
// balance, the one-at-a-time oracle RestorePairs is held against. lo and
// hi must already be in canonical order and the pair must not exist yet.
func restorePair(g *Graph, lo, hi addr.AccountID, cur amount.Currency, limLoHi, limHiLo, balance amount.Value) error {
	if err := checkRestorable(lo, hi, cur); err != nil {
		return err
	}
	if g.pair(lo, hi, cur, false) != nil {
		return fmt.Errorf("trustgraph: restored pair %s/%s/%s already present", lo.Short(), hi.Short(), cur)
	}
	p := g.pair(lo, hi, cur, true)
	p.LimitLoHi = limLoHi
	p.LimitHiLo = limHiLo
	p.Balance = balance
	return nil
}

// TestRestorePairsMatchesRestorePair is the bulk restore's differential:
// for models of growing size, handed over in shuffled order (a tree walk
// is in hash order, not adjacency order), RestorePairs must build the
// graph RestorePair builds one pair at a time — the same interning order,
// the same edge block for every (account, currency), the model's
// capacities — and must keep behaving like it under the mutations that
// follow a restore (flows, trust changes, an ablated account), which is
// what would show one adjacency growing into its neighbour's slab. The
// pairs RestorePair refuses are refused with the same words.
func TestRestorePairsMatchesRestorePair(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	curs := []amount.Currency{amount.USD, amount.EUR, amount.MustCurrency("USE")}
	randomPair := func(accounts []addr.AccountID, m pairModel) *Pair {
		for {
			a, b := accounts[r.Intn(len(accounts))], accounts[r.Intn(len(accounts))]
			// Account 0 is a hub: half the pairs touch it.
			if r.Intn(2) == 0 {
				a = accounts[0]
			}
			k := m.key(a, b, curs[r.Intn(len(curs))])
			if a == b || m[k] != nil {
				continue
			}
			return &Pair{Lo: k.lo, Hi: k.hi, Currency: k.cur,
				LimitLoHi: amount.FromInt64(int64(r.Intn(80))),
				LimitHiLo: amount.FromInt64(int64(r.Intn(80))),
				Balance:   amount.FromInt64(int64(r.Intn(41) - 20)),
			}
		}
	}
	same := func(label string, one, bulk *Graph) {
		t.Helper()
		if one.NumInterned() != bulk.NumInterned() || one.pairs != bulk.pairs || activeAccounts(one) != activeAccounts(bulk) {
			t.Fatalf("%s: one-at-a-time has %d interned, %d pairs, %d active; bulk %d, %d, %d", label,
				one.NumInterned(), one.pairs, activeAccounts(one), bulk.NumInterned(), bulk.pairs, activeAccounts(bulk))
		}
		for ai := int32(0); ai < int32(one.NumInterned()); ai++ {
			if one.AccountAt(ai) != bulk.AccountAt(ai) {
				t.Fatalf("%s: index %d is %s one at a time, %s in bulk", label, ai, one.AccountAt(ai).Short(), bulk.AccountAt(ai).Short())
			}
			for _, cur := range curs {
				a, b := one.Edges(ai, cur), bulk.Edges(ai, cur)
				if len(a) != len(b) {
					t.Fatalf("%s: %s/%s has %d edges one at a time, %d in bulk", label, one.AccountAt(ai).Short(), cur, len(a), len(b))
				}
				for i := range a {
					if a[i].peer != b[i].peer || a[i].cur != b[i].cur || a[i].ownerLo != b[i].ownerLo || *a[i].pair != *b[i].pair {
						t.Fatalf("%s: %s/%s edge %d: %+v over %+v one at a time, %+v over %+v in bulk", label,
							one.AccountAt(ai).Short(), cur, i, a[i], *a[i].pair, b[i], *b[i].pair)
					}
				}
			}
		}
	}
	for _, size := range []struct{ accounts, pairs int }{{2, 0}, {2, 1}, {5, 12}, {14, 120}, {60, 900}} {
		accounts := make([]addr.AccountID, size.accounts)
		for i := range accounts {
			accounts[i] = acct(uint64(i + 700))
		}
		m := pairModel{}
		var pairs []Pair
		for len(m) < size.pairs {
			p := randomPair(accounts, m)
			m[pairKey{p.Lo, p.Hi, p.Currency}] = p
			pairs = append(pairs, *p)
		}
		r.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })

		one, bulk := New(), New()
		for _, p := range pairs {
			if err := restorePair(one, p.Lo, p.Hi, p.Currency, p.LimitLoHi, p.LimitHiLo, p.Balance); err != nil {
				t.Fatal(err)
			}
		}
		if err := bulk.RestorePairs(pairs); err != nil {
			t.Fatal(err)
		}
		same("restored", one, bulk)
		checkEdges(t, size.pairs, bulk, m, curs)
		if size.pairs == 0 {
			continue
		}

		// Life after the restore, on both graphs and the model.
		for step := 0; step < 600; step++ {
			a, b := accounts[r.Intn(len(accounts))], accounts[r.Intn(len(accounts))]
			cur := curs[r.Intn(len(curs))]
			if a == b {
				continue
			}
			k := m.key(a, b, cur)
			switch op := r.Intn(100); {
			case op < 40:
				limit := amount.FromInt64(int64(r.Intn(120)))
				for _, g := range []*Graph{one, bulk} {
					if _, err := g.SetTrust(a, b, cur, limit); err != nil {
						t.Fatal(err)
					}
				}
				if m[k] == nil {
					m[k] = &Pair{Lo: k.lo, Hi: k.hi, Currency: cur}
				}
				if k.lo == a {
					m[k].LimitLoHi = limit
				} else {
					m[k].LimitHiLo = limit
				}
			case op < 97:
				v := amount.FromInt64(int64(r.Intn(30) + 1))
				errOne, errBulk := applyFlow(one, a, b, cur, v), applyFlow(bulk, a, b, cur, v)
				if (errOne == nil) != (errBulk == nil) {
					t.Fatalf("flow %s→%s/%s %s: %v one at a time, %v in bulk", a.Short(), b.Short(), cur, v, errOne, errBulk)
				}
				if errOne == nil {
					if k.lo == a {
						m[k].Balance, _ = m[k].Balance.Sub(v)
					} else {
						m[k].Balance, _ = m[k].Balance.Add(v)
					}
				}
			default:
				one.RemoveAccount(a)
				bulk.RemoveAccount(a)
				for k := range m {
					if k.lo == a || k.hi == a {
						delete(m, k)
					}
				}
			}
		}
		same("after mutations", one, bulk)
		checkEdges(t, size.pairs, bulk, m, curs)
	}

	// Refusals: the batch up to and including the bad pair against the
	// same pairs one at a time.
	lo, hi, third := acct(900), acct(901), acct(902)
	if hi.Less(lo) {
		lo, hi = hi, lo
	}
	good := Pair{Lo: lo, Hi: hi, Currency: amount.USD, LimitLoHi: amount.FromInt64(5)}
	k := pairModel{}.key(lo, third, amount.EUR)
	other := Pair{Lo: k.lo, Hi: k.hi, Currency: k.cur}
	for name, bad := range map[string]Pair{
		"duplicate":     good,
		"self-pair":     {Lo: lo, Hi: lo, Currency: amount.USD},
		"non-canonical": {Lo: hi, Hi: lo, Currency: amount.EUR},
		"xrp":           {Lo: lo, Hi: hi, Currency: amount.XRP},
	} {
		batch := []Pair{good, other, bad}
		one := New()
		var want error
		for _, p := range batch {
			if want = restorePair(one, p.Lo, p.Hi, p.Currency, p.LimitLoHi, p.LimitHiLo, p.Balance); want != nil {
				break
			}
		}
		got := New().RestorePairs(batch)
		if want == nil || got == nil || want.Error() != got.Error() {
			t.Errorf("%s: one at a time %v, bulk %v", name, want, got)
		}
	}
	holding := New()
	if _, err := holding.SetTrust(lo, third, amount.USD, amount.FromInt64(1)); err != nil {
		t.Fatal(err)
	}
	if err := holding.RestorePairs([]Pair{good}); err == nil {
		t.Error("RestorePairs accepted a graph that already holds pairs")
	}
}
