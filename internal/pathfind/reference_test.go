package pathfind

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/trustgraph"
)

// refPlanner is the planner written the slow, obvious way, as a second
// opinion on Finder: account IDs instead of dense indices, maps instead
// of scratch arrays and epoch stamps, neighbours recomputed from the
// account's pairs and sorted on every expansion, every capacity through
// Graph.Capacity, and the planned flows in a plain map consulted for
// every edge. It follows the same routing rules — breadth-first, peers in
// account-ID order, first parent wins, stop on arrival — so its plans and
// read sets must be Finder's exactly.
type refPlanner struct {
	g        *trustgraph.Graph
	books    *orderbook.Books
	maxHops  int
	maxPaths int

	planned  map[refEdge]amount.Value
	readAcct map[addr.AccountID]bool
	readPair map[orderbook.Pair]bool
}

type refEdge struct {
	from, to addr.AccountID
	cur      amount.Currency
}

func (r *refPlanner) find(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) *Plan {
	r.planned = map[refEdge]amount.Value{}
	r.readAcct = map[addr.AccountID]bool{src: true, dst: true}
	r.readPair = map[orderbook.Pair]bool{}
	plan := &Plan{Src: src, Dst: dst, Currency: deliver.Currency, SrcCurrency: srcCur}
	if srcCur != deliver.Currency {
		plan = r.bridge(plan, src, dst, srcCur, deliver)
	} else {
		plan.Delivered = r.routeTrust(plan, src, dst, deliver.Currency, deliver.Value)
		plan.SourceCost = plan.Delivered
		if plan.Delivered.Cmp(deliver.Value) < 0 {
			residue, _ := deliver.Value.Sub(plan.Delivered)
			if bridged := r.bridge(plan, src, dst, deliver.Currency, amount.New(deliver.Currency, residue)); bridged != nil {
				plan = bridged
			}
		}
	}
	if plan == nil || plan.Delivered.IsZero() {
		return nil
	}
	return plan
}

func (r *refPlanner) peers(a addr.AccountID, cur amount.Currency) []addr.AccountID {
	var out []addr.AccountID
	r.g.PairsOf(a, func(p *trustgraph.Pair) {
		if p.Currency != cur {
			return
		}
		if p.Lo == a {
			out = append(out, p.Hi)
		} else {
			out = append(out, p.Lo)
		}
	})
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}

func (r *refPlanner) capacity(from, to addr.AccountID, cur amount.Currency) amount.Value {
	c, err := r.g.Capacity(from, to, cur).Sub(r.planned[refEdge{from, to, cur}])
	if err == nil {
		c, err = c.Add(r.planned[refEdge{to, from, cur}])
	}
	if err != nil || c.IsNegative() {
		return amount.Zero
	}
	return c
}

func (r *refPlanner) shortestPath(src, dst addr.AccountID, cur amount.Currency) []addr.AccountID {
	parent := map[addr.AccountID]addr.AccountID{}
	depth := map[addr.AccountID]int{src: 0}
	frontier := []addr.AccountID{src}
	for len(frontier) > 0 {
		var next []addr.AccountID
		for _, u := range frontier {
			if depth[u] >= r.maxHops+1 {
				continue
			}
			r.readAcct[u] = true
			for _, peer := range r.peers(u, cur) {
				if _, seen := depth[peer]; seen || !r.capacity(u, peer, cur).IsPositive() {
					continue
				}
				parent[peer], depth[peer] = u, depth[u]+1
				if peer == dst {
					path := []addr.AccountID{dst}
					for at := dst; at != src; at = parent[at] {
						path = append([]addr.AccountID{parent[at]}, path...)
					}
					return path
				}
				next = append(next, peer)
			}
		}
		frontier = next
	}
	return nil
}

func (r *refPlanner) routeTrust(plan *Plan, src, dst addr.AccountID, cur amount.Currency, want amount.Value) amount.Value {
	r.readAcct[src], r.readAcct[dst] = true, true
	// An account the graph has never seen has no edges to search from or
	// arrive at.
	if _, ok := r.g.Index(src); !ok {
		return amount.Zero
	}
	if _, ok := r.g.Index(dst); !ok {
		return amount.Zero
	}
	total, remaining := amount.Zero, want
	for len(plan.Paths) < r.maxPaths && remaining.IsPositive() {
		path := r.shortestPath(src, dst, cur)
		if path == nil {
			break
		}
		bottleneck := remaining
		for i := 0; i+1 < len(path); i++ {
			bottleneck = bottleneck.Min(r.capacity(path[i], path[i+1], cur))
		}
		if !bottleneck.IsPositive() {
			break
		}
		for i := 0; i+1 < len(path); i++ {
			plan.TrustFlows = append(plan.TrustFlows, Flow{From: path[i], To: path[i+1], Currency: cur, Value: bottleneck, Path: len(plan.Paths)})
			k := refEdge{path[i], path[i+1], cur}
			r.planned[k], _ = r.planned[k].Add(bottleneck)
		}
		plan.Paths = append(plan.Paths, PathInfo{Hops: len(path) - 2, Value: bottleneck})
		total, _ = total.Add(bottleneck)
		remaining, _ = remaining.Sub(bottleneck)
	}
	return total
}

func (r *refPlanner) quote(pair orderbook.Pair, want amount.Value) (orderbook.Quote, bool) {
	r.readPair[pair] = true
	var q orderbook.Quote
	err := r.books.QuoteBuyInto(pair, want, &q)
	return q, err == nil && q.TotalGets.Cmp(want) == 0
}

// bridge adds a route for `deliver` through the books — the direct book,
// or two books through XRP when that is cheaper — with the sender
// reaching every entry offer's owner and every exit offer's owner
// reaching the destination over trust lines. nil when any leg is missing.
func (r *refPlanner) bridge(plan *Plan, src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) *Plan {
	var quotes []orderbook.Quote
	var cost amount.Value
	if direct, ok := r.quote(orderbook.Pair{Pays: srcCur, Gets: deliver.Currency}, deliver.Value); ok {
		quotes, cost = []orderbook.Quote{direct}, direct.TotalPays
	}
	if !srcCur.IsXRP() && !deliver.Currency.IsXRP() {
		if leg2, ok := r.quote(orderbook.Pair{Pays: amount.XRP, Gets: deliver.Currency}, deliver.Value); ok {
			if leg1, ok := r.quote(orderbook.Pair{Pays: srcCur, Gets: amount.XRP}, leg2.TotalPays); ok {
				if quotes == nil || leg1.TotalPays.Cmp(cost) < 0 {
					quotes, cost = []orderbook.Quote{leg1, leg2}, leg1.TotalPays
				}
			}
		}
	}
	if quotes == nil {
		return nil
	}
	trial := *plan
	trial.TrustFlows = append([]Flow(nil), plan.TrustFlows...)
	trial.Paths = append([]PathInfo(nil), plan.Paths...)
	trial.Quotes = append([]orderbook.Quote(nil), plan.Quotes...)
	entry, exit := quotes[0], quotes[len(quotes)-1]
	if !srcCur.IsXRP() {
		for _, fill := range entry.Fills {
			if fill.Offer.Owner == src {
				continue
			}
			saved := len(trial.Paths)
			if r.routeTrust(&trial, src, fill.Offer.Owner, srcCur, fill.Pays).Cmp(fill.Pays) < 0 {
				return nil
			}
			trial.Paths = trial.Paths[:saved]
		}
	}
	exitHops := 0
	if !deliver.Currency.IsXRP() {
		for _, fill := range exit.Fills {
			if fill.Offer.Owner == dst {
				continue
			}
			saved := len(trial.Paths)
			if r.routeTrust(&trial, fill.Offer.Owner, dst, deliver.Currency, fill.Gets).Cmp(fill.Gets) < 0 {
				return nil
			}
			for _, p := range trial.Paths[saved:] {
				exitHops = max(exitHops, p.Hops)
			}
			trial.Paths = trial.Paths[:saved]
		}
	}
	trial.Quotes = append(trial.Quotes, quotes...)
	for _, fill := range exit.Fills {
		trial.Paths = append(trial.Paths, PathInfo{Hops: 1 + exitHops, Value: fill.Gets})
	}
	trial.Delivered, _ = trial.Delivered.Add(deliver.Value)
	trial.SourceCost, _ = trial.SourceCost.Add(cost)
	trial.UsedBridge = true
	return &trial
}

// refWorld builds a credit network shaped like the one "Mind Your Credit"
// describes — a few gateways carrying most lines, users hanging off them,
// long thin chains between and beyond them, some random chords — with
// tight limits so payments split across paths, market makers quoting both
// currencies against each other and against XRP, and an initial flow
// over most lines so balances are off zero in both directions.
func refWorld(r *rand.Rand, seed uint64) (*trustgraph.Graph, *orderbook.Books, []addr.AccountID) {
	g, books := trustgraph.New(), orderbook.New()
	curs := []amount.Currency{amount.USD, amount.EUR}
	next := seed * 10_000
	fresh := func() addr.AccountID {
		next++
		return addr.KeyPairFromSeed(next).AccountID()
	}
	trust := func(a, b addr.AccountID, cur amount.Currency, lo, span int) {
		_ = g.SetTrust(a, b, cur, amount.FromInt64(int64(lo+r.Intn(span))))
	}
	var all, hubs, makers []addr.AccountID
	for i := 0; i < 3; i++ {
		hubs = append(hubs, fresh())
	}
	all = append(all, hubs...)
	for _, cur := range curs {
		for i, h := range hubs {
			trust(h, hubs[(i+1)%len(hubs)], cur, 20, 60)
			trust(hubs[(i+1)%len(hubs)], h, cur, 20, 60)
		}
	}
	for i := 0; i < 24; i++ {
		u := fresh()
		all = append(all, u)
		for _, cur := range curs {
			if r.Intn(4) == 0 {
				continue
			}
			// A user trusts one or two gateways; now and then a gateway
			// extends a little credit back.
			for k := 0; k <= r.Intn(2); k++ {
				h := hubs[r.Intn(len(hubs))]
				trust(u, h, cur, 5, 40)
				if r.Intn(2) == 0 {
					trust(h, u, cur, 1, 15)
				}
			}
		}
	}
	for c := 0; c < 4; c++ {
		// A chain of mutual lines from one gateway out, half the time
		// closing on another gateway.
		cur := curs[r.Intn(len(curs))]
		prev := hubs[r.Intn(len(hubs))]
		for i, n := 0, 3+r.Intn(5); i < n; i++ {
			a := fresh()
			all = append(all, a)
			trust(a, prev, cur, 5, 25)
			trust(prev, a, cur, 5, 25)
			prev = a
		}
		if r.Intn(2) == 0 {
			h := hubs[r.Intn(len(hubs))]
			trust(h, prev, cur, 5, 25)
			trust(prev, h, cur, 5, 25)
		}
	}
	for i := 0; i < 12; i++ {
		a, b := all[r.Intn(len(all))], all[r.Intn(len(all))]
		if a != b {
			trust(a, b, curs[r.Intn(len(curs))], 3, 20)
		}
	}
	for i := 0; i < 4; i++ {
		mm := fresh()
		makers = append(makers, mm)
		all = append(all, mm)
		for _, cur := range curs {
			for _, h := range hubs {
				trust(mm, h, cur, 30, 60)
				trust(h, mm, cur, 30, 60)
			}
		}
	}
	seq := uint32(0)
	offer := func(mm addr.AccountID, pays, gets amount.Currency) {
		seq++
		_ = books.Place(&orderbook.Offer{Owner: mm, Seq: seq,
			Pays: amount.New(pays, amount.FromInt64(int64(20+r.Intn(60)))),
			Gets: amount.New(gets, amount.FromInt64(int64(20+r.Intn(60))))})
	}
	for _, mm := range makers {
		for _, p := range [][2]amount.Currency{
			{amount.USD, amount.EUR}, {amount.EUR, amount.USD},
			{amount.USD, amount.XRP}, {amount.XRP, amount.USD},
			{amount.EUR, amount.XRP}, {amount.XRP, amount.EUR},
		} {
			if r.Intn(3) > 0 {
				offer(mm, p[0], p[1])
			}
		}
	}
	var lines []*trustgraph.Pair
	g.Pairs(func(p *trustgraph.Pair) { lines = append(lines, p) })
	for _, p := range lines {
		from, to := p.Lo, p.Hi
		if r.Intn(2) == 0 {
			from, to = to, from
		}
		if !g.Capacity(from, to, p.Currency).IsPositive() {
			from, to = to, from
		}
		if c := g.Capacity(from, to, p.Currency); c.IsPositive() && r.Intn(5) > 0 {
			_ = g.ApplyFlow(from, to, p.Currency, c.Min(amount.FromInt64(int64(3+r.Intn(25)))))
		}
	}
	return g, books, all
}

func accountSet(as []addr.AccountID) map[addr.AccountID]bool {
	out := make(map[addr.AccountID]bool, len(as))
	for _, a := range as {
		out[a] = true
	}
	return out
}

// TestFindPaymentMatchesReference plans the same seeded payments with one
// long-lived recording Finder and with the reference planner, executing
// each found plan so the state keeps moving, and requires identical
// flows, paths, amounts and quotes, and read sets equal as sets.
func TestFindPaymentMatchesReference(t *testing.T) {
	type bounds struct{ hops, paths int }
	for _, b := range []bounds{{DefaultMaxHops, DefaultMaxPaths}, {2, 2}} {
		var found, dry, multi, bridged, mixed int
		for world := uint64(1); world <= 6; world++ {
			r := rand.New(rand.NewSource(int64(1800 + world)))
			g, books, all := refWorld(r, world)
			f := New(g, books, WithRecording(), WithMaxHops(b.hops), withMaxPaths(b.paths))
			ref := &refPlanner{g: g, books: books, maxHops: b.hops, maxPaths: b.paths}
			curs := []amount.Currency{amount.USD, amount.EUR}
			for n := 0; n < 250; n++ {
				src, dst := all[r.Intn(len(all))], all[r.Intn(len(all))]
				if src == dst {
					continue
				}
				deliver := amount.New(curs[r.Intn(2)], amount.FromInt64(int64(1+r.Intn(40))))
				srcCur := deliver.Currency
				switch r.Intn(10) {
				case 0, 1, 2:
					srcCur = curs[r.Intn(2)]
				case 3:
					srcCur = amount.XRP
				}
				if r.Intn(12) == 0 {
					deliver.Currency = amount.XRP
					srcCur = curs[r.Intn(2)]
				}
				got, err := f.FindPayment(src, dst, srcCur, deliver)
				want := ref.find(src, dst, srcCur, deliver)
				var rs ReadSet
				f.AppendReadSet(&rs)
				if !reflect.DeepEqual(accountSet(rs.Accounts), ref.readAcct) {
					t.Fatalf("world %d payment %d (%s→%s %s via %s): read %d accounts, reference %d",
						world, n, src.Short(), dst.Short(), deliver, srcCur, len(accountSet(rs.Accounts)), len(ref.readAcct))
				}
				pairs := map[orderbook.Pair]bool{}
				for _, p := range rs.Pairs {
					pairs[p] = true
				}
				if !reflect.DeepEqual(pairs, ref.readPair) {
					t.Fatalf("world %d payment %d: read book pairs %v, reference %v", world, n, pairs, ref.readPair)
				}
				if (err != nil) != (want == nil) {
					t.Fatalf("world %d payment %d (%s→%s %s via %s): err = %v, reference plan = %v",
						world, n, src.Short(), dst.Short(), deliver, srcCur, err, want)
				}
				if err != nil {
					dry++
					continue
				}
				if !reflect.DeepEqual(got.TrustFlows, want.TrustFlows) && len(got.TrustFlows)+len(want.TrustFlows) > 0 {
					t.Fatalf("world %d payment %d: trust flows\n got %v\nwant %v", world, n, got.TrustFlows, want.TrustFlows)
				}
				if !reflect.DeepEqual(got.Paths, want.Paths) {
					t.Fatalf("world %d payment %d: paths got %v want %v", world, n, got.Paths, want.Paths)
				}
				if got.Delivered != want.Delivered || got.SourceCost != want.SourceCost || got.UsedBridge != want.UsedBridge {
					t.Fatalf("world %d payment %d: delivered/cost/bridge got %s/%s/%v want %s/%s/%v", world, n,
						got.Delivered, got.SourceCost, got.UsedBridge, want.Delivered, want.SourceCost, want.UsedBridge)
				}
				if !reflect.DeepEqual(got.Quotes, want.Quotes) && len(got.Quotes)+len(want.Quotes) > 0 {
					t.Fatalf("world %d payment %d: quotes got %v want %v", world, n, got.Quotes, want.Quotes)
				}
				found++
				if len(got.Paths) > 1 && !got.UsedBridge {
					multi++
				}
				if got.UsedBridge {
					bridged++
					if len(got.TrustFlows) > 0 && got.SrcCurrency == got.Currency {
						mixed++
					}
				}
				// Execute what was planned, so later payments search a
				// network with used-up lines and thinner books.
				if got.Delivered.Cmp(deliver.Value) < 0 {
					continue
				}
				for _, fl := range got.TrustFlows {
					if err := g.ApplyFlow(fl.From, fl.To, fl.Currency, fl.Value); err != nil {
						t.Fatalf("world %d payment %d: planned flow does not apply: %v", world, n, err)
					}
				}
				for _, q := range got.Quotes {
					if err := books.Apply(q); err != nil {
						t.Fatalf("world %d payment %d: planned quote does not apply: %v", world, n, err)
					}
				}
			}
		}
		t.Logf("bounds %+v: %d plans (%d multi-path, %d bridged, %d trust+bridge), %d dry", b, found, multi, bridged, mixed, dry)
		if found < 300 || dry < 50 || multi < 30 || bridged < 30 {
			t.Errorf("bounds %+v: mix too thin: %d plans (%d multi-path, %d bridged), %d dry", b, found, multi, bridged, dry)
		}
	}
}
