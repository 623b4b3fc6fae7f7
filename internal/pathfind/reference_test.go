package pathfind

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
			line := r.g.PairOf(path[i], path[i+1], cur)
			plan.TrustFlows = append(plan.TrustFlows, Flow{From: path[i], To: path[i+1], Currency: cur, Value: bottleneck, Path: len(plan.Paths),
				Line: line, FromLo: line.Lo == path[i]})
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
		_, _ = g.SetTrust(a, b, cur, amount.FromInt64(int64(lo+r.Intn(span))))
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
			_ = p.ApplyFlow(p.Lo == from, c.Min(amount.FromInt64(int64(3+r.Intn(25)))))
		}
	}
	return g, books, all
}

// applyFlow moves v from → to across their pair in cur, resolved through
// PairOf rather than taken from a plan.
func applyFlow(g *trustgraph.Graph, from, to addr.AccountID, cur amount.Currency, v amount.Value) error {
	p := g.PairOf(from, to, cur)
	if p == nil {
		return fmt.Errorf("no trust between %s and %s in %s", from.Short(), to.Short(), cur)
	}
	return p.ApplyFlow(p.Lo == from, v)
}

func accountSet(as []addr.AccountID) map[addr.AccountID]bool {
	out := make(map[addr.AccountID]bool, len(as))
	for _, a := range as {
		out[a] = true
	}
	return out
}

// hubWorld is the shape the destination's marked neighbours are for, at
// the degree where it matters: one gateway holding hundreds of USD lines,
// a second hub and a small one linked to it, users rippling user →
// gateway → user, and users whose line from the gateway is fully drawn,
// so that the one last hop from the gateway has no residual and the
// search must reach them through a friend one layer deeper.
type hubWorld struct {
	g     *trustgraph.Graph
	books *orderbook.Books
	gw    addr.AccountID   // the wide gateway
	hub   addr.AccountID   // a second hub, linked to the gateway
	users []addr.AccountID // the gateway's users
	late  []addr.AccountID // the users in the last fifth of the gateway's block
	drawn []addr.AccountID // users the gateway can send nothing more
}

func newHubWorld(r *rand.Rand, seed uint64) *hubWorld {
	g, books := trustgraph.New(), orderbook.New()
	next := seed * 10_000
	fresh := func() addr.AccountID {
		next++
		return addr.KeyPairFromSeed(next).AccountID()
	}
	trust := func(a, b addr.AccountID, cur amount.Currency, limit int) {
		_, _ = g.SetTrust(a, b, cur, amount.FromInt64(int64(limit)))
	}
	// issue has `from` send `to` a share of what the line allows, so each
	// line carries a balance and room in both directions.
	issue := func(from, to addr.AccountID, cur amount.Currency, pct int) {
		if c := g.Capacity(from, to, cur); c.IsPositive() {
			v, _ := c.Mul(amount.FromInt64(int64(pct)))
			v, _ = v.Div(amount.FromInt64(100))
			if v.IsPositive() {
				_ = applyFlow(g, from, to, cur, v)
			}
		}
	}
	w := &hubWorld{g: g, books: books, gw: fresh(), hub: fresh()}
	small := fresh()
	for _, pair := range [][2]addr.AccountID{{w.gw, w.hub}, {w.gw, small}, {w.hub, small}} {
		for _, cur := range []amount.Currency{amount.USD, amount.EUR} {
			trust(pair[0], pair[1], cur, 150+r.Intn(200))
			trust(pair[1], pair[0], cur, 150+r.Intn(200))
			issue(pair[0], pair[1], cur, 20+r.Intn(40))
		}
	}
	line := func(u, h addr.AccountID, cur amount.Currency) {
		trust(u, h, cur, 10+r.Intn(40))
		issue(h, u, cur, 30+r.Intn(60))
	}
	for i := 0; i < 330; i++ {
		u := fresh()
		w.users = append(w.users, u)
		line(u, w.gw, amount.USD)
		if r.Intn(5) == 0 {
			line(u, w.hub, amount.USD)
		}
		if r.Intn(10) == 0 {
			line(u, small, amount.USD)
		}
		if r.Intn(6) == 0 {
			line(u, w.gw, amount.EUR)
		}
	}
	for i := 0; i < 40; i++ {
		// A few chords between users, so a destination can have more than
		// one parent in a layer and frontier order decides between them.
		a, b := w.users[r.Intn(len(w.users))], w.users[r.Intn(len(w.users))]
		if a != b {
			trust(a, b, amount.USD, 5+r.Intn(20))
			trust(b, a, amount.USD, 5+r.Intn(20))
		}
	}
	for i := 0; i < 12; i++ {
		// x's gateway line is fully issued; x is reachable only through
		// its friend f, itself a gateway user.
		x, f := fresh(), w.users[r.Intn(len(w.users))]
		trust(x, w.gw, amount.USD, 10+r.Intn(30))
		issue(w.gw, x, amount.USD, 100)
		trust(x, f, amount.USD, 15+r.Intn(30))
		trust(f, x, amount.USD, 5+r.Intn(10))
		w.drawn = append(w.drawn, x)
		w.users = append(w.users, x)
	}
	for i := 0; i < 2; i++ {
		mm := fresh()
		for _, cur := range []amount.Currency{amount.USD, amount.EUR} {
			for _, h := range []addr.AccountID{w.gw, w.hub} {
				trust(mm, h, cur, 60+r.Intn(60))
				trust(h, mm, cur, 60+r.Intn(60))
				issue(h, mm, cur, 50)
			}
		}
		for j, p := range [][2]amount.Currency{{amount.USD, amount.EUR}, {amount.EUR, amount.USD}, {amount.USD, amount.XRP}, {amount.XRP, amount.USD}} {
			_ = books.Place(&orderbook.Offer{Owner: mm, Seq: uint32(j + 1),
				Pays: amount.New(p[0], amount.FromInt64(int64(20+r.Intn(60)))),
				Gets: amount.New(p[1], amount.FromInt64(int64(20+r.Intn(60))))})
		}
	}
	gi, _ := g.Index(w.gw)
	block := g.Edges(gi, amount.USD)
	for _, e := range block[len(block)*4/5:] {
		if a := g.AccountAt(e.Peer()); slices.Contains(w.users, a) {
			w.late = append(w.late, a)
		}
	}
	return w
}

// payment picks the next hub-world payment from its mix: to a user late
// in the gateway's block, to the gateway, to the second hub, to a user
// whose gateway line is drawn, or between any two users. It returns the
// payment's kind as its index into that list.
func (w *hubWorld) payment(r *rand.Rand) (src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount, kind int) {
	src = w.users[r.Intn(len(w.users))]
	kind = r.Intn(5)
	switch kind {
	case 0:
		dst = w.late[r.Intn(len(w.late))]
	case 1:
		dst = w.gw
	case 2:
		dst = w.hub
	case 3:
		dst = w.drawn[r.Intn(len(w.drawn))]
	default:
		dst = w.users[r.Intn(len(w.users))]
	}
	deliver = amount.New(amount.USD, amount.FromInt64(int64(1+r.Intn(30))))
	srcCur = amount.USD
	if r.Intn(8) == 0 {
		srcCur = amount.EUR
	}
	return src, dst, srcCur, deliver, kind
}

// matchReference plans one payment with the Finder and with the
// reference planner and requires identical flows, paths, amounts and
// quotes, and read sets equal as sets. A plan that delivers in full is
// executed, so later payments search a network with used-up lines and
// thinner books. It returns the Finder's plan, nil when both found none.
func matchReference(t *testing.T, f *Finder, ref *refPlanner, world uint64, n int, src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) *Plan {
	t.Helper()
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
		return nil
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
	if got.Delivered.Cmp(deliver.Value) < 0 {
		return got
	}
	for _, fl := range got.TrustFlows {
		if err := applyFlow(ref.g, fl.From, fl.To, fl.Currency, fl.Value); err != nil {
			t.Fatalf("world %d payment %d: planned flow does not apply: %v", world, n, err)
		}
	}
	for _, q := range got.Quotes {
		if err := ref.books.Apply(q); err != nil {
			t.Fatalf("world %d payment %d: planned quote does not apply: %v", world, n, err)
		}
	}
	return got
}

// TestFindPaymentMatchesReference plans the same seeded payments with one
// long-lived recording Finder and with the reference planner, executing
// each found plan so the state keeps moving, and requires identical
// flows, paths, amounts and quotes, and read sets equal as sets. It runs
// over the mixed refWorld networks and over wide-hub networks, where
// most searches end one layer past a gateway of hundreds of lines.
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
				got := matchReference(t, f, ref, world, n, src, dst, srcCur, deliver)
				if got == nil {
					dry++
					continue
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
			}
		}
		t.Logf("bounds %+v: %d plans (%d multi-path, %d bridged, %d trust+bridge), %d dry", b, found, multi, bridged, mixed, dry)
		if found < 300 || dry < 50 || multi < 30 || bridged < 30 {
			t.Errorf("bounds %+v: mix too thin: %d plans (%d multi-path, %d bridged), %d dry", b, found, multi, bridged, dry)
		}

		// planned[k] counts plans of each hubWorld.payment kind; deeper
		// counts plans to a drawn user whose first path is longer than
		// the gateway's one hop.
		var planned [5]int
		deeper := 0
		for world := uint64(7); world <= 8; world++ {
			r := rand.New(rand.NewSource(int64(1800 + world)))
			w := newHubWorld(r, world)
			f := New(w.g, w.books, WithRecording(), WithMaxHops(b.hops), withMaxPaths(b.paths))
			ref := &refPlanner{g: w.g, books: w.books, maxHops: b.hops, maxPaths: b.paths}
			for n := 0; n < 250; n++ {
				src, dst, srcCur, deliver, kind := w.payment(r)
				if src == dst {
					continue
				}
				got := matchReference(t, f, ref, world, n, src, dst, srcCur, deliver)
				if got == nil || got.UsedBridge {
					continue
				}
				planned[kind]++
				if kind == 3 && got.Paths[0].Hops > 1 {
					deeper++
				}
			}
		}
		t.Logf("bounds %+v: hub worlds planned %v by kind (late user, gateway, hub, drawn, any), %d through a drawn user's friend", b, planned, deeper)
		for kind, n := range planned {
			if n < 20 {
				t.Errorf("bounds %+v: hub-world mix too thin: %d plans of kind %d", b, n, kind)
			}
		}
		if deeper < 10 {
			t.Errorf("bounds %+v: only %d plans reached a drawn user through its friend", b, deeper)
		}
	}
}
