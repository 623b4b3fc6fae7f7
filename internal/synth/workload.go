package synth

import (
	"math"
	"math/rand"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// trafficClass is one currency's payment budget. WindowEnd < 1 confines
// the traffic to an early fraction of the history — the spam campaigns
// predate the paper's Table II replay window (Feb–Aug 2015), so they end
// before the final stretch of the generated history.
type trafficClass struct {
	cur       amount.Currency
	budget    int
	windowEnd float64
}

// poisson draws a Poisson variate (Knuth's method; λ here is ~1).
func poisson(rng *rand.Rand, lambda float64) int {
	l := math.Exp(-lambda)
	k := 0
	p := 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// workload drives the payment and offer traffic, page by page.
func (g *generator) workload() error {
	target := g.cfg.Payments
	lambda := g.cfg.TxRate * g.cfg.CloseInterval.Seconds()
	offerBudget := int(float64(target) * g.cfg.OffersPerPayment)
	offerLambda := lambda * g.cfg.OffersPerPayment

	g.buildWorkloadIndexes()

	// Seed the books so early cross-currency payments find liquidity.
	initialOffers := 400
	if initialOffers > offerBudget {
		initialOffers = offerBudget
	}
	for i := 0; i < initialOffers; i++ {
		if err := g.placeOfferOrCancel(); err != nil {
			return err
		}
		offerBudget--
		if i%50 == 49 {
			if err := g.tick(); err != nil {
				return err
			}
		}
	}
	if err := g.tick(); err != nil {
		return err
	}

	// Currency budgets. Setup already emitted organic-currency deposits
	// (they are payments too), diluting the headline shares; the
	// dedicated traffic classes (XRP, CCK, MTL) compensate by targeting
	// share × (setup + workload) so the final ledger mix matches
	// Figure 4.
	totalExpected := float64(target + g.stats.PaymentsOK)
	var classes []trafficClass
	for _, m := range g.mix {
		b := int(m.share*totalExpected) - g.stats.ByCurrency[m.cur]
		if b < 0 {
			b = 0
		}
		tc := trafficClass{cur: m.cur, budget: b, windowEnd: 1}
		switch m.cur {
		case amount.MTL:
			tc.windowEnd = 0.6
		case amount.CCK:
			tc.windowEnd = 0.65
		}
		classes = append(classes, tc)
	}

	attempts := 0
	for attempts < target {
		n := poisson(g.rng, lambda)
		for i := 0; i < n && attempts < target; i++ {
			attempts++
			progress := float64(attempts) / float64(target)
			ci := g.pickClass(classes, progress)
			if ci < 0 {
				continue
			}
			classes[ci].budget--
			if err := g.onePayment(classes[ci].cur); err != nil {
				return err
			}
		}
		for o := poisson(g.rng, offerLambda); o > 0 && offerBudget > 0; o-- {
			if err := g.placeOfferOrCancel(); err != nil {
				return err
			}
			offerBudget--
		}
		if err := g.tick(); err != nil {
			return err
		}
	}
	return nil
}

// workload indexes built once.
type userLineRef struct {
	user int
	line int
}

func (g *generator) buildWorkloadIndexes() {
	g.linesByCur = make(map[amount.Currency][]userLineRef)
	g.merchantsByCur = make(map[amount.Currency][]int)
	for ui := range g.pop.Users {
		u := &g.pop.Users[ui]
		for li, l := range u.Lines {
			g.linesByCur[l.Currency] = append(g.linesByCur[l.Currency], userLineRef{user: ui, line: li})
			if u.Merchant {
				ms := g.merchantsByCur[l.Currency]
				if len(ms) == 0 || ms[len(ms)-1] != ui {
					g.merchantsByCur[l.Currency] = append(ms, ui)
				}
			}
		}
	}
	// Market-maker offer placement weights (zipfian concentration).
	total := 0.0
	for _, mm := range g.pop.MarketMakers {
		total += mm.OfferWeight
	}
	acc := 0.0
	g.mmCumWeights = make([]float64, len(g.pop.MarketMakers))
	for i, mm := range g.pop.MarketMakers {
		acc += mm.OfferWeight / total
		g.mmCumWeights[i] = acc
	}
}

// pickClass samples a currency class proportionally to its remaining
// budget divided by the time left in its window, so classes confined to
// an early window (the spam campaigns) spend their full budget before
// the window closes.
func (g *generator) pickClass(classes []trafficClass, progress float64) int {
	const eps = 1e-6
	total := 0.0
	weight := func(c trafficClass) float64 {
		if c.budget <= 0 || progress > c.windowEnd {
			return 0
		}
		left := c.windowEnd - progress
		if left < eps {
			left = eps
		}
		return float64(c.budget) / left
	}
	for _, c := range classes {
		total += weight(c)
	}
	if total == 0 {
		// All windows closed or budgets spent: fall back to any budget.
		for i, c := range classes {
			if c.budget > 0 {
				return i
			}
		}
		return -1
	}
	pick := g.rng.Float64() * total
	for i, c := range classes {
		w := weight(c)
		if w == 0 {
			continue
		}
		if pick < w {
			return i
		}
		pick -= w
	}
	return -1
}

// onePayment emits one payment of the given currency, dispatching to the
// per-currency traffic model.
func (g *generator) onePayment(cur amount.Currency) error {
	switch cur {
	case amount.XRP:
		return g.xrpPayment()
	case amount.CCK:
		return g.cckSpam()
	case amount.MTL:
		return g.mtlSpam()
	default:
		return g.organicPayment(cur)
	}
}

// xrpPayment: direct XRP traffic — gambling bets to Ripple Spin (~10%),
// ACCOUNT_ZERO ping-pong spam (~8%), and person-to-person transfers.
func (g *generator) xrpPayment() error {
	r := g.rng.Float64()
	switch {
	case r < 0.10: // Ripple Spin bet
		u := &g.pop.Users[g.rng.Intn(len(g.pop.Users))]
		bet := spinBets[g.rng.Intn(len(spinBets))]
		_, err := g.submit(u.Key, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = g.pop.RippleSpin.AccountID()
			tx.Amount = amount.New(amount.XRP, bet)
		})
		return err
	case r < 0.18: // ACCOUNT_ZERO spam: anyone can sign for it
		spammer := g.pop.CCKSpammers[g.rng.Intn(2)]
		v := zeroSpam[g.rng.Intn(len(zeroSpam))]
		if g.zeroForward {
			g.zeroForward = false
			_, err := g.submit(spammer, func(tx *ledger.Tx) {
				tx.Type = ledger.TxPayment
				tx.Destination = addr.AccountZero
				tx.Amount = amount.New(amount.XRP, v)
			})
			return err
		}
		g.zeroForward = true
		_, err := g.submitAs(addr.AccountZero, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = spammer.AccountID()
			tx.Amount = amount.New(amount.XRP, v)
		})
		return err
	case r < 0.51: // whale transfer between institutions
		// Inter-exchange XRP movements: large, diverse amounts — the
		// upper decades of Figure 5's XRP survival function.
		from, to := g.institution(), g.institution()
		if from.AccountID() == to.AccountID() {
			return nil
		}
		f := 3e6 * math.Exp(g.rng.NormFloat64()*1.5)
		if f > 2e7 {
			f = 2e7
		}
		if f < 1e5 {
			f = 1e5
		}
		v, err := amount.FromFloat64(f)
		if err != nil {
			return nil
		}
		v = v.RoundToPow10(4)
		_, err = g.submit(from, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = to.AccountID()
			tx.Amount = amount.New(amount.XRP, v)
		})
		return err
	default: // P2P between ordinary users: small, mostly round amounts
		si := g.rng.Intn(len(g.pop.Users))
		di := g.rng.Intn(len(g.pop.Users))
		if di == si {
			di = (di + 1) % len(g.pop.Users)
		}
		f := 3000 * math.Exp(g.rng.NormFloat64()*1.8)
		if f > 10000 {
			f = float64(1 + g.rng.Intn(10000))
		}
		if f < 1 {
			f = 1
		}
		v := amount.FromInt64(int64(f))
		_, err := g.submit(g.pop.Users[si].Key, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = g.pop.Users[di].ID
			tx.Amount = amount.New(amount.XRP, v)
		})
		return err
	}
}

// institution picks a gateway or market maker keypair — the
// deep-pocketed XRP holders.
func (g *generator) institution() *addr.KeyPair {
	n := len(g.pop.Gateways) + len(g.pop.MarketMakers)
	i := g.rng.Intn(n)
	if i < len(g.pop.Gateways) {
		return g.pop.Gateways[i].Key
	}
	return g.pop.MarketMakers[i-len(g.pop.Gateways)].Key
}

// submitAs submits an unsigned transaction on behalf of an account whose
// key the submitter "knows" — ACCOUNT_ZERO's secret key is public, which
// the paper identifies as the enabler of its spam traffic.
// Both of its callers send direct XRP payments, which never count as
// cross-currency.
func (g *generator) submitAs(account addr.AccountID, mutate func(*ledger.Tx)) (*ledger.TxMeta, error) {
	return g.apply(account, nil, mutate)
}

// cckSpam: micro-transactions ping-ponging around the spammer ring.
func (g *generator) cckSpam() error {
	i := g.rng.Intn(len(g.pop.CCKSpammers))
	a := g.pop.CCKSpammers[i]
	b := g.pop.CCKSpammers[(i+1)%len(g.pop.CCKSpammers)]
	if g.cckForward {
		a, b = b, a
	}
	g.cckForward = !g.cckForward
	v := cckMicro[g.rng.Intn(len(cckMicro))]
	_, err := g.submit(a, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = b.AccountID()
		tx.Amount = amount.New(amount.CCK, v)
	})
	return err
}

// mtlSpam: the 6-chain, 8-hop spam campaign. Directions alternate so the
// chain capacities regenerate (debt is paid back down the same links).
// Every 50th forward/back pair instead traverses the 44-intermediary
// long chain — the oddity at the far right of Figure 6(a).
func (g *generator) mtlSpam() error {
	g.mtlCount++
	if (g.mtlCount/2)%50 == 1 && len(g.pop.LongChain) >= 2 {
		from := g.pop.LongChain[0]
		to := g.pop.LongChain[len(g.pop.LongChain)-1]
		if g.mtlCount%2 == 0 {
			from, to = to, from
		}
		_, err := g.submit(from, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = to.AccountID()
			tx.Amount = amount.New(amount.MTL, mtlQuantum)
		})
		return err
	}
	from, to := g.pop.Attacker, g.pop.SpamSink
	if !g.spamForward {
		from, to = to, from
	}
	g.spamForward = !g.spamForward
	_, err := g.submit(from, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = to.AccountID()
		tx.Amount = amount.New(amount.MTL, mtlSpamAmount)
	})
	return err
}

// organicPayment: deposits, consumer purchases, and P2P transfers in an
// issued currency.
func (g *generator) organicPayment(cur amount.Currency) error {
	refs := g.linesByCur[cur]
	if len(refs) == 0 {
		// Nobody holds this currency (deep-tail): issue a deposit to
		// bootstrap it.
		return g.bootstrapCurrency(cur)
	}
	r := g.rng.Float64()
	switch {
	case r < 0.25:
		// Deposit: the user's host issues fresh IOUs.
		ref := refs[g.rng.Intn(len(refs))]
		u := &g.pop.Users[ref.user]
		host := u.Lines[ref.line].Host
		v := g.organicModel[modelKey(cur)].deposit(g.rng)
		_, err := g.submit(host, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = u.ID
			tx.Amount = amount.New(cur, v)
		})
		return err
	case r < 0.60:
		return g.consumerPayment(cur, refs)
	default:
		// P2P in the same currency; majors sometimes funded cross-
		// currency, like consumer payments.
		a := refs[g.rng.Intn(len(refs))]
		b := refs[g.rng.Intn(len(refs))]
		if a.user == b.user {
			return g.consumerPayment(cur, refs)
		}
		sender := &g.pop.Users[a.user]
		var v amount.Value
		if g.rng.Float64() < 0.8 {
			// Balance-proportional transfer: the user moves most of
			// what they hold. Anything above a single membership's
			// balance splits across the user's gateways — the parallel
			// paths of Figure 6(b).
			v = g.balanceShare(sender, cur)
		}
		if v.IsZero() {
			v = g.organicModel[modelKey(cur)].p2p(g.rng)
		}
		var sendMax amount.Amount
		if majorSet[cur] && g.rng.Float64() < 0.5 {
			sendMax = g.crossSource(sender, cur, v)
		}
		_, err := g.submit(sender.Key, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = g.pop.Users[b.user].ID
			tx.Amount = amount.New(cur, v)
			tx.SendMax = sendMax
		})
		return err
	}
}

// balanceShare returns 40–95% of the sender's total holdings of cur
// across all their hosts, snapped to the currency grid. Zero when the
// user holds nothing.
func (g *generator) balanceShare(sender *User, cur amount.Currency) amount.Value {
	total := amount.Zero
	for _, l := range sender.Lines {
		if l.Currency != cur {
			continue
		}
		owed := g.eng.Graph().Owed(sender.ID, l.HostID, cur)
		var err error
		if total, err = total.Add(owed); err != nil {
			return amount.Zero
		}
	}
	if !total.IsPositive() {
		return amount.Zero
	}
	frac, err := amount.FromFloat64(0.4 + 0.55*g.rng.Float64())
	if err != nil {
		return amount.Zero
	}
	v, err := total.Mul(frac)
	if err != nil {
		return amount.Zero
	}
	return v.RoundToPow10(g.organicModel[modelKey(cur)].grid)
}

// crossSource picks a funding currency different from cur (one of the
// sender's other major lines, or XRP) and returns a generous SendMax in
// it; the zero Amount means "pay in the delivery currency".
func (g *generator) crossSource(sender *User, cur amount.Currency, v amount.Value) amount.Amount {
	var candidates []amount.Currency
	for _, l := range sender.Lines {
		if l.Currency != cur && majorSet[l.Currency] {
			candidates = append(candidates, l.Currency)
		}
	}
	var srcCur amount.Currency
	if g.rng.Float64() < 0.3 || len(candidates) == 0 {
		srcCur = amount.XRP
	} else {
		srcCur = candidates[g.rng.Intn(len(candidates))]
	}
	fair := v.Float64() * RateUSD(cur) / RateUSD(srcCur)
	maxV, err := amount.FromFloat64(fair * 2)
	if err != nil || maxV.IsZero() {
		return amount.Amount{}
	}
	return amount.New(srcCur, maxV)
}

// majorSet lists the bridgeable currencies (books carry liquidity for
// these pairs).
var majorSet = map[amount.Currency]bool{
	amount.BTC: true, amount.USD: true, amount.CNY: true, amount.JPY: true,
}

// consumerPayment: a user pays a merchant a menu price; with high
// probability the payer funds it from a different currency
// (cross-currency payments are "68.7%" of the paper's replay set).
func (g *generator) consumerPayment(cur amount.Currency, refs []userLineRef) error {
	merchants := g.merchantsByCur[cur]
	if len(merchants) == 0 {
		// No merchant holds this currency; degrade to P2P.
		a := refs[g.rng.Intn(len(refs))]
		b := refs[g.rng.Intn(len(refs))]
		if a.user == b.user {
			return nil
		}
		v := g.organicModel[modelKey(cur)].p2p(g.rng)
		_, err := g.submit(g.pop.Users[a.user].Key, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = g.pop.Users[b.user].ID
			tx.Amount = amount.New(cur, v)
		})
		return err
	}
	// Zipfian merchant popularity.
	mi := merchants[g.zipfIndex(len(merchants))]
	m := &g.pop.Users[mi]
	menu := m.Prices[g.rng.Intn(len(m.Prices))]
	v := price(menu, cur)

	ref := refs[g.rng.Intn(len(refs))]
	sender := &g.pop.Users[ref.user]
	if sender.ID == m.ID {
		return nil
	}

	// Pay from another currency with high probability — cross-currency
	// payments dominate the paper's replay set (68.7%).
	var sendMax amount.Amount
	if majorSet[cur] && g.rng.Float64() < 0.85 {
		sendMax = g.crossSource(sender, cur, v)
	}
	_, err := g.submit(sender.Key, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = m.ID
		tx.Amount = amount.New(cur, v)
		tx.SendMax = sendMax
	})
	return err
}

// zipfIndex draws an index in [0, n) with zipfian (rank^-1) weighting.
func (g *generator) zipfIndex(n int) int {
	if n <= 1 {
		return 0
	}
	// Inverse-CDF on the harmonic distribution via rejection-free
	// approximation: u ~ U(0,1), index = n^u - 1 concentrates on small
	// ranks roughly like 1/rank.
	u := g.rng.Float64()
	idx := int(math.Pow(float64(n), u)) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// bootstrapCurrency issues a first deposit in a deep-tail currency.
func (g *generator) bootstrapCurrency(cur amount.Currency) error {
	gw := &g.pop.Gateways[g.rng.Intn(len(g.pop.Gateways))]
	ui := g.rng.Intn(len(g.pop.Users))
	u := &g.pop.Users[ui]
	if err := g.trust(u.Key, gw.ID, cur, g.organicModel[modelKey(cur)].trustLimit()); err != nil {
		return err
	}
	if err := g.depositFrom(gw.Key, u, cur); err != nil {
		return err
	}
	u.Lines = append(u.Lines, Line{Host: gw.Key, HostID: gw.ID, Currency: cur})
	g.linesByCur[cur] = append(g.linesByCur[cur], userLineRef{user: ui, line: len(u.Lines) - 1})
	if u.Merchant {
		g.merchantsByCur[cur] = append(g.merchantsByCur[cur], ui)
	}
	return nil
}

// placeOfferOrCancel emits one OfferCreate (or, 5% of the time, an
// OfferCancel of a standing offer) by a zipf-chosen market maker.
func (g *generator) placeOfferOrCancel() error {
	if len(g.standingOffers) > 0 && g.rng.Float64() < 0.05 {
		i := g.rng.Intn(len(g.standingOffers))
		o := g.standingOffers[i]
		g.standingOffers = append(g.standingOffers[:i], g.standingOffers[i+1:]...)
		_, err := g.submit(o.owner, func(tx *ledger.Tx) {
			tx.Type = ledger.TxOfferCancel
			tx.OfferSequence = o.seq
		})
		return err
	}
	// Pick the maker.
	u := g.rng.Float64()
	mi := len(g.mmCumWeights) - 1
	for i, c := range g.mmCumWeights {
		if u <= c {
			mi = i
			break
		}
	}
	mm := &g.pop.MarketMakers[mi]

	majors := []amount.Currency{amount.BTC, amount.USD, amount.CNY, amount.JPY}
	var pays, gets amount.Currency
	if g.rng.Float64() < 0.6 {
		// major ↔ XRP
		m := majors[g.rng.Intn(len(majors))]
		if g.rng.Intn(2) == 0 {
			pays, gets = m, amount.XRP
		} else {
			pays, gets = amount.XRP, m
		}
	} else {
		pays = majors[g.rng.Intn(len(majors))]
		gets = majors[g.rng.Intn(len(majors))]
		for gets == pays {
			gets = majors[g.rng.Intn(len(majors))]
		}
	}
	model := g.organicModel[modelKey(gets)]
	getsQty := model.typical * 200 * math.Exp(g.rng.NormFloat64()*0.8)
	paysQty := getsQty * RateUSD(gets) / RateUSD(pays) * (1 + 0.01 + 0.04*g.rng.Float64())
	getsV, err1 := amount.FromFloat64(getsQty)
	paysV, err2 := amount.FromFloat64(paysQty)
	if err1 != nil || err2 != nil || getsV.IsZero() || paysV.IsZero() {
		return nil
	}
	seq := g.eng.NextSequence(mm.ID)
	meta, err := g.submit(mm.Key, func(tx *ledger.Tx) {
		tx.Type = ledger.TxOfferCreate
		tx.TakerPays = amount.New(pays, paysV.RoundToPow10(int(math.Floor(math.Log10(paysQty)))-3))
		tx.TakerGets = amount.New(gets, getsV.RoundToPow10(int(math.Floor(math.Log10(getsQty)))-3))
	})
	if err != nil {
		return err
	}
	if meta.Result.Succeeded() {
		g.stats.Offers++
		g.standingOffers = append(g.standingOffers, offerRef{owner: mm.Key, seq: seq})
	}
	return nil
}
