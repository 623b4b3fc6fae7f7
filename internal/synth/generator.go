package synth

import (
	"fmt"
	"math/rand"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/payment"
)

// Config parameterizes a synthetic history.
type Config struct {
	// Payments is the target number of payment transactions (the paper's
	// full scale is 23M; analyses default to a few hundred thousand).
	Payments int
	// Seed makes the history reproducible.
	Seed int64
	// Start anchors the history (the paper's window opens at the system
	// genesis, January 2013).
	Start time.Time
	// TxRate is payments per simulated second. The paper's 23M payments
	// over ~33 months average ≈0.27/s — the density that makes
	// second-resolution timestamps nearly unique.
	TxRate float64
	// Users and MarketMakers set population sizes; zero derives them
	// from Payments.
	Users, MarketMakers int
	// OffersPerPayment scales OfferCreate traffic relative to payments
	// (the paper saw ~90M offers alongside 23M payments; the default 0.5
	// keeps runtimes sane while preserving concentration).
	OffersPerPayment float64
	// SkipSignatures disables transaction signing for throughput.
	// Signatures are exercised end-to-end by the consensus and stream
	// paths; histories for statistical analyses don't need them.
	SkipSignatures bool
	// CloseInterval is the simulated ledger close cadence.
	CloseInterval time.Duration
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.Payments == 0 {
		c.Payments = 100_000
	}
	if c.Start.IsZero() {
		c.Start = time.Date(2013, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if c.TxRate == 0 {
		c.TxRate = 0.27
	}
	if c.Users == 0 {
		c.Users = c.Payments / 70
		if c.Users < 300 {
			c.Users = 300
		}
		if c.Users > 165_000 {
			c.Users = 165_000
		}
	}
	if c.MarketMakers == 0 {
		c.MarketMakers = 150
	}
	if c.OffersPerPayment == 0 {
		c.OffersPerPayment = 0.5
	}
	if c.CloseInterval == 0 {
		c.CloseInterval = 5 * time.Second
	}
	return c
}

// Stats summarizes a generated history for calibration checks.
type Stats struct {
	Pages          int
	Transactions   int
	PaymentsOK     int
	PaymentsFailed int
	Offers         int
	TrustSets      int
	CrossCurrency  int
	ByCurrency     map[amount.Currency]int // successful payments per currency
}

// Result carries the generator's outputs: the final engine state (the
// "snapshot" analyses like Table II and Fig. 7 start from) and the
// population with its registry.
type Result struct {
	Engine     *payment.Engine
	Population *Population
	Stats      Stats
	LastHash   ledger.Hash
	LastSeq    uint64
}

// generator holds the run state.
type generator struct {
	cfg Config
	rng *rand.Rand
	eng *payment.Engine
	pop *Population

	now      time.Time
	seq      uint64
	prevHash ledger.Hash

	pageTxs    []*ledger.Tx
	pageMetas  []*ledger.TxMeta
	pageHashes []ledger.Hash // the engine's hash of each of pageTxs

	sink func(*ledger.Page) error

	stats Stats

	// workload state
	mix            []currencyShare
	spamForward    bool
	zeroForward    bool
	cckForward     bool
	mtlCount       int
	organicModel   map[amount.Currency]amountModel
	linesByCur     map[amount.Currency][]userLineRef
	merchantsByCur map[amount.Currency][]int
	mmCumWeights   []float64
	standingOffers []offerRef
}

// offerRef tracks a standing offer for later cancellation traffic.
type offerRef struct {
	owner *addr.KeyPair
	seq   uint32
}

// Generate builds a synthetic history, streaming each closed page to
// sink (which may persist it to a ledgerstore or analyze it on the fly).
func Generate(cfg Config, sink func(*ledger.Page) error) (*Result, error) {
	cfg = cfg.withDefaults()
	g := &generator{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		eng:  payment.NewEngine(),
		now:  cfg.Start,
		sink: sink,
		mix:  paymentMix(),
	}
	g.stats.ByCurrency = make(map[amount.Currency]int)
	g.pop = BuildPopulation(g.rng, cfg.Users, cfg.MarketMakers)
	g.organicModel = buildAmountModels()

	genesis := ledger.Genesis("main", ledger.CloseTimeFromTime(cfg.Start))
	g.prevHash = genesis.Header.Hash()
	g.seq = 1
	if err := g.sink(genesis); err != nil {
		return nil, err
	}
	g.stats.Pages++

	if err := g.setup(); err != nil {
		return nil, fmt.Errorf("synth: setup: %w", err)
	}
	if err := g.workload(); err != nil {
		return nil, fmt.Errorf("synth: workload: %w", err)
	}
	if err := g.closePage(); err != nil { // flush the final partial page
		return nil, err
	}
	return &Result{
		Engine:     g.eng,
		Population: g.pop,
		Stats:      g.stats,
		LastHash:   g.prevHash,
		LastSeq:    g.seq,
	}, nil
}

// submit builds, (optionally) signs, and applies a transaction, adding
// it to the current page.
func (g *generator) submit(sender *addr.KeyPair, mutate func(*ledger.Tx)) (*ledger.TxMeta, error) {
	if g.cfg.SkipSignatures {
		return g.apply(sender.AccountID(), nil, mutate)
	}
	return g.apply(sender.AccountID(), sender, mutate)
}

// apply builds account's next transaction, signs it when key is
// non-nil, applies it, and adds it to the current page together with
// its metadata and the hash the engine computed for it.
func (g *generator) apply(account addr.AccountID, key *addr.KeyPair, mutate func(*ledger.Tx)) (*ledger.TxMeta, error) {
	tx := &ledger.Tx{
		Account:  account,
		Sequence: g.eng.NextSequence(account),
		Fee:      10,
	}
	mutate(tx)
	if key != nil {
		tx.Sign(key)
	}
	meta, hash, err := g.eng.ApplyTx(tx)
	if err != nil {
		return nil, err
	}
	g.pageTxs = append(g.pageTxs, tx)
	g.pageMetas = append(g.pageMetas, meta)
	g.pageHashes = append(g.pageHashes, hash)
	g.stats.Transactions++
	if tx.Type == ledger.TxPayment {
		if meta.Result.Succeeded() {
			g.stats.PaymentsOK++
			g.stats.ByCurrency[tx.Amount.Currency]++
			if meta.CrossCurrency {
				g.stats.CrossCurrency++
			}
		} else {
			g.stats.PaymentsFailed++
		}
	}
	return meta, nil
}

// closePage seals the buffered transactions into a page and streams it.
func (g *generator) closePage() error {
	if len(g.pageTxs) == 0 && g.stats.Pages > 0 {
		// Empty pages still advance the chain in Ripple, but emitting
		// hundreds of thousands of empty pages would only bloat the
		// store; the analyses are insensitive to them.
		return nil
	}
	g.seq++
	page := &ledger.Page{
		Header: ledger.PageHeader{
			Sequence:   g.seq,
			ParentHash: g.prevHash,
			TxSetHash:  ledger.TxSetHashOf(g.pageHashes),
			StateHash:  g.eng.StateDigest(),
			CloseTime:  ledger.CloseTimeFromTime(g.now),
			TotalDrops: g.eng.TotalDrops(),
		},
		Txs:   g.pageTxs,
		Metas: g.pageMetas,
	}
	g.prevHash = page.Header.Hash()
	g.pageTxs = nil
	g.pageMetas = nil
	g.pageHashes = g.pageHashes[:0]
	g.stats.Pages++
	return g.sink(page)
}

// tick advances simulated time by one close interval and seals the page.
func (g *generator) tick() error {
	if err := g.closePage(); err != nil {
		return err
	}
	g.now = g.now.Add(g.cfg.CloseInterval)
	return nil
}

// fund sends an XRP payment from ACCOUNT_ZERO, activating the account
// and sealing the grant in the ledger. Pages roll every 50 grants.
func (g *generator) fund(dest addr.AccountID, d amount.Drops) error {
	meta, err := g.submitAs(addr.AccountZero, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = dest
		tx.Amount = amount.XRPAmount(d)
	})
	if err != nil {
		return err
	}
	if !meta.Result.Succeeded() {
		return fmt.Errorf("synth: funding %s: %s", dest.Short(), meta.Result)
	}
	if g.stats.PaymentsOK%50 == 0 {
		return g.tick()
	}
	return nil
}

// trust issues a TrustSet from truster towards trustee.
func (g *generator) trust(truster *addr.KeyPair, trustee addr.AccountID, cur amount.Currency, limit amount.Value) error {
	meta, err := g.submit(truster, func(tx *ledger.Tx) {
		tx.Type = ledger.TxTrustSet
		tx.LimitPeer = trustee
		tx.Limit = amount.New(cur, limit)
	})
	if err != nil {
		return err
	}
	if !meta.Result.Succeeded() {
		return fmt.Errorf("synth: TrustSet failed: %s", meta.Result)
	}
	g.stats.TrustSets++
	return nil
}

const (
	// Gateways and market makers hold deep XRP reserves: they carry the
	// whale transfers and the XRP legs of bridged payments.
	dropsGateway = 500_000_000 * amount.DropsPerXRP
	dropsMM      = 500_000_000 * amount.DropsPerXRP
	dropsUser    = 100_000 * amount.DropsPerXRP
	dropsInfra   = 100_000 * amount.DropsPerXRP
)

// setup funds the population and builds the trust topology, the
// deposits, and the spam infrastructure; all through real transactions
// sealed into early history pages.
func (g *generator) setup() error {
	// Funding: "After the system is bootstrapped, all the funds in
	// ACCOUNT_ZERO are distributed to the other users." The distribution
	// is made of real XRP payments signed for ACCOUNT_ZERO (its secret
	// key is public), so a replay of the ledger reconstructs every
	// balance.
	if err := g.fund(g.pop.Akhavr.AccountID(), dropsInfra); err != nil {
		return err
	}
	for i := range g.pop.Gateways {
		if err := g.fund(g.pop.Gateways[i].ID, dropsGateway); err != nil {
			return err
		}
	}
	for i := range g.pop.MarketMakers {
		if err := g.fund(g.pop.MarketMakers[i].ID, dropsMM); err != nil {
			return err
		}
	}
	for i := range g.pop.Users {
		if err := g.fund(g.pop.Users[i].ID, dropsUser); err != nil {
			return err
		}
	}
	for _, kp := range []*addr.KeyPair{g.pop.Attacker, g.pop.SpamSink, g.pop.RippleSpin} {
		if err := g.fund(kp.AccountID(), dropsInfra); err != nil {
			return err
		}
	}
	for _, s := range g.pop.CCKSpammers {
		if err := g.fund(s.AccountID(), dropsInfra); err != nil {
			return err
		}
	}
	for c := range g.pop.SpamRelays {
		for h := range g.pop.SpamRelays[c] {
			if err := g.fund(g.pop.SpamRelays[c][h].AccountID(), dropsUser); err != nil {
				return err
			}
		}
	}
	for _, lc := range g.pop.LongChain {
		if err := g.fund(lc.AccountID(), dropsUser); err != nil {
			return err
		}
	}

	// The hubs are "activated" by ~akhavr's first XRP payment, as the
	// paper's ledger investigation found.
	for i := range g.pop.Hubs {
		if _, err := g.submit(g.pop.Akhavr, func(tx *ledger.Tx) {
			tx.Type = ledger.TxPayment
			tx.Destination = g.pop.Hubs[i].ID
			tx.Amount = amount.XRPAmount(10_000 * amount.DropsPerXRP)
		}); err != nil {
			return err
		}
	}
	if err := g.tick(); err != nil {
		return err
	}

	big := amount.MustParse("1e9")

	// Hub topology: the hubs extend deep trust to every gateway (they
	// accept gateway IOUs freely), while gateways extend only a working
	// allowance back. This reproduces Figure 7(b)'s asymmetry: gateways
	// are trusted without declaring much trust themselves, and the
	// hyper-connected non-gateway accounts do the trusting.
	for hi := range g.pop.Hubs {
		hub := g.pop.Hubs[hi]
		for gi := range g.pop.Gateways {
			gw := &g.pop.Gateways[gi]
			for _, cur := range gw.Currencies {
				if err := g.trust(hub.Key, gw.ID, cur, big); err != nil {
					return err
				}
				if err := g.trust(gw.Key, hub.ID, cur, g.organicModel[modelKey(cur)].trustLimit()); err != nil {
					return err
				}
			}
		}
		if err := g.tick(); err != nil {
			return err
		}
	}

	// Market makers likewise: deep trust towards gateways, a working
	// allowance back, so bridged payments can route to and from them.
	for mi := range g.pop.MarketMakers {
		mm := &g.pop.MarketMakers[mi]
		// The heavyweight makers connect to every gateway, the tail to 3.
		nGw := 3
		if mi < 10 {
			nGw = len(g.pop.Gateways)
		}
		perm := g.rng.Perm(len(g.pop.Gateways))
		for _, gi := range perm[:nGw] {
			gw := &g.pop.Gateways[gi]
			for _, cur := range gw.Currencies {
				if err := g.trust(mm.Key, gw.ID, cur, big); err != nil {
					return err
				}
				if err := g.trust(gw.Key, mm.ID, cur, g.organicModel[modelKey(cur)].trustLimit()); err != nil {
					return err
				}
			}
		}
		if mi%10 == 9 {
			if err := g.tick(); err != nil {
				return err
			}
		}
	}

	// Users open trust-lines and receive initial deposits. Each user
	// holds one preferred currency, the same at every host — multiple
	// memberships in one currency are what split payments into the
	// parallel paths of Figure 6(b). Major-currency lines are hosted by
	// a market maker (a point-of-exchange) rather than a gateway with
	// probability mmHostShare; tail currencies stay at gateways. The
	// limit scales with the currency so deposits always fit.
	const mmHostShare = 0.75
	heavyMMs := len(g.pop.MarketMakers)
	if heavyMMs > 40 {
		heavyMMs = 40
	}
	for ui := range g.pop.Users {
		u := &g.pop.Users[ui]
		for _, gi := range u.Gateways {
			gw := &g.pop.Gateways[gi]
			cur := gw.Currencies[ui%len(gw.Currencies)]
			host := gw.Key
			mmHosted := false
			if g.rng.Float64() < mmHostShare {
				mm := &g.pop.MarketMakers[zipfDistinct(g.rng, heavyMMs, 1)[0]]
				host = mm.Key
				mmHosted = true
			}
			if err := g.trust(u.Key, host.AccountID(), cur, g.organicModel[modelKey(cur)].trustLimit()); err != nil {
				return err
			}
			if err := g.depositFrom(host, u, cur); err != nil {
				return err
			}
			u.Lines = append(u.Lines, Line{Host: host, HostID: host.AccountID(), MMHosted: mmHosted, Currency: cur})
		}
		if ui%25 == 24 {
			if err := g.tick(); err != nil {
				return err
			}
		}
	}

	// The MTL spam chains: 6 parallel chains of exactly 8 intermediaries
	// between attacker and sink. Every chain runs through the two hubs
	// and three gateways (attacker → hub1 → gwA → gwB → gwC → hub2 →
	// relay×3 → sink); each link is trusted for exactly the per-path
	// spam quantum, so every spam payment is "forced to be routed
	// through exactly 8 intermediate hops" and splits into "exactly 6
	// parallel paths". The first and last hub links are shared by all
	// chains and carry 6 quanta.
	quantum := amount.MustParse("1e9")
	sixQuanta := amount.MustParse("6e9")
	hub1, hub2 := g.pop.Hubs[0], g.pop.Hubs[1]
	if err := g.trust(hub1.Key, g.pop.Attacker.AccountID(), amount.MTL, sixQuanta); err != nil {
		return err
	}
	for c := range g.pop.SpamRelays {
		// Three distinct gateways per chain.
		gwA := &g.pop.Gateways[(3*c)%len(g.pop.Gateways)]
		gwB := &g.pop.Gateways[(3*c+1)%len(g.pop.Gateways)]
		gwC := &g.pop.Gateways[(3*c+2)%len(g.pop.Gateways)]
		relays := g.pop.SpamRelays[c]
		hops := []struct {
			truster *addr.KeyPair
			trustee addr.AccountID
		}{
			{gwA.Key, hub1.ID},
			{gwB.Key, gwA.ID},
			{gwC.Key, gwB.ID},
			{hub2.Key, gwC.ID},
			{relays[0], hub2.ID},
			{relays[1], relays[0].AccountID()},
			{relays[2], relays[1].AccountID()},
			{g.pop.SpamSink, relays[2].AccountID()},
		}
		for _, h := range hops {
			if err := g.trust(h.truster, h.trustee, amount.MTL, quantum); err != nil {
				return err
			}
		}
	}
	if err := g.tick(); err != nil {
		return err
	}

	// The 44-intermediary oddity of Figure 6(a): one absurdly long MTL
	// trust chain between two dedicated endpoints.
	for i := 0; i+1 < len(g.pop.LongChain); i++ {
		if err := g.trust(g.pop.LongChain[i+1], g.pop.LongChain[i].AccountID(), amount.MTL, quantum); err != nil {
			return err
		}
	}
	if err := g.tick(); err != nil {
		return err
	}

	// CCK spam loops: spammers in a ring with mutual trust.
	cckLimit := amount.MustParse("1e6")
	for i, s := range g.pop.CCKSpammers {
		next := g.pop.CCKSpammers[(i+1)%len(g.pop.CCKSpammers)]
		if err := g.trust(s, next.AccountID(), amount.CCK, cckLimit); err != nil {
			return err
		}
		if err := g.trust(next, s.AccountID(), amount.CCK, cckLimit); err != nil {
			return err
		}
	}
	if err := g.tick(); err != nil {
		return err
	}

	// Guarantee at least one merchant exists so consumer traffic always
	// has a destination.
	hasMerchant := false
	for ui := range g.pop.Users {
		if g.pop.Users[ui].Merchant {
			hasMerchant = true
			break
		}
	}
	if !hasMerchant {
		g.pop.Users[0].Merchant = true
		g.pop.Users[0].Prices = []amount.Value{amount.MustParse("4.5")}
	}
	return nil
}

// depositFrom issues host IOUs to a user: the host "pays" the user,
// getting into debt, exactly as a real-world deposit.
func (g *generator) depositFrom(host *addr.KeyPair, u *User, cur amount.Currency) error {
	v := g.organicModel[modelKey(cur)].deposit(g.rng)
	meta, err := g.submit(host, func(tx *ledger.Tx) {
		tx.Type = ledger.TxPayment
		tx.Destination = u.ID
		tx.Amount = amount.New(cur, v)
	})
	if err != nil {
		return err
	}
	if !meta.Result.Succeeded() {
		return fmt.Errorf("synth: deposit %s to %s failed: %s", cur, u.ID.Short(), meta.Result)
	}
	return nil
}
