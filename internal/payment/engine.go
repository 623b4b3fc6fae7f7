// Package payment implements the transaction engine: it validates
// submitted transactions against the account state, executes payments
// along planned paths (trust flows, order-book fills, XRP transfers),
// maintains XRP balances and per-account sequence numbers, destroys fees,
// and records the execution metadata the analyses consume.
package payment

import (
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/trustgraph"
)

// BaseFee is the minimum XRP fee destroyed per transaction, mirroring
// Ripple's anti-spam design: "A small XRP fee is indeed collected for
// each transaction ... destroyed after the corresponding transaction is
// confirmed."
const BaseFee amount.Drops = 10

// Engine owns the mutable ledger state: the credit network, the order
// books, XRP balances, and account sequences. It is not safe for
// concurrent use; consensus serializes transaction application.
type Engine struct {
	graph *trustgraph.Graph
	books *orderbook.Books
	xrp   map[addr.AccountID]amount.Drops
	seq   map[addr.AccountID]uint32 // next expected sequence per account

	finder *pathfind.Finder

	totalDrops    uint64 // XRP in existence (shrinks as fees burn)
	feesDestroyed amount.Drops

	verifySignatures bool

	// Scratch for planIntermediaries: the accounts collected so far and
	// the path each was collected on.
	interAccts []addr.AccountID
	interPaths []int

	// stateDigest chains applied transaction hashes into a deterministic
	// state fingerprint. Hashing the full state on every ledger close
	// would be quadratic; the chained digest preserves the property the
	// consensus needs: equal histories ⇒ equal digests.
	stateDigest ledger.Hash

	// state is the optional authenticated state tree and its mutation
	// journal (state.go); nil unless WithStateTree/EnableStateTree.
	state *stateJournal
	// changes is the optional record of what a path search can read
	// that applied transactions mutated (state.go); nil unless
	// TrackChanges.
	changes *Changes
}

// Option configures an Engine.
type Option func(*Engine)

// WithSignatureVerification makes Apply reject transactions whose
// signature is missing or invalid (ResultMalformed), except for
// ACCOUNT_ZERO, whose secret key is public and whose transactions the
// network accepts regardless. Histories generated with SkipSignatures
// cannot be replayed through a verifying engine.
func WithSignatureVerification() Option {
	return func(e *Engine) { e.verifySignatures = true }
}

// NewEngine creates an engine with the full XRP supply in ACCOUNT_ZERO,
// as at Ripple's genesis.
func NewEngine(opts ...Option) *Engine {
	e := &Engine{
		graph:      trustgraph.New(),
		books:      orderbook.New(),
		xrp:        make(map[addr.AccountID]amount.Drops),
		seq:        make(map[addr.AccountID]uint32),
		totalDrops: ledger.GenesisTotalDrops,
	}
	e.xrp[addr.AccountZero] = amount.Drops(ledger.GenesisTotalDrops)
	e.seq[addr.AccountZero] = 1
	e.finder = pathfind.New(e.graph, e.books)
	for _, opt := range opts {
		opt(e)
	}
	return e
}

// Graph exposes the credit network (mutate only through transactions).
func (e *Engine) Graph() *trustgraph.Graph { return e.graph }

// Books exposes the order books (mutate only through transactions).
func (e *Engine) Books() *orderbook.Books { return e.books }

// XRPBalance returns the account's XRP in drops.
func (e *Engine) XRPBalance(a addr.AccountID) amount.Drops { return e.xrp[a] }

// AccountExists reports whether the account has been funded.
func (e *Engine) AccountExists(a addr.AccountID) bool {
	_, ok := e.seq[a]
	return ok
}

// NextSequence returns the sequence number the account must use next.
func (e *Engine) NextSequence(a addr.AccountID) uint32 { return e.seq[a] }

// TotalDrops returns the XRP supply remaining in existence.
func (e *Engine) TotalDrops() uint64 { return e.totalDrops }

// FeesDestroyed returns the cumulative drops burned as fees.
func (e *Engine) FeesDestroyed() amount.Drops { return e.feesDestroyed }

// StateDigest returns the deterministic fingerprint of the state history.
func (e *Engine) StateDigest() ledger.Hash { return e.stateDigest }

// Clone deep-copies the engine for replay experiments (Table II). The
// clone does not carry the state tree: ablated copies diverge from the
// sealed history, and none of the cloning call sites checkpoint.
func (e *Engine) Clone() *Engine {
	out := &Engine{
		graph:            e.graph.Clone(),
		books:            e.books.Clone(),
		xrp:              make(map[addr.AccountID]amount.Drops, len(e.xrp)),
		seq:              make(map[addr.AccountID]uint32, len(e.seq)),
		totalDrops:       e.totalDrops,
		feesDestroyed:    e.feesDestroyed,
		stateDigest:      e.stateDigest,
		verifySignatures: e.verifySignatures,
	}
	for k, v := range e.xrp {
		out.xrp[k] = v
	}
	for k, v := range e.seq {
		out.seq[k] = v
	}
	out.finder = pathfind.New(out.graph, out.books)
	return out
}

// RemoveMarketMakers deletes every account with standing offers — and
// the offers themselves — from the state: the paper's Table II ablation
// ("we remove them and the exchange orders from the system").
// It returns the removed accounts.
func (e *Engine) RemoveMarketMakers() []addr.AccountID {
	var mms []addr.AccountID
	e.books.Owners(func(owner addr.AccountID, _ int) { mms = append(mms, owner) })
	for _, mm := range mms {
		// Journal everything the removal touches while it still exists.
		e.markAccount(mm)
		e.graph.PairsOf(mm, func(p *trustgraph.Pair) { e.markPair(p.Lo, p.Hi, p.Currency) })
		e.books.EachOf(mm, e.markOffer)
		e.books.RemoveOwner(mm)
		e.graph.RemoveAccount(mm)
		delete(e.xrp, mm)
		delete(e.seq, mm)
	}
	return mms
}

// Apply validates and executes one transaction, returning its metadata.
// Failed transactions (non-tesSUCCESS metadata) still consume a fee and a
// sequence number when structurally valid, as in Ripple; structurally
// invalid ones return ResultMalformed or ResultBadSequence without
// touching state. Apply itself errors only on internal inconsistencies.
func (e *Engine) Apply(tx *ledger.Tx) (*ledger.TxMeta, error) {
	meta, _, err := e.ApplyTx(tx)
	return meta, err
}

// ApplyTx is Apply that also returns the transaction's hash: the engine
// hashes each transaction once, to fold it into the state digest, so
// callers that index outcomes by hash need not hash it again.
func (e *Engine) ApplyTx(tx *ledger.Tx) (*ledger.TxMeta, ledger.Hash, error) {
	meta := &ledger.TxMeta{}
	hash := tx.Hash()

	// Signature discipline (when enabled). ACCOUNT_ZERO's key is
	// public; the network accepts its transactions unsigned, which is
	// exactly what made its spam traffic possible.
	if e.verifySignatures && tx.Account != addr.AccountZero && !tx.VerifySignature() {
		meta.Result = ledger.ResultMalformed
		return meta, hash, nil
	}

	// Sequence discipline. Unknown senders can never have funds, so they
	// fail as unfunded before sequence checks (their account does not
	// exist).
	next, known := e.seq[tx.Account]
	if !known {
		meta.Result = ledger.ResultUnfunded
		return meta, hash, nil
	}
	if tx.Sequence != next {
		meta.Result = ledger.ResultBadSequence
		return meta, hash, nil
	}

	// Fee: the sender burns max(BaseFee, tx.Fee) drops.
	fee := tx.Fee
	if fee < BaseFee {
		fee = BaseFee
	}
	if e.xrp[tx.Account] < fee {
		meta.Result = ledger.ResultUnfunded
		return meta, hash, nil
	}
	e.xrp[tx.Account] -= fee
	e.feesDestroyed += fee
	e.totalDrops -= uint64(fee)
	e.seq[tx.Account] = next + 1
	e.markAccount(tx.Account)

	switch tx.Type {
	case ledger.TxPayment:
		e.applyPayment(tx, meta)
	case ledger.TxOfferCreate:
		e.applyOfferCreate(tx, meta)
	case ledger.TxOfferCancel:
		if o := e.books.Lookup(tx.Account, tx.OfferSequence); o != nil {
			e.markOffer(o)
			e.books.Cancel(tx.Account, tx.OfferSequence)
		}
		meta.Result = ledger.ResultSuccess
	case ledger.TxTrustSet:
		if err := e.graph.SetTrust(tx.Account, tx.LimitPeer, tx.Limit.Currency, tx.Limit.Value); err != nil {
			meta.Result = ledger.ResultMalformed
		} else {
			e.markPair(tx.Account, tx.LimitPeer, tx.Limit.Currency)
			meta.Result = ledger.ResultSuccess
		}
	case ledger.TxAccountSet:
		meta.Result = ledger.ResultSuccess
	default:
		meta.Result = ledger.ResultMalformed
	}

	// Fold the applied transaction into the state digest.
	var fold [2*len(ledger.Hash{}) + 1]byte
	copy(fold[:], e.stateDigest[:])
	copy(fold[len(e.stateDigest):], hash[:])
	fold[len(fold)-1] = byte(meta.Result)
	e.stateDigest = ledger.SHA512Half(fold[:])
	return meta, hash, nil
}

// applyPayment executes a Payment transaction, searching its paths
// against live state.
func (e *Engine) applyPayment(tx *ledger.Tx, meta *ledger.TxMeta) {
	if !tx.Amount.Value.IsPositive() || tx.Destination == tx.Account {
		meta.Result = ledger.ResultMalformed
		return
	}
	srcCur := tx.SourceCurrency()

	// Direct XRP → XRP: a balance transfer, no paths, no cooperation.
	if tx.IsDirectXRP() {
		drops, err := amount.DropsFromValue(tx.Amount.Value)
		if err != nil || drops <= 0 {
			meta.Result = ledger.ResultMalformed
			return
		}
		if e.xrp[tx.Account] < drops {
			meta.Result = ledger.ResultUnfunded
			return
		}
		e.xrp[tx.Account] -= drops
		e.creditXRP(tx.Destination, drops)
		meta.Result = ledger.ResultSuccess
		meta.Delivered = tx.Amount
		return
	}

	// IOU payments need an existing destination.
	if !e.AccountExists(tx.Destination) && !tx.Amount.Currency.IsXRP() {
		meta.Result = ledger.ResultNoDestination
		return
	}

	plan, err := e.finder.FindPayment(tx.Account, tx.Destination, srcCur, tx.Amount)
	if err != nil {
		meta.Result = ledger.ResultPathDry
		return
	}
	if plan.Delivered.Cmp(tx.Amount.Value) < 0 {
		meta.Result = ledger.ResultPathDry
		return
	}
	// SendMax bounds the source-side cost.
	if !tx.SendMax.IsZero() && plan.SourceCost.Cmp(tx.SendMax.Value) > 0 {
		meta.Result = ledger.ResultPathDry
		return
	}
	// The XRP legs must be funded before committing anything.
	if srcCur.IsXRP() {
		need, err := amount.DropsFromValue(plan.SourceCost)
		if err != nil || e.xrp[tx.Account] < need {
			meta.Result = ledger.ResultUnfunded
			return
		}
	}
	if err := e.executePlan(plan); err != nil {
		// The plan was computed against current state and the engine is
		// single-threaded, so execution failure is an internal bug; fail
		// the transaction and surface the inconsistency in the result.
		meta.Result = ledger.ResultPathDry
		return
	}
	meta.Result = ledger.ResultSuccess
	meta.Delivered = amount.New(tx.Amount.Currency, plan.Delivered)
	meta.CrossCurrency = plan.UsedBridge && plan.SrcCurrency != plan.Currency
	if len(plan.Paths) > 0 {
		meta.PathHops = make([]uint8, len(plan.Paths))
	}
	for i, p := range plan.Paths {
		meta.PathHops[i] = uint8(min(max(p.Hops, 0), 255))
	}
	for _, q := range plan.Quotes {
		meta.OffersConsumed += uint32(len(q.Fills))
	}
	meta.Intermediaries = e.planIntermediaries(plan)
}

// planIntermediaries collects the accounts a plan crosses between sender
// and destination — trust-flow endpoints and consumed-offer owners —
// counted once per parallel path they appear on (Figure 7(a) ranks
// accounts by "the number of times each of them serve as intermediate
// hop", so an account carrying three parallel paths counts three times).
// A plan crosses a handful of accounts, so "already counted on this path"
// is a scan of what has been collected, in engine-owned scratch; the
// result is an exact-size copy.
func (e *Engine) planIntermediaries(plan *pathfind.Plan) []addr.AccountID {
	accts, paths := e.interAccts[:0], e.interPaths[:0]
	add := func(path int, a addr.AccountID) {
		if a == plan.Src || a == plan.Dst {
			return
		}
		// Backwards: a flow's sender is nearly always the receiver of
		// the flow before it.
		for i := len(accts) - 1; i >= 0; i-- {
			if paths[i] == path && accts[i] == a {
				return
			}
		}
		accts, paths = append(accts, a), append(paths, path)
	}
	for i := range plan.TrustFlows {
		fl := &plan.TrustFlows[i]
		add(fl.Path, fl.From)
		add(fl.Path, fl.To)
	}
	// Offer owners count once per fill, on synthetic path ids beyond the
	// trust paths'.
	fillPath := 1 << 20
	for _, q := range plan.Quotes {
		for _, f := range q.Fills {
			add(fillPath, f.Offer.Owner)
			fillPath++
		}
	}
	e.interAccts, e.interPaths = accts, paths
	if len(accts) == 0 {
		return nil
	}
	return append([]addr.AccountID(nil), accts...)
}

// xrpMove is one applied XRP leg of a plan, kept so it can be reversed.
type xrpMove struct {
	from, to addr.AccountID
	drops    amount.Drops
}

// executePlan commits a plan: trust flows, order-book fills, and the XRP
// legs of bridged conversions. Execution is atomic: if any step fails —
// which would indicate the plan raced state it was computed against —
// every already-applied step is compensated in reverse order and the
// state is exactly as before the call.
func (e *Engine) executePlan(plan *pathfind.Plan) (err error) {
	flows := 0          // plan.TrustFlows[:flows] have been applied
	var moves []xrpMove // XRP legs applied, in order
	filled := false     // an order-book fill has been applied
	defer func() {
		if err == nil {
			return
		}
		// Book fills are not compensated: Apply validates the quote
		// against the standing offers up front, so it is the last
		// fallible step of its group; a later group's failure reverses
		// only flows and XRP moves, and re-placing partially consumed
		// offers would change their identity. The engine is
		// single-threaded between planning and execution, so a failure
		// past a fill indicates a planner bug — surface loudly.
		if filled {
			panic("payment: rollback across an applied order-book fill: plan raced state")
		}
		for i := len(moves) - 1; i >= 0; i-- {
			e.xrp[moves[i].to] -= moves[i].drops
			e.xrp[moves[i].from] += moves[i].drops
		}
		for i := flows - 1; i >= 0; i-- {
			// A flow is exactly reversed by the opposite flow: the
			// capacity it consumed is the capacity the reverse restores.
			fl := &plan.TrustFlows[i]
			if rerr := e.graph.ApplyFlow(fl.To, fl.From, fl.Currency, fl.Value); rerr != nil {
				panic(fmt.Sprintf("payment: rollback failed: %v", rerr))
			}
		}
	}()

	for i := range plan.TrustFlows {
		fl := &plan.TrustFlows[i]
		if err = e.graph.ApplyFlow(fl.From, fl.To, fl.Currency, fl.Value); err != nil {
			return fmt.Errorf("payment: trust flow: %w", err)
		}
		e.markPair(fl.From, fl.To, fl.Currency)
		flows++
	}
	moveDrops := func(from, to addr.AccountID, v amount.Value, what string) error {
		drops, derr := amount.DropsFromValue(v)
		if derr != nil {
			return fmt.Errorf("payment: %s: %w", what, derr)
		}
		if e.xrp[from] < drops {
			return fmt.Errorf("payment: %s: %s exhausted mid-plan", what, from.Short())
		}
		e.xrp[from] -= drops
		e.markAccount(from)
		e.creditXRP(to, drops)
		moves = append(moves, xrpMove{from, to, drops})
		return nil
	}
	for _, q := range plan.Quotes {
		// XRP legs settle against the sender (the taker): the sender
		// pays XRP into offers and receives XRP out of offers.
		if q.Pair.Pays.IsXRP() {
			for _, f := range q.Fills {
				if err = moveDrops(plan.Src, f.Offer.Owner, f.Pays, "XRP fill"); err != nil {
					return err
				}
			}
		}
		if q.Pair.Gets.IsXRP() {
			for _, f := range q.Fills {
				if err = moveDrops(f.Offer.Owner, plan.Src, f.Gets, "XRP fill"); err != nil {
					return err
				}
			}
		}
		for _, f := range q.Fills {
			e.markOffer(f.Offer)
		}
		if err = e.books.Apply(q); err != nil {
			return fmt.Errorf("payment: book fill: %w", err)
		}
		filled = true
	}
	// Bridged delivery in XRP lands on the sender above; forward it.
	if plan.Currency.IsXRP() && plan.UsedBridge {
		if err = moveDrops(plan.Src, plan.Dst, plan.Delivered, "delivering XRP"); err != nil {
			return err
		}
	}
	return nil
}

// creditXRP adds drops to an account, creating ("activating") it on
// first funding, as a Ripple account is created by its first XRP payment.
func (e *Engine) creditXRP(a addr.AccountID, d amount.Drops) {
	e.xrp[a] += d
	if _, ok := e.seq[a]; !ok {
		e.seq[a] = 1
	}
	e.markAccount(a)
}

// applyOfferCreate places the offer described by the transaction.
func (e *Engine) applyOfferCreate(tx *ledger.Tx, meta *ledger.TxMeta) {
	o := &orderbook.Offer{
		Owner: tx.Account,
		Seq:   tx.Sequence,
		Pays:  tx.TakerPays,
		Gets:  tx.TakerGets,
	}
	if err := e.books.Place(o); err != nil {
		meta.Result = ledger.ResultMalformed
		return
	}
	e.markOffer(o)
	meta.Result = ledger.ResultSuccess
}

// Fund force-creates an account with the given XRP balance, bypassing
// transactions. Generators use it to bootstrap populations; it mirrors
// the genesis distribution of XRP out of ACCOUNT_ZERO.
func (e *Engine) Fund(a addr.AccountID, d amount.Drops) {
	if d < 0 {
		return
	}
	if e.xrp[addr.AccountZero] >= d {
		e.xrp[addr.AccountZero] -= d
		e.markAccount(addr.AccountZero)
	}
	e.creditXRP(a, d)
}
