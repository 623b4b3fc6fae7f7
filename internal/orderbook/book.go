// Package orderbook implements Ripple's currency-exchange offers and
// order books: the mechanism Market Makers use to bridge currencies.
// Cross-currency payments consume offers ("the path with the best
// exchange rate available"), and same-currency payments may use offers to
// make up for missing direct trust, exactly as the paper's appendix
// describes.
//
// Books are keyed by currency pair. Offers within a book are sorted by
// quality — the ratio TakerPays/TakerGets, i.e. the price the taker pays
// per unit received — best (lowest) first. Consumption is two-phase:
// Quote computes fills without mutating, Apply commits them, which gives
// the payment engine atomicity across multi-step executions.
//
// Quality is memoized when an offer is placed (and refreshed after
// partial fills), so quoting never re-divides amounts on the hot path,
// and a placed Books set can be read concurrently as long as nobody
// mutates it.
package orderbook

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// Offer is one standing exchange offer: the owner sells TakerGets in
// exchange for TakerPays. A taker consuming the whole offer delivers
// TakerPays to the owner and receives TakerGets.
type Offer struct {
	Owner addr.AccountID
	Seq   uint32 // the OfferCreate transaction's sequence, identifies the offer
	Pays  amount.Amount
	Gets  amount.Amount

	// quality memoizes Pays/Gets for placed offers. It is written only
	// under Books mutation (Place / Apply), never lazily on reads, so
	// concurrent readers of an unmutated book set never race.
	quality    amount.Value
	hasQuality bool

	// stamp is the placement tiebreaker: offers sort by (quality, stamp),
	// so equal-quality offers keep arrival order, and book order is a pure
	// function of the standing offer set — any Books holding the same
	// offers with the same stamps quotes identically, which is what lets a
	// checkpoint restore reproduce a live book exactly.
	stamp uint64
}

// Stamp returns the offer's placement stamp (positive once placed).
func (o *Offer) Stamp() uint64 { return o.stamp }

// Quality returns the taker's price: Pays per unit of Gets. Lower is
// better for the taker. For placed offers this is a memoized field read.
func (o *Offer) Quality() amount.Value {
	if o.hasQuality {
		return o.quality
	}
	return o.computeQuality()
}

func (o *Offer) computeQuality() amount.Value {
	q, err := o.Pays.Value.Div(o.Gets.Value)
	if err != nil {
		return amount.Zero // malformed offers sort first and are rejected at Place
	}
	return q
}

// memoQuality (re)derives the memoized quality from the current amounts.
// Called only while the book set is being mutated.
func (o *Offer) memoQuality() {
	o.quality = o.computeQuality()
	o.hasQuality = true
}

// Pair identifies a book: takers pay Pays currency and receive Gets
// currency.
type Pair struct {
	Pays amount.Currency
	Gets amount.Currency
}

// String implements fmt.Stringer.
func (p Pair) String() string { return p.Pays.String() + "→" + p.Gets.String() }

// book is the offer list for one pair, sorted by (quality, stamp)
// ascending.
type book struct {
	offers []*Offer
}

// bookOrder orders offers in a book's canonical (quality, stamp) order: it
// is negative when a sorts ahead of b.
func bookOrder(a, b *Offer) int {
	if c := a.quality.Cmp(b.quality); c != 0 {
		return c
	}
	return cmp.Compare(a.stamp, b.stamp)
}

// insert places o at its canonical position.
func (bk *book) insert(o *Offer) {
	idx := sort.Search(len(bk.offers), func(i int) bool {
		return bookOrder(o, bk.offers[i]) < 0
	})
	bk.offers = append(bk.offers, nil)
	copy(bk.offers[idx+1:], bk.offers[idx:])
	bk.offers[idx] = o
}

// remove drops o (by identity) from the list.
func (bk *book) remove(o *Offer) {
	for i, cand := range bk.offers {
		if cand == o {
			bk.offers = append(bk.offers[:i], bk.offers[i+1:]...)
			return
		}
	}
}

// Books is the full order-book set of the exchange. It is not safe for
// concurrent mutation.
type Books struct {
	byPair  map[Pair]*book
	byOwner map[addr.AccountID]map[uint32]*Offer

	// nextStamp is the last placement stamp issued. Restored offers keep
	// their original stamps and push this forward, so stamps never repeat.
	nextStamp uint64
}

// New creates an empty book set.
func New() *Books {
	return &Books{
		byPair:  make(map[Pair]*book),
		byOwner: make(map[addr.AccountID]map[uint32]*Offer),
	}
}

// checkPlaceable validates an offer before insertion: it must trade
// distinct currencies, carry positive amounts, and not collide with a
// standing offer of the same owner and sequence.
func (b *Books) checkPlaceable(o *Offer) error {
	if o.Pays.Currency == o.Gets.Currency {
		return fmt.Errorf("orderbook: offer trades %s against itself", o.Pays.Currency)
	}
	if !o.Pays.Value.IsPositive() || !o.Gets.Value.IsPositive() {
		return fmt.Errorf("orderbook: offer amounts must be positive: pays %s gets %s", o.Pays, o.Gets)
	}
	if owned := b.byOwner[o.Owner]; owned != nil {
		if _, dup := owned[o.Seq]; dup {
			return fmt.Errorf("orderbook: duplicate offer %s/%d", o.Owner.Short(), o.Seq)
		}
	}
	return nil
}

// index enters the offer in the owner map.
func (b *Books) index(o *Offer) {
	owned, ok := b.byOwner[o.Owner]
	if !ok {
		owned = make(map[uint32]*Offer)
		b.byOwner[o.Owner] = owned
	}
	owned[o.Seq] = o
}

// bookOf returns the offer's book, creating it when the pair has none.
func (b *Books) bookOf(o *Offer) *book {
	pair := Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}
	bk, ok := b.byPair[pair]
	if !ok {
		bk = &book{}
		b.byPair[pair] = bk
	}
	return bk
}

// Place inserts an offer into its book with a fresh placement stamp.
// Offers must sell and buy different currencies and carry positive
// amounts.
func (b *Books) Place(o *Offer) error {
	if err := b.checkPlaceable(o); err != nil {
		return err
	}
	b.nextStamp++
	o.stamp = b.nextStamp
	o.memoQuality()
	b.bookOf(o).insert(o)
	b.index(o)
	return nil
}

// RestoreOffers reinstates a whole persisted offer set, offers[i] under
// stamps[i], into a book set that holds no offers — the restore path
// from a persisted state tree. Stamps are never reassigned, so a
// restored book reproduces the live book's order exactly, whatever order
// the offers come in; nextStamp advances past the largest stamp so
// future placements stay unique. Each offer's quality is memoized once,
// the offer is appended to its pair's book, and every book is sorted a
// single time. The offers Place refuses are refused, and so is a zero
// stamp. The books adopt the offers; after an error the set is not
// usable.
func (b *Books) RestoreOffers(offers []*Offer, stamps []uint64) error {
	if n := b.NumOffers(); n != 0 {
		return fmt.Errorf("orderbook: bulk restore into a book set of %d offers", n)
	}
	if len(offers) != len(stamps) {
		return fmt.Errorf("orderbook: %d offers restored under %d stamps", len(offers), len(stamps))
	}
	for i, o := range offers {
		if stamps[i] == 0 {
			return fmt.Errorf("orderbook: restored offer %s/%d has no stamp", o.Owner.Short(), o.Seq)
		}
		if err := b.checkPlaceable(o); err != nil {
			return err
		}
		o.stamp = stamps[i]
		b.nextStamp = max(b.nextStamp, o.stamp)
		o.memoQuality()
		bk := b.bookOf(o)
		bk.offers = append(bk.offers, o)
		b.index(o)
	}
	for _, bk := range b.byPair {
		slices.SortFunc(bk.offers, bookOrder)
	}
	return nil
}

// Cancel removes the offer identified by (owner, seq). It is not an
// error to cancel a missing offer (it may have been fully consumed), in
// which case Cancel reports false.
func (b *Books) Cancel(owner addr.AccountID, seq uint32) bool {
	owned := b.byOwner[owner]
	o, ok := owned[seq]
	if !ok {
		return false
	}
	delete(owned, seq)
	if len(owned) == 0 {
		delete(b.byOwner, owner)
	}
	pair := Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}
	bk := b.byPair[pair]
	bk.remove(o)
	if len(bk.offers) == 0 {
		delete(b.byPair, pair)
	}
	return true
}

// Best returns the best (lowest quality) offer in the pair's book, or
// nil when the book is empty.
func (b *Books) Best(pair Pair) *Offer {
	bk := b.byPair[pair]
	if bk == nil || len(bk.offers) == 0 {
		return nil
	}
	return bk.offers[0]
}

// BestQuality returns the memoized quality of the best offer in the
// pair's book. ok is false when the book is empty. This is the O(1)
// "is this bridge even worth probing" check.
func (b *Books) BestQuality(pair Pair) (q amount.Value, ok bool) {
	bk := b.byPair[pair]
	if bk == nil || len(bk.offers) == 0 {
		return amount.Zero, false
	}
	return bk.offers[0].quality, true
}

// Lookup returns the standing offer identified by (owner, seq), or nil.
// Replay uses it to remap fills planned against a snapshot onto the
// live book set's offers.
func (b *Books) Lookup(owner addr.AccountID, seq uint32) *Offer {
	return b.byOwner[owner][seq]
}

// Depth returns the number of standing offers in the pair's book.
func (b *Books) Depth(pair Pair) int {
	bk := b.byPair[pair]
	if bk == nil {
		return 0
	}
	return len(bk.offers)
}

// Fill records a partial or full consumption of one offer.
type Fill struct {
	Offer *Offer
	// Pays is what the taker delivers to the offer owner; Gets is what
	// the taker receives.
	Pays amount.Value
	Gets amount.Value
}

// Quote describes a prospective consumption of a book: the taker would
// pay TotalPays (in pair.Pays currency) to receive TotalGets (in
// pair.Gets currency) through Fills. TotalGets may be less than requested
// when the book lacks liquidity.
type Quote struct {
	Pair      Pair
	TotalPays amount.Value
	TotalGets amount.Value
	Fills     []Fill
}

// QuoteBuy computes, without mutating the book, how the taker can acquire
// up to wantGets of the pair's Gets currency, walking offers from best
// quality onward.
func (b *Books) QuoteBuy(pair Pair, wantGets amount.Value) (Quote, error) {
	var q Quote
	if err := b.QuoteBuyInto(pair, wantGets, &q); err != nil {
		return Quote{Pair: pair}, err
	}
	return q, nil
}

// QuoteBuyInto is QuoteBuy writing into a caller-owned Quote, reusing
// its Fills capacity — the allocation-free hot path. A fill that
// consumes an entire offer pays exactly the offer's Pays amount (no
// multiply, no rounding); partial fills pay take × quality.
func (b *Books) QuoteBuyInto(pair Pair, wantGets amount.Value, q *Quote) error {
	q.Pair = pair
	q.TotalPays = amount.Zero
	q.TotalGets = amount.Zero
	q.Fills = q.Fills[:0]
	if !wantGets.IsPositive() {
		return fmt.Errorf("orderbook: quote for non-positive amount %s", wantGets)
	}
	bk := b.byPair[pair]
	if bk == nil {
		return nil
	}
	remaining := wantGets
	for _, o := range bk.offers {
		if !remaining.IsPositive() {
			break
		}
		take := remaining.Min(o.Gets.Value)
		var pays amount.Value
		var err error
		if take.Cmp(o.Gets.Value) == 0 {
			// Full fill: deliver the offer's exact asking amount.
			pays = o.Pays.Value
		} else if pays, err = take.Mul(o.quality); err != nil {
			return fmt.Errorf("orderbook: quoting: %w", err)
		}
		q.Fills = append(q.Fills, Fill{Offer: o, Pays: pays, Gets: take})
		if q.TotalPays, err = q.TotalPays.Add(pays); err != nil {
			return fmt.Errorf("orderbook: quoting: %w", err)
		}
		if q.TotalGets, err = q.TotalGets.Add(take); err != nil {
			return fmt.Errorf("orderbook: quoting: %w", err)
		}
		if remaining, err = remaining.Sub(take); err != nil {
			return fmt.Errorf("orderbook: quoting: %w", err)
		}
	}
	return nil
}

// Apply commits a quote's fills: each offer shrinks by the consumed
// amounts and empty offers leave the book. The quote must have been
// produced by this book set with no intervening mutation.
func (b *Books) Apply(q Quote) error {
	for _, f := range q.Fills {
		o := f.Offer
		owned := b.byOwner[o.Owner]
		if owned == nil || owned[o.Seq] != o {
			return fmt.Errorf("orderbook: stale quote: offer %s/%d no longer standing", o.Owner.Short(), o.Seq)
		}
	}
	for _, f := range q.Fills {
		o := f.Offer
		newGets, err := o.Gets.Value.Sub(f.Gets)
		if err != nil {
			return fmt.Errorf("orderbook: applying fill: %w", err)
		}
		newPays, err := o.Pays.Value.Sub(f.Pays)
		if err != nil {
			return fmt.Errorf("orderbook: applying fill: %w", err)
		}
		if newGets.IsNegative() {
			return fmt.Errorf("orderbook: fill exceeds offer %s/%d", o.Owner.Short(), o.Seq)
		}
		o.Gets.Value = newGets
		o.Pays.Value = newPays
		// Dust or exhausted offers are removed. Proportional fills keep
		// quality essentially unchanged, but decimal rounding can drift
		// the ratio at the last digit — refresh the memo and, if the
		// quality moved, reposition the offer so the book stays in
		// canonical (quality, stamp) order regardless of fill history.
		if !o.Gets.Value.IsPositive() || !o.Pays.Value.IsPositive() {
			b.Cancel(o.Owner, o.Seq)
		} else {
			old := o.quality
			o.memoQuality()
			if o.quality.Cmp(old) != 0 {
				bk := b.byPair[Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}]
				bk.remove(o)
				bk.insert(o)
			}
		}
	}
	return nil
}

// OffersOf returns the number of standing offers owned by account.
func (b *Books) OffersOf(owner addr.AccountID) int { return len(b.byOwner[owner]) }

// StampCounter returns the last placement stamp issued. Persisting it
// (and restoring via RestoreStampCounter) keeps future placements'
// stamps identical across a snapshot/restore, even though consumed and
// cancelled offers leave gaps in the sequence.
func (b *Books) StampCounter() uint64 { return b.nextStamp }

// RestoreStampCounter fast-forwards the stamp counter; it never moves
// backwards.
func (b *Books) RestoreStampCounter(n uint64) {
	if n > b.nextStamp {
		b.nextStamp = n
	}
}

// Each calls fn for every standing offer, in no particular order.
func (b *Books) Each(fn func(*Offer)) {
	for _, owned := range b.byOwner {
		for _, o := range owned {
			fn(o)
		}
	}
}

// EachOf calls fn for each standing offer owned by the account, in no
// particular order.
func (b *Books) EachOf(owner addr.AccountID, fn func(*Offer)) {
	for _, o := range b.byOwner[owner] {
		fn(o)
	}
}

// Owners calls fn for each account with standing offers and its count.
func (b *Books) Owners(fn func(owner addr.AccountID, offers int)) {
	for owner, m := range b.byOwner {
		fn(owner, len(m))
	}
}

// RemoveOwner cancels every standing offer of the account — the
// market-maker ablation primitive.
func (b *Books) RemoveOwner(owner addr.AccountID) int {
	owned := b.byOwner[owner]
	seqs := make([]uint32, 0, len(owned))
	for seq := range owned {
		seqs = append(seqs, seq)
	}
	for _, seq := range seqs {
		b.Cancel(owner, seq)
	}
	return len(seqs)
}

// Pairs calls fn for each non-empty book.
func (b *Books) Pairs(fn func(Pair, int)) {
	for pair, bk := range b.byPair {
		fn(pair, len(bk.offers))
	}
}

// NumOffers returns the total number of standing offers.
func (b *Books) NumOffers() int {
	n := 0
	for _, m := range b.byOwner {
		n += len(m)
	}
	return n
}

// Clone deep-copies the book set for replay experiments, preserving
// book order, placement stamps, and the stamp counter — a clone quotes
// exactly like the original.
func (b *Books) Clone() *Books {
	out := New()
	out.nextStamp = b.nextStamp
	for pair, bk := range b.byPair {
		dupBook := &book{offers: make([]*Offer, len(bk.offers))}
		for i, o := range bk.offers {
			dup := *o
			dupBook.offers[i] = &dup
			owned, ok := out.byOwner[dup.Owner]
			if !ok {
				owned = make(map[uint32]*Offer)
				out.byOwner[dup.Owner] = owned
			}
			owned[dup.Seq] = &dup
		}
		out.byPair[pair] = dupBook
	}
	return out
}
