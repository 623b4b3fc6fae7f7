// State tree integration: the engine can maintain an authenticated
// Merkle view of its full state (accounts, trust lines, standing
// offers, supply metadata) in an internal/shamap tree. Mutation sites
// journal *which* objects they touched — cheaply, into dirty sets — and
// SealState re-serializes only those objects at the next ledger close,
// so sealing costs O(changed · tree depth) rather than O(state).
//
// The sealed root is a commitment to the state itself (unlike
// StateDigest, which chains the applied history), so two engines with
// equal roots hold byte-identical state regardless of how they got
// there. WriteNewStateNodes emits the nodes new since the previous
// seal, WriteAllStateNodes the whole tree, and RestoreEngine rebuilds a
// working engine from a loaded tree — the checkpoint/resume path in
// internal/replay.
package payment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/shamap"
	"ripplestudy/internal/trustgraph"
)

// ErrNoStateTree reports a state-tree operation on an engine that was
// built without WithStateTree.
var ErrNoStateTree = errors.New("payment: engine has no state tree")

// pairKey identifies a trust line in canonical (lo, hi) order.
type pairKey struct {
	lo, hi addr.AccountID
	cur    amount.Currency
}

// offerRef identifies a standing offer.
type offerRef struct {
	owner addr.AccountID
	seq   uint32
}

// stateJournal is the engine-side mutation journal: dirty sets of
// objects touched since the last seal, plus the tree they serialize
// into.
type stateJournal struct {
	tree   *shamap.Tree
	accts  map[addr.AccountID]struct{}
	pairs  map[pairKey]struct{}
	offers map[offerRef]struct{}
	buf    []byte // leaf scratch; Set copies, so one buffer serves all
}

func newStateJournal(tree *shamap.Tree) *stateJournal {
	return &stateJournal{
		tree:   tree,
		accts:  make(map[addr.AccountID]struct{}),
		pairs:  make(map[pairKey]struct{}),
		offers: make(map[offerRef]struct{}),
	}
}

// WithStateTree makes the engine maintain the authenticated state tree
// from the start.
func WithStateTree() Option {
	return func(e *Engine) { e.EnableStateTree() }
}

// EnableStateTree attaches a fresh state tree and journals every object
// currently in the state, so the first SealState commits a complete
// snapshot.
func (e *Engine) EnableStateTree() {
	e.state = newStateJournal(shamap.New())
	for a := range e.seq {
		e.markAccount(a)
	}
	e.graph.Pairs(e.markPair)
	e.books.Each(e.markOffer)
}

// StateRoot returns the root hash of the last SealState (zero before
// the first seal or without a tree).
func (e *Engine) StateRoot() ledger.Hash {
	if e.state == nil {
		return ledger.Hash{}
	}
	return e.state.tree.Root()
}

// Changes records what applied transactions mutated that a path search
// can read: both endpoints of every trust line a payment moved or a
// TrustSet set, and the book pair of every offer placed, filled or
// cancelled. XRP balances are not recorded — no search reads them — and
// a transaction that failed without mutating anything records nothing.
type Changes struct {
	Accounts map[addr.AccountID]struct{}
	Pairs    map[orderbook.Pair]struct{}
}

// Reset empties the record.
func (c *Changes) Reset() {
	clear(c.Accounts)
	clear(c.Pairs)
}

// TrackChanges makes the engine record into the returned Changes what
// every later transaction mutates, from the same mark sites that feed
// the state-tree journal; the two are independent, so a caller may
// Reset its record without disturbing SealState. An engine that never
// calls it pays only a nil check per mutation.
func (e *Engine) TrackChanges() *Changes {
	e.changes = &Changes{
		Accounts: make(map[addr.AccountID]struct{}),
		Pairs:    make(map[orderbook.Pair]struct{}),
	}
	return e.changes
}

func (e *Engine) markAccount(a addr.AccountID) {
	if e.state != nil {
		e.state.accts[a] = struct{}{}
	}
}

func (e *Engine) markPair(p *trustgraph.Pair) {
	if c := e.changes; c != nil {
		c.Accounts[p.Lo] = struct{}{}
		c.Accounts[p.Hi] = struct{}{}
	}
	if e.state != nil {
		e.state.pairs[pairKey{lo: p.Lo, hi: p.Hi, cur: p.Currency}] = struct{}{}
	}
}

func (e *Engine) markOffer(o *orderbook.Offer) {
	if c := e.changes; c != nil {
		c.Pairs[orderbook.Pair{Pays: o.Pays.Currency, Gets: o.Gets.Currency}] = struct{}{}
	}
	if e.state != nil {
		e.state.offers[offerRef{owner: o.Owner, seq: o.Seq}] = struct{}{}
	}
}

// SealState re-serializes every journaled object from live state —
// present objects become leaf writes, absent ones leaf deletes — and
// seals the tree, returning the new root. The journal resets.
func (e *Engine) SealState() (ledger.Hash, error) {
	j := e.state
	if j == nil {
		return ledger.Hash{}, ErrNoStateTree
	}
	for a := range j.accts {
		k := accountKey(a)
		if seq, ok := e.seq[a]; ok {
			j.buf = appendAccountLeaf(j.buf[:0], a, e.xrp[a], seq)
			j.tree.Set(k, j.buf)
		} else {
			j.tree.Delete(k)
		}
	}
	clear(j.accts)
	for pk := range j.pairs {
		k := trustKey(pk)
		if p := e.graph.PairOf(pk.lo, pk.hi, pk.cur); p != nil {
			j.buf = appendTrustLeaf(j.buf[:0], p)
			j.tree.Set(k, j.buf)
		} else {
			j.tree.Delete(k)
		}
	}
	clear(j.pairs)
	for or := range j.offers {
		k := offerKey(or.owner, or.seq)
		if o := e.books.Lookup(or.owner, or.seq); o != nil {
			j.buf = appendOfferLeaf(j.buf[:0], o)
			j.tree.Set(k, j.buf)
		} else {
			j.tree.Delete(k)
		}
	}
	clear(j.offers)
	// Supply metadata moves on every fee burn; rewrite it every seal.
	j.buf = appendMetaLeaf(j.buf[:0], e.totalDrops, e.feesDestroyed, e.books.StampCounter())
	j.tree.Set(metaKey, j.buf)
	return j.tree.Seal(), nil
}

// WriteNewStateNodes streams the tree nodes created since the previous
// call (or all nodes on the first) through put — the incremental
// checkpoint batch. The tree must be sealed.
func (e *Engine) WriteNewStateNodes(put func(h ledger.Hash, data []byte) error) (int, error) {
	if e.state == nil {
		return 0, ErrNoStateTree
	}
	return e.state.tree.WriteNew(put)
}

// WriteAllStateNodes streams every node of the sealed tree through put,
// parents first — a checkpoint base, which restores on its own.
func (e *Engine) WriteAllStateNodes(put func(h ledger.Hash, data []byte) error) (int, error) {
	if e.state == nil {
		return 0, ErrNoStateTree
	}
	return e.state.tree.WriteAll(put)
}

// RestoreScalars carries the engine state a checkpoint persists outside
// the tree: StateDigest chains the applied history and is not derivable
// from state, and the supply counters double-check the tree's meta leaf.
type RestoreScalars struct {
	TotalDrops    uint64
	FeesDestroyed amount.Drops
	StateDigest   ledger.Hash
}

// RestoreEngine rebuilds a working engine from a loaded, sealed state
// tree. Book order and adjacency order are pure functions of the state
// (offers keep their placement stamps; edges sort by currency and peer),
// so the order leaves arrive in does not matter and each structure is
// built the cheap way: offers are decoded into one slice and go to the
// books in one RestoreOffers, which sorts each book once, and trust
// pairs go to the graph in one RestorePairs. The restored engine's
// observable behavior — quotes, paths, digests, future seals — is
// identical to the engine that sealed the tree. The engine adopts the
// tree.
func RestoreEngine(tree *shamap.Tree, sc RestoreScalars, opts ...Option) (*Engine, error) {
	// A first walk counts the leaves of each kind, so the maps and slices
	// below are made once at their final size.
	var count [256]int
	tree.Walk(func(_ ledger.Hash, value []byte) error {
		if len(value) > 0 {
			count[value[0]]++
		}
		return nil
	})
	e := &Engine{
		graph: trustgraph.New(),
		books: orderbook.New(),
		xrp:   make(map[addr.AccountID]amount.Drops, count[leafAccount]),
		seq:   make(map[addr.AccountID]uint32, count[leafAccount]),
	}
	offers := make([]orderbook.Offer, count[leafOffer])
	stamps := make([]uint64, 0, count[leafOffer])
	pairs := make([]trustgraph.Pair, 0, count[leafTrust])
	var stampCounter uint64
	sawMeta := false
	err := tree.Walk(func(key ledger.Hash, value []byte) error {
		if len(value) == 0 {
			return fmt.Errorf("payment: empty leaf %s", key.Short())
		}
		switch value[0] {
		case leafAccount:
			a, drops, seq, err := decodeAccountLeaf(value)
			if err != nil {
				return err
			}
			if accountKey(a) != key {
				return fmt.Errorf("payment: account leaf keyed %s under %s", accountKey(a).Short(), key.Short())
			}
			e.seq[a] = seq
			if drops != 0 {
				e.xrp[a] = drops
			}
		case leafTrust:
			pk, limLoHi, limHiLo, balance, err := decodeTrustLeaf(value)
			if err != nil {
				return err
			}
			if trustKey(pk) != key {
				return fmt.Errorf("payment: trust leaf keyed %s under %s", trustKey(pk).Short(), key.Short())
			}
			pairs = append(pairs, trustgraph.Pair{
				Lo: pk.lo, Hi: pk.hi, Currency: pk.cur,
				LimitLoHi: limLoHi, LimitHiLo: limHiLo, Balance: balance,
			})
		case leafOffer:
			o := &offers[len(stamps)] // the count walk saw this leaf too
			stamp, err := decodeOfferLeaf(value, o)
			if err != nil {
				return err
			}
			if offerKey(o.Owner, o.Seq) != key {
				return fmt.Errorf("payment: offer leaf keyed %s under %s", offerKey(o.Owner, o.Seq).Short(), key.Short())
			}
			stamps = append(stamps, stamp)
		case leafMeta:
			totalDrops, feesDestroyed, counter, err := decodeMetaLeaf(value)
			if err != nil {
				return err
			}
			if totalDrops != sc.TotalDrops || feesDestroyed != sc.FeesDestroyed {
				return fmt.Errorf("payment: meta leaf (%d, %d) disagrees with checkpoint scalars (%d, %d)",
					totalDrops, feesDestroyed, sc.TotalDrops, sc.FeesDestroyed)
			}
			stampCounter = counter
			sawMeta = true
		default:
			return fmt.Errorf("payment: unknown leaf tag %#x", value[0])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if !sawMeta {
		return nil, fmt.Errorf("payment: state tree has no meta leaf")
	}
	if err := e.graph.RestorePairs(pairs); err != nil {
		return nil, err
	}
	placed := make([]*orderbook.Offer, len(stamps))
	for i := range placed {
		placed[i] = &offers[i]
	}
	if err := e.books.RestoreOffers(placed, stamps); err != nil {
		return nil, err
	}
	// Fast-forward past stamps consumed by offers that no longer stand,
	// so placements after the restore stamp identically to the original.
	e.books.RestoreStampCounter(stampCounter)
	e.totalDrops = sc.TotalDrops
	e.feesDestroyed = sc.FeesDestroyed
	e.stateDigest = sc.StateDigest
	e.finder = pathfind.New(e.graph, e.books)
	for _, opt := range opts {
		opt(e)
	}
	// Adopt the tree last: an option may have attached a fresh one.
	e.state = newStateJournal(tree)
	return e, nil
}

// Leaf encoding. Each leaf embeds its own identity (the keys are
// hashes, not reversible), tagged by its first byte:
//
//	account 'a' ‖ id[20] ‖ drops u64 ‖ nextSeq u32
//	trust   't' ‖ lo[20] ‖ hi[20] ‖ cur[3] ‖ limLoHi ‖ limHiLo ‖ balance
//	offer   'o' ‖ owner[20] ‖ seq u32 ‖ stamp u64 ‖ paysCur[3] ‖ paysVal ‖ getsCur[3] ‖ getsVal
//	meta    'm' ‖ totalDrops u64 ‖ feesDestroyed u64 ‖ stampCounter u64
//
// integers big-endian; amount values serialize as
// sign u8 ‖ mantissa u64 ‖ exponent i16 (11 bytes, exact for the
// normalized values the engine produces). Leaf keys are SHA512Half of
// the tag byte plus the identity fields (or "meta").
const (
	leafAccount = 'a'
	leafTrust   = 't'
	leafOffer   = 'o'
	leafMeta    = 'm'

	valueLen       = 11
	accountLeafLen = 1 + 20 + 8 + 4
	trustLeafLen   = 1 + 20 + 20 + 3 + 3*valueLen
	offerLeafLen   = 1 + 20 + 4 + 8 + 3 + valueLen + 3 + valueLen
	metaLeafLen    = 1 + 8 + 8 + 8
)

var metaKey = ledger.SHA512Half([]byte("meta"))

func accountKey(a addr.AccountID) ledger.Hash {
	var b [1 + 20]byte
	b[0] = leafAccount
	copy(b[1:], a[:])
	return ledger.SHA512Half(b[:])
}

func trustKey(pk pairKey) ledger.Hash {
	var b [1 + 20 + 20 + 3]byte
	b[0] = leafTrust
	copy(b[1:], pk.lo[:])
	copy(b[21:], pk.hi[:])
	copy(b[41:], pk.cur[:])
	return ledger.SHA512Half(b[:])
}

func offerKey(owner addr.AccountID, seq uint32) ledger.Hash {
	var b [1 + 20 + 4]byte
	b[0] = leafOffer
	copy(b[1:], owner[:])
	binary.BigEndian.PutUint32(b[21:], seq)
	return ledger.SHA512Half(b[:])
}

func appendValue(dst []byte, v amount.Value) []byte {
	sign := byte(0)
	if v.IsNegative() {
		sign = 1
	}
	dst = append(dst, sign)
	dst = binary.BigEndian.AppendUint64(dst, v.Mantissa())
	return binary.BigEndian.AppendUint16(dst, uint16(int16(v.Exponent())))
}

func decodeValue(b []byte) (amount.Value, error) {
	m := binary.BigEndian.Uint64(b[1:9])
	if m > math.MaxInt64 {
		return amount.Zero, fmt.Errorf("payment: leaf mantissa %d out of range", m)
	}
	exp := int16(binary.BigEndian.Uint16(b[9:11]))
	v, err := amount.NewValue(int64(m), int(exp))
	if err != nil {
		return amount.Zero, fmt.Errorf("payment: leaf value: %w", err)
	}
	if b[0] != 0 {
		v = v.Neg()
	}
	return v, nil
}

func appendAccountLeaf(dst []byte, a addr.AccountID, drops amount.Drops, seq uint32) []byte {
	dst = append(dst, leafAccount)
	dst = append(dst, a[:]...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(drops))
	return binary.BigEndian.AppendUint32(dst, seq)
}

func decodeAccountLeaf(b []byte) (a addr.AccountID, drops amount.Drops, seq uint32, err error) {
	if len(b) != accountLeafLen {
		return a, 0, 0, fmt.Errorf("payment: account leaf of %d bytes", len(b))
	}
	copy(a[:], b[1:21])
	return a, amount.Drops(binary.BigEndian.Uint64(b[21:29])), binary.BigEndian.Uint32(b[29:33]), nil
}

func appendTrustLeaf(dst []byte, p *trustgraph.Pair) []byte {
	dst = append(dst, leafTrust)
	dst = append(dst, p.Lo[:]...)
	dst = append(dst, p.Hi[:]...)
	dst = append(dst, p.Currency[:]...)
	dst = appendValue(dst, p.LimitLoHi)
	dst = appendValue(dst, p.LimitHiLo)
	return appendValue(dst, p.Balance)
}

func decodeTrustLeaf(b []byte) (pk pairKey, limLoHi, limHiLo, balance amount.Value, err error) {
	if len(b) != trustLeafLen {
		return pk, amount.Zero, amount.Zero, amount.Zero, fmt.Errorf("payment: trust leaf of %d bytes", len(b))
	}
	copy(pk.lo[:], b[1:21])
	copy(pk.hi[:], b[21:41])
	copy(pk.cur[:], b[41:44])
	if limLoHi, err = decodeValue(b[44 : 44+valueLen]); err == nil {
		if limHiLo, err = decodeValue(b[44+valueLen : 44+2*valueLen]); err == nil {
			balance, err = decodeValue(b[44+2*valueLen:])
		}
	}
	return pk, limLoHi, limHiLo, balance, err
}

func appendOfferLeaf(dst []byte, o *orderbook.Offer) []byte {
	dst = append(dst, leafOffer)
	dst = append(dst, o.Owner[:]...)
	dst = binary.BigEndian.AppendUint32(dst, o.Seq)
	dst = binary.BigEndian.AppendUint64(dst, o.Stamp())
	dst = append(dst, o.Pays.Currency[:]...)
	dst = appendValue(dst, o.Pays.Value)
	dst = append(dst, o.Gets.Currency[:]...)
	return appendValue(dst, o.Gets.Value)
}

// decodeOfferLeaf decodes an offer leaf into o and returns its stamp.
func decodeOfferLeaf(b []byte, o *orderbook.Offer) (uint64, error) {
	if len(b) != offerLeafLen {
		return 0, fmt.Errorf("payment: offer leaf of %d bytes", len(b))
	}
	copy(o.Owner[:], b[1:21])
	o.Seq = binary.BigEndian.Uint32(b[21:25])
	stamp := binary.BigEndian.Uint64(b[25:33])
	copy(o.Pays.Currency[:], b[33:36])
	paysVal, err := decodeValue(b[36 : 36+valueLen])
	if err != nil {
		return 0, err
	}
	o.Pays.Value = paysVal
	copy(o.Gets.Currency[:], b[47:50])
	getsVal, err := decodeValue(b[50 : 50+valueLen])
	if err != nil {
		return 0, err
	}
	o.Gets.Value = getsVal
	return stamp, nil
}

func appendMetaLeaf(dst []byte, totalDrops uint64, feesDestroyed amount.Drops, stampCounter uint64) []byte {
	dst = append(dst, leafMeta)
	dst = binary.BigEndian.AppendUint64(dst, totalDrops)
	dst = binary.BigEndian.AppendUint64(dst, uint64(feesDestroyed))
	return binary.BigEndian.AppendUint64(dst, stampCounter)
}

func decodeMetaLeaf(b []byte) (totalDrops uint64, feesDestroyed amount.Drops, stampCounter uint64, err error) {
	if len(b) != metaLeafLen {
		return 0, 0, 0, fmt.Errorf("payment: meta leaf of %d bytes", len(b))
	}
	return binary.BigEndian.Uint64(b[1:9]),
		amount.Drops(binary.BigEndian.Uint64(b[9:17])),
		binary.BigEndian.Uint64(b[17:25]), nil
}
