package ledger

import (
	"fmt"
)

// PageHeader identifies a closed ledger page: its position in the chain,
// the hash of its parent, a digest of its transaction set, the history
// digest the engine held after applying it, and the consensus close
// time. StateHash chains every applied transaction's hash with its
// result byte (payment.Engine.StateDigest): it commits to the history
// and to each transaction's success or failure, not to balances.
type PageHeader struct {
	Sequence   uint64    `json:"sequence"`
	ParentHash Hash      `json:"parent_hash"`
	TxSetHash  Hash      `json:"tx_set_hash"`
	StateHash  Hash      `json:"state_hash"`
	CloseTime  CloseTime `json:"close_time"`
	// TotalDrops is the XRP in existence after this page; it only ever
	// decreases as fees are destroyed.
	TotalDrops uint64 `json:"total_drops"`
}

// encodeHeader produces the canonical bytes whose SHA-512-half is the
// page hash that validators sign.
func (h *PageHeader) encodeHeader(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u64(h.Sequence)
	e.hash(h.ParentHash)
	e.hash(h.TxSetHash)
	e.hash(h.StateHash)
	e.u32(uint32(h.CloseTime))
	e.u64(h.TotalDrops)
	return e.buf
}

// Hash returns the page hash validators sign and the chain links by.
func (h *PageHeader) Hash() Hash { return SHA512Half(h.encodeHeader(nil)) }

// Page is one closed ledger version: a header plus the transactions the
// consensus round sealed into it and their execution metadata.
// len(Metas) == len(Txs) always.
type Page struct {
	Header PageHeader `json:"header"`
	Txs    []*Tx      `json:"txs"`
	Metas  []*TxMeta  `json:"metas"`
}

// TxSetHash computes the digest of an ordered transaction list, the value
// recorded in PageHeader.TxSetHash. Consensus proposals exchange this
// digest.
func TxSetHash(txs []*Tx) Hash {
	hashes := make([]Hash, len(txs))
	for i, tx := range txs {
		hashes[i] = tx.Hash()
	}
	return TxSetHashOf(hashes)
}

// TxSetHashOf is TxSetHash over transaction hashes already computed, in
// order: a caller that has just applied the transactions holds them.
func TxSetHashOf(hashes []Hash) Hash {
	buf := make([]byte, 0, len(hashes)*len(Hash{}))
	for _, h := range hashes {
		buf = append(buf, h[:]...)
	}
	return SHA512Half(buf)
}

// Validate checks the page's internal consistency: metadata parity and
// the transaction-set digest.
func (p *Page) Validate() error {
	if len(p.Txs) != len(p.Metas) {
		return fmt.Errorf("ledger: page %d: %d txs but %d metas", p.Header.Sequence, len(p.Txs), len(p.Metas))
	}
	if got := TxSetHash(p.Txs); got != p.Header.TxSetHash {
		return fmt.Errorf("ledger: page %d: tx set hash mismatch: %s != %s",
			p.Header.Sequence, got.Short(), p.Header.TxSetHash.Short())
	}
	return nil
}

// Encode appends the canonical serialization of the full page.
func (p *Page) Encode(buf []byte) []byte {
	buf = p.Header.encodeHeader(buf)
	e := encoder{buf: buf}
	e.u32(uint32(len(p.Txs)))
	buf = e.buf
	for i := range p.Txs {
		buf = p.Txs[i].Encode(buf)
		buf = p.Metas[i].EncodeMeta(buf)
	}
	return buf
}

// DecodePage decodes one page from data, returning bytes consumed.
func DecodePage(data []byte) (*Page, int, error) {
	d := decoder{buf: data}
	var p Page
	p.Header.Sequence = d.u64()
	p.Header.ParentHash = d.hash()
	p.Header.TxSetHash = d.hash()
	p.Header.StateHash = d.hash()
	p.Header.CloseTime = CloseTime(d.u32())
	p.Header.TotalDrops = d.u64()
	n := int(d.u32())
	if d.err != nil {
		return nil, 0, d.err
	}
	p.Txs = make([]*Tx, 0, n)
	p.Metas = make([]*TxMeta, 0, n)
	for i := 0; i < n; i++ {
		tx, used, err := DecodeTx(data[d.off:])
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: page %d, tx %d: %w", p.Header.Sequence, i, err)
		}
		d.off += used
		meta, used, err := DecodeMeta(data[d.off:])
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: page %d, meta %d: %w", p.Header.Sequence, i, err)
		}
		d.off += used
		p.Txs = append(p.Txs, tx)
		p.Metas = append(p.Metas, meta)
	}
	return &p, d.off, nil
}

// GenesisTotalDrops is the initial XRP supply: 100 billion XRP, all owned
// by ACCOUNT_ZERO at genesis, as in Ripple.
const GenesisTotalDrops = 100_000_000_000 * 1_000_000

// Genesis builds the sequence-1 page of a chain. chainTag diversifies the
// genesis of independent chains: the main net and the test net the paper
// observed are distinct chains whose pages never validate on each other.
func Genesis(chainTag string, closeTime CloseTime) *Page {
	seed := SHA512Half([]byte("ripplestudy-genesis:" + chainTag))
	return &Page{
		Header: PageHeader{
			Sequence:   1,
			ParentHash: seed,
			TxSetHash:  TxSetHash(nil),
			StateHash:  seed,
			CloseTime:  closeTime,
			TotalDrops: GenesisTotalDrops,
		},
	}
}

// Chain is an in-memory ledger chain: an append-only list of closed
// pages with parent-hash linkage enforced.
type Chain struct {
	pages []*Page
}

// NewChain starts a chain from a genesis page.
func NewChain(genesis *Page) *Chain {
	return &Chain{pages: []*Page{genesis}}
}

// Tip returns the most recently appended page.
func (c *Chain) Tip() *Page { return c.pages[len(c.pages)-1] }

// Len returns the number of pages in the chain.
func (c *Chain) Len() int { return len(c.pages) }

// Page returns the page at 0-based index i.
func (c *Chain) Page(i int) *Page { return c.pages[i] }

// Append validates linkage and internal consistency, then appends p.
func (c *Chain) Append(p *Page) error {
	tip := c.Tip()
	if p.Header.Sequence != tip.Header.Sequence+1 {
		return fmt.Errorf("ledger: appending sequence %d after %d", p.Header.Sequence, tip.Header.Sequence)
	}
	if p.Header.ParentHash != tip.Header.Hash() {
		return fmt.Errorf("ledger: page %d parent hash %s does not match tip %s",
			p.Header.Sequence, p.Header.ParentHash.Short(), tip.Header.Hash().Short())
	}
	if err := p.Validate(); err != nil {
		return err
	}
	c.pages = append(c.pages, p)
	return nil
}
