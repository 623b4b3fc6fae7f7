package ledger

import (
	"encoding/binary"
	"fmt"

	"ripplestudy/internal/addr"
)

// PageArena is the storage a decoded page lives in. DecodePageInto
// carves the *Page, its per-transaction Tx/TxMeta structs and every
// byte-slice field out of the arena's slabs, so a scan that reuses one
// arena allocates nothing in steady state.
//
// Contract: every DecodePageInto call resets the arena, invalidating
// the previous page decoded into it and everything reachable from it
// (transactions, metadata, signature bytes, intermediary lists). A
// consumer that keeps a page beyond the next decode decodes it into an
// arena of its own (new(PageArena) per page).
//
// A PageArena is not safe for concurrent use; parallel scans keep one
// arena per worker (see core's ecosystem scan over
// ledgerstore.PayloadsParallel).
type PageArena struct {
	page  Page
	txs   []Tx
	metas []TxMeta
	txp   []*Tx
	metap []*TxMeta
	hops  []uint8
	accts []addr.AccountID
	bytes []byte
}

// Reset recycles the arena's slabs, invalidating everything previously
// decoded into it.
func (a *PageArena) Reset() {
	a.page = Page{}
	a.txs = a.txs[:0]
	a.metas = a.metas[:0]
	a.txp = a.txp[:0]
	a.metap = a.metap[:0]
	a.hops = a.hops[:0]
	a.accts = a.accts[:0]
	a.bytes = a.bytes[:0]
}

// grabBytes copies b into the arena's byte slab and returns the stable
// copy. Slab growth relocates the backing array, but slices handed out
// before the growth keep pointing at the old (already written, still
// reachable) backing, so they stay valid until Reset.
func (a *PageArena) grabBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	n := len(a.bytes)
	a.bytes = append(a.bytes, b...)
	return a.bytes[n : n+len(b) : n+len(b)]
}

// grabHops returns a stable copy of hops from the hop slab.
func (a *PageArena) grabHops(b []byte) []uint8 {
	n := len(a.hops)
	a.hops = append(a.hops, b...)
	return a.hops[n : n+len(b) : n+len(b)]
}

// grabAccounts reserves n account slots and returns the slice to fill.
func (a *PageArena) grabAccounts(n int) []addr.AccountID {
	off := len(a.accts)
	for i := 0; i < n; i++ {
		a.accts = append(a.accts, addr.AccountID{})
	}
	return a.accts[off : off+n : off+n]
}

// newTx appends a zero Tx to the slab and returns its address. Later
// slab growth copies the element; the returned pointer keeps referring
// to the old element, which holds the fully decoded value.
func (a *PageArena) newTx() *Tx {
	a.txs = append(a.txs, Tx{})
	return &a.txs[len(a.txs)-1]
}

func (a *PageArena) newMeta() *TxMeta {
	a.metas = append(a.metas, TxMeta{})
	return &a.metas[len(a.metas)-1]
}

// minTxRecordBytes is the smallest possible encoded (tx, meta) pair:
// the fixed transaction prefix plus two empty byte strings, and the
// five fixed meta fields with empty lists. It bounds how many
// transactions a page of a given byte size can actually contain, so a
// forged count can never force a large slab reservation.
const minTxRecordBytes = txFixedBytes + 2 + 2 + 1 + 14 + 1 + 4 + 1 + 2

// DecodePageInto decodes one page from data, carving every object out
// of the arena. It returns the decoded page (whose storage belongs to
// the arena) and the number of bytes consumed. It is the one page
// decoder: a caller that keeps its pages decodes each into a fresh
// arena. The call resets the arena first, so the previously decoded
// page is invalidated (see the PageArena contract).
func DecodePageInto(data []byte, a *PageArena) (*Page, int, error) {
	a.Reset()
	hdr, off, err := DecodeHeader(data)
	if err != nil {
		return nil, 0, err
	}
	if len(data) < off+4 {
		return nil, 0, ErrTruncated
	}
	p := &a.page
	p.Header = hdr
	n := int(binary.BigEndian.Uint32(data[off:]))
	off += 4
	if reserve := n; reserve <= len(data)/minTxRecordBytes+1 {
		// Credible count: pre-size the slabs so no mid-page growth
		// relocations happen at all.
		if cap(a.txs) < reserve {
			a.txs = make([]Tx, 0, reserve)
		}
		if cap(a.metas) < reserve {
			a.metas = make([]TxMeta, 0, reserve)
		}
		if cap(a.txp) < reserve {
			a.txp = make([]*Tx, 0, reserve)
		}
		if cap(a.metap) < reserve {
			a.metap = make([]*TxMeta, 0, reserve)
		}
	}
	if a.txp == nil {
		// Transaction-free pages decode to empty, non-nil Txs and
		// Metas, so they export as [] rather than null (one-time cost
		// per arena).
		a.txp = make([]*Tx, 0, 4)
		a.metap = make([]*TxMeta, 0, 4)
	}
	for i := 0; i < n; i++ {
		tx := a.newTx()
		used, err := decodeTxInto(data[off:], tx, a)
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: page %d, tx %d: %w", p.Header.Sequence, i, err)
		}
		off += used
		meta := a.newMeta()
		used, err = decodeMetaInto(data[off:], meta, a)
		if err != nil {
			return nil, 0, fmt.Errorf("ledger: page %d, meta %d: %w", p.Header.Sequence, i, err)
		}
		off += used
		a.txp = append(a.txp, tx)
		a.metap = append(a.metap, meta)
	}
	p.Txs = a.txp
	p.Metas = a.metap
	return p, off, nil
}
