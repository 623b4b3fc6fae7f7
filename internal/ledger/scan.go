package ledger

import (
	"encoding/binary"
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// This file is the zero-copy walk over the canonical page encoding.
// DecodePageInto materializes a full object graph per record — fine for
// consumers that need every field, but the history-scale scans (the
// Figure 3 feature feed, ecosystem statistics, store statistics) read a
// handful of fields from each of millions of transactions. TxIter walks
// the encoding in place instead: fixed fields are read at their
// constant offsets (see the txOff* layout in codec.go), variable-length
// fields are skipped by their length prefixes, and nothing is
// allocated. ScanPayments is a filter over that walk.
//
// Aliasing rules: the views TxIter and ScanPayments hand out are reused
// between transactions and, when the payload comes from ledgerstore's
// mmap reader, their raw byte fields alias the mapped segment. A view
// is valid only until the next transaction; retain copies, not views.

// pageHeaderBytes is the encoded size of a PageHeader.
const pageHeaderBytes = 8 + 32 + 32 + 32 + 4 + 8

// DecodeHeader decodes just the page header from a page encoding,
// without touching the transaction area. It returns the number of
// header bytes consumed (the transaction count follows at that offset).
func DecodeHeader(data []byte) (PageHeader, int, error) {
	var h PageHeader
	if len(data) < pageHeaderBytes {
		return h, 0, ErrTruncated
	}
	h.Sequence = binary.BigEndian.Uint64(data[0:8])
	copy(h.ParentHash[:], data[8:40])
	copy(h.TxSetHash[:], data[40:72])
	copy(h.StateHash[:], data[72:104])
	h.CloseTime = CloseTime(binary.BigEndian.Uint32(data[104:108]))
	h.TotalDrops = binary.BigEndian.Uint64(data[108:116])
	return h, pageHeaderBytes, nil
}

// skipTx returns the total encoded length of the transaction starting
// at data[0], validating the codec version and that the record fits.
func skipTx(data []byte) (int, error) {
	if len(data) < txFixedBytes+2 {
		return 0, ErrTruncated
	}
	if data[0] != txCodecVersion {
		return 0, fmt.Errorf("ledger: tx codec version %d, want %d", data[0], txCodecVersion)
	}
	n := txFixedBytes
	skLen := int(binary.BigEndian.Uint16(data[n:]))
	n += 2 + skLen
	if len(data) < n+2 {
		return 0, ErrTruncated
	}
	sigLen := int(binary.BigEndian.Uint16(data[n:]))
	n += 2 + sigLen
	if len(data) < n {
		return 0, ErrTruncated
	}
	return n, nil
}

// Fixed layout of the meta encoding before its variable tails.
const (
	metaOffResult    = 0
	metaOffDelivered = 1               // 14-byte amount
	metaOffNPaths    = 1 + amountBytes // u8 parallel-path count
	metaFixedTail    = 4 + 1 + 2       // offersConsumed ∥ cross ∥ nIntermediaries
	metaMinBytes     = 1 + amountBytes + 1 + metaFixedTail
)

// skipMeta returns the total encoded length of the TxMeta starting at
// data[0].
func skipMeta(data []byte) (int, error) {
	if len(data) < metaMinBytes {
		return 0, ErrTruncated
	}
	nPaths := int(data[metaOffNPaths])
	n := metaOffNPaths + 1 + nPaths
	if len(data) < n+metaFixedTail {
		return 0, ErrTruncated
	}
	nInterm := int(binary.BigEndian.Uint16(data[n+5:]))
	n += metaFixedTail + 20*nInterm
	if len(data) < n {
		return 0, ErrTruncated
	}
	return n, nil
}

// TxView is a zero-copy view of one (transaction, metadata) record
// inside a page encoding. Tx and Meta alias the scanned payload; the
// accessors decode individual fields on demand. The view (and the
// bytes it aliases) is valid only until the iterator's next Next call.
type TxView struct {
	// Index is the transaction's position within the page.
	Index int
	// Tx and Meta are the records' raw canonical encodings.
	Tx, Meta []byte
}

// Type returns the transaction type.
func (v *TxView) Type() TxType { return TxType(v.Tx[txOffType]) }

// Account returns the sender account.
func (v *TxView) Account() (id addr.AccountID) {
	copy(id[:], v.Tx[txOffAccount:])
	return id
}

// Sequence returns the per-account sequence number.
func (v *TxView) Sequence() uint32 {
	return binary.BigEndian.Uint32(v.Tx[txOffSequence:])
}

// Fee returns the XRP fee.
func (v *TxView) Fee() amount.Drops {
	return amount.Drops(binary.BigEndian.Uint64(v.Tx[txOffFee:]))
}

// Destination returns the payment destination account.
func (v *TxView) Destination() (id addr.AccountID) {
	copy(id[:], v.Tx[txOffDestination:])
	return id
}

// Currency returns the delivered amount's currency code.
func (v *TxView) Currency() (c amount.Currency) {
	copy(c[:], v.Tx[txOffAmount:])
	return c
}

// AmountValue decodes the delivered amount's value, applying the same
// validation as the full decoder.
func (v *TxView) AmountValue() (amount.Value, error) {
	return decodeValueAt(v.Tx, txOffAmount+3)
}

// Result returns the execution result code.
func (v *TxView) Result() TxResult { return TxResult(v.Meta[metaOffResult]) }

// PathHops returns the per-path hop counts, aliasing the payload.
func (v *TxView) PathHops() []uint8 {
	n := int(v.Meta[metaOffNPaths])
	return v.Meta[metaOffNPaths+1 : metaOffNPaths+1+n]
}

// CrossCurrency reports whether source and delivered currencies differ.
func (v *TxView) CrossCurrency() bool {
	n := metaOffNPaths + 1 + int(v.Meta[metaOffNPaths])
	return v.Meta[n+4] == 1
}

// OffersConsumed returns the consumed-offer count.
func (v *TxView) OffersConsumed() uint32 {
	n := metaOffNPaths + 1 + int(v.Meta[metaOffNPaths])
	return binary.BigEndian.Uint32(v.Meta[n:])
}

// TxIter walks a page encoding in place, one transaction at a time.
// The walk validates record framing (lengths, codec version) but not
// field contents; a page that DecodePageInto accepts is always walkable,
// and the per-field accessors apply the full decoder's validation on the
// fields they touch. The iterator is allocation-free: the header and
// the reused view live inside the caller-owned iterator, so a
// projection loop whose views never escape keeps the whole walk on its
// stack. The view returned by Next aliases both the iterator and the
// payload and is valid only until the next Next call.
type TxIter struct {
	// Hdr is the decoded page header, valid after Init.
	Hdr PageHeader

	v       TxView
	payload []byte
	off     int
	n       int
	i       int
}

// Init validates the header and positions the iterator before the
// first transaction.
func (it *TxIter) Init(payload []byte) error {
	hdr, off, err := DecodeHeader(payload)
	if err != nil {
		return err
	}
	if len(payload) < off+4 {
		return ErrTruncated
	}
	it.Hdr = hdr
	it.n = int(binary.BigEndian.Uint32(payload[off:]))
	it.off = off + 4
	it.payload = payload
	it.i = 0
	return nil
}

// Next advances to the next transaction. It returns (nil, nil) after
// the last one.
func (it *TxIter) Next() (*TxView, error) {
	if it.i >= it.n {
		return nil, nil
	}
	txLen, err := skipTx(it.payload[it.off:])
	if err != nil {
		return nil, fmt.Errorf("ledger: page %d, tx %d: %w", it.Hdr.Sequence, it.i, err)
	}
	it.v.Tx = it.payload[it.off : it.off+txLen]
	it.off += txLen
	metaLen, err := skipMeta(it.payload[it.off:])
	if err != nil {
		return nil, fmt.Errorf("ledger: page %d, meta %d: %w", it.Hdr.Sequence, it.i, err)
	}
	it.v.Meta = it.payload[it.off : it.off+metaLen]
	it.off += metaLen
	it.v.Index = it.i
	it.i++
	return &it.v, nil
}

// Used reports the payload bytes consumed so far; after a complete walk
// it is the page encoding's length.
func (it *TxIter) Used() int { return it.off }

// PaymentView is the field projection the de-anonymization and
// analysis scans consume: one successful payment's observable features
// plus its execution shape, without the enclosing *Page object graph.
// The view is reused between callbacks; all fields are values, so
// copying the struct (or individual fields) is always safe.
type PaymentView struct {
	// Seq and Time come from the enclosing page header.
	Seq  uint64
	Time CloseTime
	// Index is the transaction's position within its page.
	Index int

	Sender      addr.AccountID
	Destination addr.AccountID
	Currency    amount.Currency
	Amount      amount.Value

	// Execution shape from the metadata.
	ParallelPaths  int
	MaxHops        int
	OffersConsumed uint32
	CrossCurrency  bool
}

// decodeValueAt decodes an amount.Value at data[off:], with the exact
// validation the full decoder applies.
func decodeValueAt(data []byte, off int) (amount.Value, error) {
	neg := data[off]
	mant := binary.BigEndian.Uint64(data[off+1 : off+9])
	exp := int(int16(binary.BigEndian.Uint16(data[off+9 : off+11])))
	m := int64(mant)
	if m < 0 {
		return amount.Value{}, fmt.Errorf("ledger: mantissa %d out of range", mant)
	}
	if neg == 1 {
		m = -m
	}
	v, err := amount.NewValue(m, exp)
	if err != nil {
		return amount.Value{}, fmt.Errorf("ledger: decoding value: %w", err)
	}
	return v, nil
}

// ScanPayments walks a page encoding in place and calls fn once per
// successful payment with a reused PaymentView, returning the bytes
// consumed. It is a filter over TxIter: the projection is exactly the
// set of payments deanon.FromTransaction accepts from the decoded
// equivalent, transactions of type TxPayment whose result is
// tesSUCCESS. Framing is fully validated (a CRC-clean store record that
// DecodePageInto accepts never fails here); field contents of skipped
// transactions are not inspected. fn errors abort the scan and
// propagate unwrapped.
func ScanPayments(payload []byte, fn func(pv *PaymentView) error) (int, error) {
	var it TxIter
	if err := it.Init(payload); err != nil {
		return 0, err
	}
	var pv PaymentView
	pv.Seq = it.Hdr.Sequence
	pv.Time = it.Hdr.CloseTime
	for {
		v, err := it.Next()
		if err != nil {
			return 0, err
		}
		if v == nil {
			return it.Used(), nil
		}
		if v.Type() != TxPayment || v.Result() != ResultSuccess {
			continue
		}
		pv.Index = v.Index
		pv.Sender = v.Account()
		pv.Destination = v.Destination()
		pv.Currency = v.Currency()
		if pv.Amount, err = v.AmountValue(); err != nil {
			return 0, fmt.Errorf("ledger: page %d, tx %d: %w", it.Hdr.Sequence, v.Index, err)
		}
		hops := v.PathHops()
		pv.ParallelPaths = len(hops)
		maxHops := 0
		for _, h := range hops {
			maxHops = max(maxHops, int(h))
		}
		pv.MaxHops = maxHops
		pv.OffersConsumed = v.OffersConsumed()
		pv.CrossCurrency = v.CrossCurrency()
		if err := fn(&pv); err != nil {
			return it.Used(), err
		}
	}
}
