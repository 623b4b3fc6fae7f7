package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// The canonical binary codec. Encoding is deterministic — a requirement
// for hashing and signing: fields are written in a fixed order with
// fixed-width big-endian integers and length-prefixed byte strings.

// ErrTruncated is returned when decoding runs out of input.
var ErrTruncated = errors.New("ledger: truncated input")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)   { e.buf = append(e.buf, v) }
func (e *encoder) u16(v uint16) { e.buf = binary.BigEndian.AppendUint16(e.buf, v) }
func (e *encoder) u32(v uint32) { e.buf = binary.BigEndian.AppendUint32(e.buf, v) }
func (e *encoder) u64(v uint64) { e.buf = binary.BigEndian.AppendUint64(e.buf, v) }

func (e *encoder) account(id addr.AccountID) { e.buf = append(e.buf, id[:]...) }
func (e *encoder) hash(h Hash)               { e.buf = append(e.buf, h[:]...) }
func (e *encoder) amount(a amount.Amount)    { e.buf = appendAmount(e.buf, a) }

// appendAmount appends currency ∥ sign ∥ mantissa ∥ exponent.
func appendAmount(buf []byte, a amount.Amount) []byte {
	neg := uint8(0)
	if a.Value.IsNegative() {
		neg = 1
	}
	buf = append(buf, a.Currency[0], a.Currency[1], a.Currency[2], neg)
	buf = binary.BigEndian.AppendUint64(buf, a.Value.Mantissa())
	return binary.BigEndian.AppendUint16(buf, uint16(int16(a.Value.Exponent())))
}

// appendBytes appends a length-prefixed byte string.
func appendBytes(buf, b []byte) []byte {
	if len(b) > math.MaxUint16 {
		panic("ledger: byte string too long") // internal invariant; no user data reaches here
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(b)))
	return append(buf, b...)
}

type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = ErrTruncated
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func (d *decoder) u8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *decoder) u16() uint16 {
	b := d.take(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (d *decoder) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (d *decoder) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint64(b)
}

func (d *decoder) account() addr.AccountID {
	var id addr.AccountID
	b := d.take(20)
	if b != nil {
		copy(id[:], b)
	}
	return id
}

func (d *decoder) value() amount.Value {
	neg := d.u8()
	mant := d.u64()
	exp := int(int16(d.u16()))
	if d.err != nil {
		return amount.Value{}
	}
	m := int64(mant)
	if m < 0 {
		d.err = fmt.Errorf("ledger: mantissa %d out of range", mant)
		return amount.Value{}
	}
	if neg == 1 {
		m = -m
	}
	v, err := amount.NewValue(m, exp)
	if err != nil {
		d.err = fmt.Errorf("ledger: decoding value: %w", err)
		return amount.Value{}
	}
	return v
}

func (d *decoder) amount() amount.Amount {
	b := d.take(3)
	var c amount.Currency
	if b != nil {
		copy(c[:], b)
	}
	v := d.value()
	return amount.Amount{Currency: c, Value: v}
}

// txCodecVersion guards against decoding data written by an incompatible
// build.
const txCodecVersion = 1

// Encode appends the canonical serialization of tx to buf and returns the
// extended slice. It is written as plain appends on the argument, not
// through an encoder, so a caller's stack buffer stays on the stack: a
// store through the encoder's pointer receiver would send it to the heap.
func (tx *Tx) Encode(buf []byte) []byte {
	buf = append(buf, txCodecVersion, uint8(tx.Type))
	buf = append(buf, tx.Account[:]...)
	buf = binary.BigEndian.AppendUint32(buf, tx.Sequence)
	buf = binary.BigEndian.AppendUint64(buf, uint64(tx.Fee))
	buf = append(buf, tx.Destination[:]...)
	buf = appendAmount(buf, tx.Amount)
	buf = append(buf, tx.DestIssuer[:]...)
	buf = appendAmount(buf, tx.SendMax)
	buf = append(buf, tx.SendIssuer[:]...)
	buf = appendAmount(buf, tx.TakerPays)
	buf = append(buf, tx.TakerPaysIssuer[:]...)
	buf = appendAmount(buf, tx.TakerGets)
	buf = append(buf, tx.TakerGetsIssuer[:]...)
	buf = binary.BigEndian.AppendUint32(buf, tx.OfferSequence)
	buf = append(buf, tx.LimitPeer[:]...)
	buf = appendAmount(buf, tx.Limit)
	buf = appendBytes(buf, tx.SigningKey)
	return appendBytes(buf, tx.Signature)
}

// Fixed layout of the transaction encoding: every field up to the two
// trailing length-prefixed byte strings has a constant offset, which the
// zero-copy projection scan (scan.go) exploits to read single fields
// without decoding their neighbours.
const (
	txOffType        = 1   // after the version byte
	txOffAccount     = 2   // 20-byte sender
	txOffSequence    = 22  // u32
	txOffFee         = 26  // u64
	txOffDestination = 34  // 20-byte destination
	txOffAmount      = 54  // 3-byte currency ∥ 11-byte value
	txOffSendMax     = 88  // second amount field (after DestIssuer)
	txFixedBytes     = 228 // everything before SigningKey's length prefix

	amountBytes = 3 + 1 + 8 + 2 // currency ∥ sign ∥ mantissa ∥ exponent
)

// bytesInto reads a length-prefixed byte string, copying it into the
// arena's byte slab.
func (d *decoder) bytesInto(a *PageArena) []byte {
	n := int(d.u16())
	if n == 0 {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	return a.grabBytes(b)
}

// decodeTxInto decodes one transaction from data into tx, drawing
// byte-slice fields from the arena. It returns the number of bytes
// consumed.
func decodeTxInto(data []byte, tx *Tx, a *PageArena) (int, error) {
	d := decoder{buf: data}
	ver := d.u8()
	if d.err == nil && ver != txCodecVersion {
		return 0, fmt.Errorf("ledger: tx codec version %d, want %d", ver, txCodecVersion)
	}
	tx.Type = TxType(d.u8())
	tx.Account = d.account()
	tx.Sequence = d.u32()
	tx.Fee = amount.Drops(d.u64())
	tx.Destination = d.account()
	tx.Amount = d.amount()
	tx.DestIssuer = d.account()
	tx.SendMax = d.amount()
	tx.SendIssuer = d.account()
	tx.TakerPays = d.amount()
	tx.TakerPaysIssuer = d.account()
	tx.TakerGets = d.amount()
	tx.TakerGetsIssuer = d.account()
	tx.OfferSequence = d.u32()
	tx.LimitPeer = d.account()
	tx.Limit = d.amount()
	tx.SigningKey = d.bytesInto(a)
	tx.Signature = d.bytesInto(a)
	if d.err != nil {
		return 0, d.err
	}
	return d.off, nil
}

// EncodeMeta appends the canonical serialization of m to buf.
func (m *TxMeta) EncodeMeta(buf []byte) []byte {
	e := encoder{buf: buf}
	e.u8(uint8(m.Result))
	e.amount(m.Delivered)
	if len(m.PathHops) > math.MaxUint8 {
		panic("ledger: too many parallel paths")
	}
	e.u8(uint8(len(m.PathHops)))
	e.buf = append(e.buf, m.PathHops...)
	e.u32(m.OffersConsumed)
	cross := uint8(0)
	if m.CrossCurrency {
		cross = 1
	}
	e.u8(cross)
	if len(m.Intermediaries) > math.MaxUint16 {
		panic("ledger: too many intermediaries")
	}
	e.u16(uint16(len(m.Intermediaries)))
	for _, a := range m.Intermediaries {
		e.account(a)
	}
	return e.buf
}

// decodeMetaInto decodes one TxMeta from data into m, drawing slices
// from the arena. It returns bytes consumed.
func decodeMetaInto(data []byte, m *TxMeta, a *PageArena) (int, error) {
	d := decoder{buf: data}
	m.Result = TxResult(d.u8())
	m.Delivered = d.amount()
	if nPaths := int(d.u8()); nPaths > 0 {
		if hops := d.take(nPaths); hops != nil {
			m.PathHops = a.grabHops(hops)
		}
	}
	m.OffersConsumed = d.u32()
	m.CrossCurrency = d.u8() == 1
	if n := int(d.u16()); n > 0 && d.err == nil {
		if d.off+20*n > len(d.buf) {
			// The claimed list cannot fit in the remaining input; fail
			// before reserving space for it.
			return 0, ErrTruncated
		}
		out := a.grabAccounts(n)
		for i := 0; i < n; i++ {
			out[i] = d.account()
		}
		m.Intermediaries = out
	}
	if d.err != nil {
		return 0, d.err
	}
	return d.off, nil
}
