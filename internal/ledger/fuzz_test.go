package ledger

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Decoder robustness: arbitrary bytes must never panic, and must either
// fail cleanly or round-trip.

func TestDecodeTxNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		tx, used, err := decodeTx(data)
		if err != nil {
			return tx == nil
		}
		// A successful decode must re-encode to the consumed prefix.
		out := tx.Encode(nil)
		return used == len(out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeMetaNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		m, _, err := decodeMeta(data)
		return (err == nil) == (m != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

func TestDecodePageNeverPanicsOnRandomBytes(t *testing.T) {
	f := func(data []byte) bool {
		p, _, err := DecodePageInto(data, new(PageArena))
		return (err == nil) == (p != nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Bit-flip robustness: corrupting a valid encoding must either decode to
// a *different* transaction or fail — silent identity corruption would
// break hashing and signatures.
func TestDecodeTxBitFlips(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	tx := randomTx(r)
	data := tx.Encode(nil)
	orig := tx.Hash()
	for i := 0; i < len(data); i++ {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		got, _, err := decodeTx(mut)
		if err != nil {
			continue
		}
		if got.Hash() == orig && got.Encode(nil)[i] == data[i] {
			t.Fatalf("bit flip at byte %d silently preserved the transaction", i)
		}
	}
}

// Truncation sweep: every strict prefix of a valid page encoding must
// fail to decode (no partial acceptance).
func TestDecodePageAllPrefixesFail(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	txs := []*Tx{randomTx(r), randomTx(r)}
	metas := []*TxMeta{
		{Result: ResultSuccess, PathHops: []uint8{1, 2}},
		{Result: ResultPathDry},
	}
	p := &Page{
		Header: PageHeader{Sequence: 9, TxSetHash: TxSetHash(txs)},
		Txs:    txs,
		Metas:  metas,
	}
	data := p.Encode(nil)
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodePageInto(data[:cut], new(PageArena)); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(data))
		}
	}
}
