package ledger

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// randomMeta builds execution metadata with the variable-length parts
// (path hops, intermediaries) exercised across their shapes.
func randomMeta(r *rand.Rand) *TxMeta {
	m := &TxMeta{
		Result:         TxResult(r.Intn(3)),
		Delivered:      amount.New(amount.USD, amount.MustValue(int64(r.Intn(5000)+1), -2)),
		OffersConsumed: uint32(r.Intn(10)),
		CrossCurrency:  r.Intn(2) == 0,
	}
	if n := r.Intn(4); n > 0 {
		m.PathHops = make([]uint8, n)
		for i := range m.PathHops {
			m.PathHops[i] = uint8(r.Intn(8) + 1)
		}
	}
	if n := r.Intn(3); n > 0 {
		m.Intermediaries = make([]addr.AccountID, n)
		for i := range m.Intermediaries {
			m.Intermediaries[i] = addr.KeyPairFromSeed(r.Uint64()).AccountID()
		}
	}
	return m
}

// randomScanPage builds a valid page with nTxs transactions of mixed
// types and results.
func randomScanPage(r *rand.Rand, seq uint64, nTxs int) *Page {
	txs := make([]*Tx, nTxs)
	metas := make([]*TxMeta, nTxs)
	for i := range txs {
		txs[i] = randomTx(r)
		metas[i] = randomMeta(r)
	}
	return &Page{
		Header: PageHeader{
			Sequence:   seq,
			ParentHash: SHA512Half([]byte{byte(seq)}),
			TxSetHash:  TxSetHash(txs),
			StateHash:  SHA512Half([]byte{byte(seq), 1}),
			CloseTime:  CloseTimeFromTime(time.Date(2015, 1, 1, 0, 0, int(seq%3600), 0, time.UTC)),
			TotalDrops: GenesisTotalDrops - seq,
		},
		Txs:   txs,
		Metas: metas,
	}
}

// Differential: decoding into a reused arena must be bit-identical to
// decoding into a fresh one, across arena reuse and slab growth.
func TestDecodePageIntoReusedMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var a PageArena
	for i := 0; i < 40; i++ {
		p := randomScanPage(r, uint64(i+1), r.Intn(12)) // includes empty pages
		data := p.Encode(nil)
		want, wantUsed, err := DecodePageInto(data, new(PageArena))
		if err != nil {
			t.Fatal(err)
		}
		got, used, err := DecodePageInto(data, &a)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if used != wantUsed {
			t.Fatalf("page %d: consumed %d, a fresh arena consumed %d", i, used, wantUsed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("page %d: reused-arena decode differs from a fresh arena's", i)
		}
	}
}

// Every strict prefix of a page encoding fails to decode, also into a
// reused arena.
func TestDecodePageIntoAllPrefixesFail(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	p := randomScanPage(r, 3, 2)
	data := p.Encode(nil)
	var a PageArena
	for cut := 0; cut < len(data); cut++ {
		if _, _, err := DecodePageInto(data[:cut], &a); err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded successfully", cut, len(data))
		}
	}
}

func TestDecodeHeaderMatchesDecodePage(t *testing.T) {
	r := rand.New(rand.NewSource(22))
	p := randomScanPage(r, 77, 3)
	data := p.Encode(nil)
	h, used, err := DecodeHeader(data)
	if err != nil {
		t.Fatal(err)
	}
	if h != p.Header {
		t.Fatalf("header mismatch:\n%+v\n%+v", h, p.Header)
	}
	if used != pageHeaderBytes {
		t.Fatalf("consumed %d, want %d", used, pageHeaderBytes)
	}
	if _, _, err := DecodeHeader(data[:pageHeaderBytes-1]); err == nil {
		t.Error("truncated header accepted")
	}
}

// Differential: TxIter's view accessors must agree with the fully
// decoded page on every transaction.
func TestTxIterMatchesDecodedPage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	p := randomScanPage(r, 5, 8)
	data := p.Encode(nil)
	var it TxIter
	if err := it.Init(data); err != nil {
		t.Fatal(err)
	}
	i := 0
	for {
		v, err := it.Next()
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			break
		}
		if it.Hdr != p.Header {
			t.Fatal("header mismatch")
		}
		if v.Index != i {
			t.Fatalf("index %d, want %d", v.Index, i)
		}
		tx, meta := p.Txs[i], p.Metas[i]
		if v.Type() != tx.Type || v.Account() != tx.Account ||
			v.Sequence() != tx.Sequence || v.Fee() != tx.Fee ||
			v.Destination() != tx.Destination || v.Currency() != tx.Amount.Currency {
			t.Fatalf("tx %d: view fields differ from decoded tx", i)
		}
		av, err := v.AmountValue()
		if err != nil || !av.Equal(tx.Amount.Value) {
			t.Fatalf("tx %d: amount %v (err %v), want %v", i, av, err, tx.Amount.Value)
		}
		if v.Result() != meta.Result || v.OffersConsumed() != meta.OffersConsumed ||
			v.CrossCurrency() != meta.CrossCurrency {
			t.Fatalf("tx %d: view meta fields differ", i)
		}
		if hops := v.PathHops(); !bytes.Equal(hops, meta.PathHops) {
			t.Fatalf("tx %d: hops %v, want %v", i, hops, meta.PathHops)
		}
		// Raw slices must be exact record encodings.
		if fullTx, _, err := decodeTx(v.Tx); err != nil || !reflect.DeepEqual(fullTx, tx) {
			t.Fatalf("tx %d: decodeTx of the view's record differs (err %v)", i, err)
		}
		if fullMeta, _, err := decodeMeta(v.Meta); err != nil || !reflect.DeepEqual(fullMeta, meta) {
			t.Fatalf("tx %d: decodeMeta of the view's record differs (err %v)", i, err)
		}
		i++
	}
	if i != len(p.Txs) {
		t.Fatalf("visited %d txs, want %d", i, len(p.Txs))
	}
	if used := it.Used(); used != len(data) {
		t.Fatalf("consumed %d of %d bytes", used, len(data))
	}
}

// projectPayments is the reference projection: full decode, then the
// exact filter deanon.FromTransaction applies.
func projectPayments(p *Page) []PaymentView {
	var out []PaymentView
	for i, tx := range p.Txs {
		m := p.Metas[i]
		if tx.Type != TxPayment || !m.Result.Succeeded() {
			continue
		}
		out = append(out, PaymentView{
			Seq:            p.Header.Sequence,
			Time:           p.Header.CloseTime,
			Index:          i,
			Sender:         tx.Account,
			Destination:    tx.Destination,
			Currency:       tx.Amount.Currency,
			Amount:         tx.Amount.Value,
			ParallelPaths:  m.ParallelPaths(),
			MaxHops:        m.MaxHops(),
			OffersConsumed: m.OffersConsumed,
			CrossCurrency:  m.CrossCurrency,
		})
	}
	return out
}

// Differential: ScanPayments must yield exactly the payments the full
// decode path projects, field for field.
func TestScanPaymentsMatchesDecodePage(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	for trial := 0; trial < 30; trial++ {
		p := randomScanPage(r, uint64(trial+1), r.Intn(10))
		data := p.Encode(nil)
		want := projectPayments(p)
		var got []PaymentView
		used, err := ScanPayments(data, func(pv *PaymentView) error {
			got = append(got, *pv) // the view is reused; copy it
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if used != len(data) {
			t.Fatalf("trial %d: consumed %d of %d bytes", trial, used, len(data))
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: projection mismatch:\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

func TestScanPaymentsAllPrefixesFail(t *testing.T) {
	r := rand.New(rand.NewSource(25))
	p := randomScanPage(r, 4, 2)
	data := p.Encode(nil)
	for cut := 0; cut < len(data); cut++ {
		if _, err := ScanPayments(data[:cut], nil); err == nil {
			t.Fatalf("prefix of %d/%d bytes scanned successfully", cut, len(data))
		}
	}
}

func TestScanCallbackErrorsPropagate(t *testing.T) {
	r := rand.New(rand.NewSource(26))
	p := randomScanPage(r, 4, 6)
	// Force at least one payment so the ScanPayments callback fires.
	p.Txs[0].Type = TxPayment
	p.Metas[0].Result = ResultSuccess
	p.Header.TxSetHash = TxSetHash(p.Txs)
	data := p.Encode(nil)
	sentinel := ErrTruncated // any distinguishable error
	if _, err := ScanPayments(data, func(*PaymentView) error { return sentinel }); err != sentinel {
		t.Errorf("ScanPayments error = %v, want sentinel", err)
	}
}

// seedScanCorpus adds valid page encodings (plus light mutations of
// them, contributed by the fuzzer itself at runtime) to a fuzz corpus.
func seedScanCorpus(f *testing.F) {
	r := rand.New(rand.NewSource(30))
	f.Add([]byte{})
	f.Add(Genesis("main", 0).Encode(nil))
	for _, n := range []int{0, 1, 3, 7} {
		f.Add(randomScanPage(r, uint64(n+1), n).Encode(nil))
	}
	// A non-canonical flag byte: the last meta's CrossCurrency byte
	// (just before its empty intermediary count) set to 2.
	p := randomScanPage(r, 9, 1)
	p.Metas[0].Intermediaries = nil
	enc := p.Encode(nil)
	enc[len(enc)-3] = 2
	f.Add(enc)
}

// FuzzScanPayments checks the zero-copy scan against the full decoder
// on arbitrary input: it must never panic, must accept whatever
// DecodePageInto accepts (with an identical projection), and must not
// consume a different byte count.
func FuzzScanPayments(f *testing.F) {
	seedScanCorpus(f)
	var a PageArena
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []PaymentView
		used, err := ScanPayments(data, func(pv *PaymentView) error {
			got = append(got, *pv)
			return nil
		})
		p, wantUsed, perr := DecodePageInto(data, &a)
		if perr != nil {
			// ScanPayments validates framing only, so it may accept
			// inputs whose field contents the full decoder rejects —
			// but not the other way around (checked below).
			return
		}
		if err != nil {
			t.Fatalf("DecodePageInto accepted input ScanPayments rejected: %v", err)
		}
		if used != wantUsed {
			t.Fatalf("consumed %d bytes, DecodePageInto consumed %d", used, wantUsed)
		}
		if want := projectPayments(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("projection mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	})
}

// FuzzDecodePageInto checks the page decoder on arbitrary input: a
// reused arena and a fresh one make the same accept/reject decision,
// the same page and the same byte count, with no panic; and a decoded
// page survives Encode and a second decode unchanged. The comparison is
// of pages, not bytes: the decoder accepts non-canonical encodings (a
// CrossCurrency flag byte of 2 reads as false and encodes back as 0).
func FuzzDecodePageInto(f *testing.F) {
	seedScanCorpus(f)
	var a PageArena
	f.Fuzz(func(t *testing.T, data []byte) {
		got, used, err := DecodePageInto(data, &a)
		want, wantUsed, werr := DecodePageInto(data, new(PageArena))
		if (err == nil) != (werr == nil) {
			t.Fatalf("reused arena err %v, fresh arena err %v", err, werr)
		}
		if err != nil {
			return
		}
		if used != wantUsed {
			t.Fatalf("consumed %d bytes, a fresh arena consumed %d", used, wantUsed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("reused-arena decode differs from a fresh arena's")
		}
		enc := want.Encode(nil)
		back, backUsed, err := DecodePageInto(enc, new(PageArena))
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		if backUsed != len(enc) {
			t.Fatalf("re-encoded page: consumed %d of %d bytes", backUsed, len(enc))
		}
		if !reflect.DeepEqual(want, back) {
			t.Fatal("decode(Encode(page)) differs from page")
		}
	})
}

// TestFixedOffsetsMatchEncoding pins every constant offset of the
// transaction and meta layouts — the ones the scan reads and the ones
// that only document the layout — against the field Encode and
// EncodeMeta write there, with each field holding a distinct value.
func TestFixedOffsetsMatchEncoding(t *testing.T) {
	tx := &Tx{
		Type:            TxOfferCreate,
		Account:         addr.KeyPairFromSeed(1).AccountID(),
		Sequence:        0x01020304,
		Fee:             0x05060708090a0b0c,
		Destination:     addr.KeyPairFromSeed(2).AccountID(),
		Amount:          amount.New(amount.USD, amount.MustValue(12345, -2)),
		DestIssuer:      addr.KeyPairFromSeed(3).AccountID(),
		SendMax:         amount.New(amount.EUR, amount.MustValue(-678, 1)),
		SendIssuer:      addr.KeyPairFromSeed(4).AccountID(),
		TakerPays:       amount.New(amount.BTC, amount.MustValue(9, 0)),
		TakerPaysIssuer: addr.KeyPairFromSeed(5).AccountID(),
		TakerGets:       amount.New(amount.CNY, amount.MustValue(11, 3)),
		TakerGetsIssuer: addr.KeyPairFromSeed(6).AccountID(),
		OfferSequence:   0x0d0e0f10,
		LimitPeer:       addr.KeyPairFromSeed(7).AccountID(),
		Limit:           amount.New(amount.XRP, amount.MustValue(13, 0)),
		SigningKey:      []byte{1, 2, 3},
		Signature:       []byte{4, 5, 6, 7, 8},
	}
	b := tx.Encode(nil)
	amountAt := func(buf []byte, off int) amount.Amount {
		t.Helper()
		var c amount.Currency
		copy(c[:], buf[off:])
		v, err := decodeValueAt(buf, off+3)
		if err != nil {
			t.Fatalf("amount at %d: %v", off, err)
		}
		return amount.New(c, v)
	}
	if got := TxType(b[txOffType]); got != tx.Type {
		t.Errorf("txOffType reads %v, want %v", got, tx.Type)
	}
	if !bytes.Equal(b[txOffAccount:txOffAccount+20], tx.Account[:]) {
		t.Error("txOffAccount does not read the sender")
	}
	if got := binary.BigEndian.Uint32(b[txOffSequence:]); got != tx.Sequence {
		t.Errorf("txOffSequence reads %#x, want %#x", got, tx.Sequence)
	}
	if got := amount.Drops(binary.BigEndian.Uint64(b[txOffFee:])); got != tx.Fee {
		t.Errorf("txOffFee reads %#x, want %#x", got, tx.Fee)
	}
	if !bytes.Equal(b[txOffDestination:txOffDestination+20], tx.Destination[:]) {
		t.Error("txOffDestination does not read the destination")
	}
	if got := amountAt(b, txOffAmount); got != tx.Amount {
		t.Errorf("txOffAmount reads %s, want %s", got, tx.Amount)
	}
	if got := amountAt(b, txOffSendMax); got != tx.SendMax {
		t.Errorf("txOffSendMax reads %s, want %s", got, tx.SendMax)
	}
	if got := int(binary.BigEndian.Uint16(b[txFixedBytes:])); got != len(tx.SigningKey) {
		t.Errorf("txFixedBytes reads a signing-key length of %d, want %d", got, len(tx.SigningKey))
	}
	if want := txFixedBytes + 2 + len(tx.SigningKey) + 2 + len(tx.Signature); len(b) != want {
		t.Errorf("encoded tx is %d bytes, want %d", len(b), want)
	}

	m := &TxMeta{
		Result:         ResultPathDry,
		Delivered:      amount.New(amount.USD, amount.MustValue(-4321, -3)),
		PathHops:       []uint8{3, 1, 4},
		OffersConsumed: 0x11121314,
		CrossCurrency:  true,
		Intermediaries: []addr.AccountID{addr.KeyPairFromSeed(8).AccountID(), addr.KeyPairFromSeed(9).AccountID()},
	}
	mb := m.EncodeMeta(nil)
	if got := TxResult(mb[metaOffResult]); got != m.Result {
		t.Errorf("metaOffResult reads %v, want %v", got, m.Result)
	}
	if got := amountAt(mb, metaOffDelivered); got != m.Delivered {
		t.Errorf("metaOffDelivered reads %s, want %s", got, m.Delivered)
	}
	n := int(mb[metaOffNPaths])
	if n != len(m.PathHops) || !bytes.Equal(mb[metaOffNPaths+1:metaOffNPaths+1+n], m.PathHops) {
		t.Errorf("metaOffNPaths reads %d hops %v, want %v", n, mb[metaOffNPaths+1:metaOffNPaths+1+n], m.PathHops)
	}
	tail := mb[metaOffNPaths+1+n:]
	if got := binary.BigEndian.Uint32(tail); got != m.OffersConsumed {
		t.Errorf("offers consumed reads %#x, want %#x", got, m.OffersConsumed)
	}
	if tail[4] != 1 {
		t.Errorf("cross-currency byte reads %d, want 1", tail[4])
	}
	if got := int(binary.BigEndian.Uint16(tail[5:])); got != len(m.Intermediaries) {
		t.Errorf("intermediary count reads %d, want %d", got, len(m.Intermediaries))
	}
	if want := metaOffNPaths + 1 + n + metaFixedTail + 20*len(m.Intermediaries); len(mb) != want {
		t.Errorf("encoded meta is %d bytes, want %d", len(mb), want)
	}
	if got := len((&TxMeta{}).EncodeMeta(nil)); got != metaMinBytes {
		t.Errorf("an empty meta encodes to %d bytes, metaMinBytes is %d", got, metaMinBytes)
	}
}
