package ledger

import (
	"bytes"
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

// Differential: DecodePageInto must be bit-identical to DecodePage,
// including across arena reuse and slab growth.
func TestDecodePageIntoMatchesDecodePage(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	var a PageArena
	for i := 0; i < 40; i++ {
		p := randomScanPage(r, uint64(i+1), r.Intn(12)) // includes empty pages
		data := p.Encode(nil)
		want, wantUsed, err := DecodePage(data)
		if err != nil {
			t.Fatal(err)
		}
		got, used, err := DecodePageInto(data, &a)
		if err != nil {
			t.Fatalf("page %d: %v", i, err)
		}
		if used != wantUsed {
			t.Fatalf("page %d: consumed %d, DecodePage consumed %d", i, used, wantUsed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("page %d: arena decode differs from DecodePage", i)
		}
	}
}

// Arena truncation behavior must match DecodePage: every strict prefix
// fails.
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

// Differential: VisitTxs field accessors must agree with the fully
// decoded page on every transaction.
func TestVisitTxsMatchesDecodePage(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	p := randomScanPage(r, 5, 8)
	data := p.Encode(nil)
	i := 0
	used, err := VisitTxs(data, func(hdr *PageHeader, v *TxView) error {
		if *hdr != p.Header {
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
		if fullTx, _, err := DecodeTx(v.Tx); err != nil || !reflect.DeepEqual(fullTx, tx) {
			t.Fatalf("tx %d: DecodeTx from view differs (err %v)", i, err)
		}
		if fullMeta, _, err := DecodeMeta(v.Meta); err != nil || !reflect.DeepEqual(fullMeta, meta) {
			t.Fatalf("tx %d: DecodeMeta from view differs (err %v)", i, err)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(p.Txs) {
		t.Fatalf("visited %d txs, want %d", i, len(p.Txs))
	}
	if used != len(data) {
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
	if _, err := VisitTxs(data, func(*PageHeader, *TxView) error { return sentinel }); err != sentinel {
		t.Errorf("VisitTxs error = %v, want sentinel", err)
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
}

// FuzzScanPayments checks the zero-copy scan against the full decoder
// on arbitrary input: it must never panic, must accept whatever
// DecodePage accepts (with an identical projection), and must not
// consume a different byte count.
func FuzzScanPayments(f *testing.F) {
	seedScanCorpus(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got []PaymentView
		used, err := ScanPayments(data, func(pv *PaymentView) error {
			got = append(got, *pv)
			return nil
		})
		p, wantUsed, perr := DecodePage(data)
		if perr != nil {
			// ScanPayments validates framing only, so it may accept
			// inputs whose field contents the full decoder rejects —
			// but not the other way around (checked below).
			return
		}
		if err != nil {
			t.Fatalf("DecodePage accepted input ScanPayments rejected: %v", err)
		}
		if used != wantUsed {
			t.Fatalf("consumed %d bytes, DecodePage consumed %d", used, wantUsed)
		}
		if want := projectPayments(p); !reflect.DeepEqual(want, got) {
			t.Fatalf("projection mismatch:\nwant %+v\ngot  %+v", want, got)
		}
	})
}

// FuzzDecodePageInto checks the arena decoder against DecodePage on
// arbitrary input: same accept/reject decision, same result, same byte
// count — and no panic, even with a reused arena.
func FuzzDecodePageInto(f *testing.F) {
	seedScanCorpus(f)
	var a PageArena
	f.Fuzz(func(t *testing.T, data []byte) {
		got, used, err := DecodePageInto(data, &a)
		want, wantUsed, werr := DecodePage(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("arena err %v, DecodePage err %v", err, werr)
		}
		if err != nil {
			return
		}
		if used != wantUsed {
			t.Fatalf("consumed %d bytes, DecodePage consumed %d", used, wantUsed)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatal("arena decode differs from DecodePage")
		}
	})
}
