package ledger

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

func TestHashBasics(t *testing.T) {
	h := SHA512Half([]byte("hello"))
	if h.IsZero() {
		t.Fatal("SHA512Half returned zero hash")
	}
	if h == SHA512Half([]byte("world")) {
		t.Error("distinct inputs produced equal hashes")
	}
	s := h.String()
	if len(s) != 64 {
		t.Fatalf("hash string length %d, want 64", len(s))
	}
	if strings.ToUpper(s) != s {
		t.Error("hash string is not uppercase")
	}
	back, err := ParseHash(s)
	if err != nil {
		t.Fatal(err)
	}
	if back != h {
		t.Error("hash does not round trip through hex")
	}
	if _, err := ParseHash("zz"); err == nil {
		t.Error("short hash accepted")
	}
	if _, err := ParseHash(strings.Repeat("g", 64)); err == nil {
		t.Error("non-hex hash accepted")
	}
	if h.Short() != s[:8] {
		t.Error("Short() is not the 8-char prefix")
	}
}

// TestHashUnmarshalText: the decoder behind ParseHash and every JSON
// hash takes 64 hex digits of either case and nothing else, leaves its
// receiver alone on refusal, and allocates nothing on success (the
// stream decoder calls it per event).
func TestHashUnmarshalText(t *testing.T) {
	h := SHA512Half([]byte("hello"))
	before := SHA512Half([]byte("before"))
	for text, ok := range map[string]bool{
		h.String(): true, strings.ToLower(h.String()): true,
		"": false, "zz": false, h.String()[:63]: false, h.String() + "0": false,
		strings.Repeat("g", 64): false, h.String()[:63] + "\n": false, h.String()[:62] + "é": false,
	} {
		got := before
		err := got.UnmarshalText([]byte(text))
		if want := map[bool]Hash{true: h, false: before}[ok]; (err == nil) != ok || got != want {
			t.Errorf("%q: err=%v, receiver %v; want accepted=%v, receiver %v", text, err, got, ok, want)
		}
	}
	text := []byte(h.String())
	var got Hash
	if n := testing.AllocsPerRun(100, func() { _ = got.UnmarshalText(text) }); n != 0 {
		t.Errorf("UnmarshalText allocates %v times", n)
	}
}

func TestCloseTime(t *testing.T) {
	ref := time.Date(2015, 8, 24, 15, 41, 3, 0, time.UTC)
	ct := CloseTimeFromTime(ref)
	if !ct.Time().Equal(ref) {
		t.Errorf("close time round trip: %v -> %v", ref, ct.Time())
	}
	if got := ct.String(); got != "2015-08-24 15:41:03" {
		t.Errorf("CloseTime.String() = %q", got)
	}
	// Times before the Ripple epoch clamp to zero.
	if CloseTimeFromTime(time.Date(1999, 1, 1, 0, 0, 0, 0, time.UTC)) != 0 {
		t.Error("pre-epoch time did not clamp to 0")
	}
}

// decodeTx and decodeMeta decode one record into an arena of its own,
// the way DecodePageInto decodes each record of a page.
func decodeTx(data []byte) (*Tx, int, error) {
	tx := new(Tx)
	used, err := decodeTxInto(data, tx, new(PageArena))
	if err != nil {
		return nil, 0, err
	}
	return tx, used, nil
}

func decodeMeta(data []byte) (*TxMeta, int, error) {
	m := new(TxMeta)
	used, err := decodeMetaInto(data, m, new(PageArena))
	if err != nil {
		return nil, 0, err
	}
	return m, used, nil
}

func randomTx(r *rand.Rand) *Tx {
	kp := addr.KeyPairFromSeed(r.Uint64())
	dest := addr.KeyPairFromSeed(r.Uint64())
	tx := &Tx{
		Type:        TxType(r.Intn(5) + 1),
		Account:     kp.AccountID(),
		Sequence:    r.Uint32(),
		Fee:         amount.Drops(r.Intn(100) + 10),
		Destination: dest.AccountID(),
		Amount:      amount.New(amount.USD, amount.MustValue(int64(r.Intn(100000)+1), -2)),
		SendMax:     amount.New(amount.EUR, amount.MustValue(int64(r.Intn(100000)+1), -2)),
		TakerPays:   amount.New(amount.BTC, amount.MustValue(int64(r.Intn(1000)+1), -4)),
		TakerGets:   amount.New(amount.XRP, amount.MustValue(int64(r.Intn(1000000)+1), -6)),
		LimitPeer:   dest.AccountID(),
		Limit:       amount.New(amount.USD, amount.FromInt64(int64(r.Intn(1000)))),
	}
	tx.Sign(kp)
	return tx
}

func TestTxEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		tx := randomTx(r)
		data := tx.Encode(nil)
		back, used, err := decodeTx(data)
		if err != nil {
			t.Fatalf("tx %d: decode: %v", i, err)
		}
		if used != len(data) {
			t.Fatalf("tx %d: consumed %d of %d bytes", i, used, len(data))
		}
		if !reflect.DeepEqual(tx, back) {
			t.Fatalf("tx %d: round trip mismatch:\n%+v\n%+v", i, tx, back)
		}
		if tx.Hash() != back.Hash() {
			t.Fatalf("tx %d: hash changed across round trip", i)
		}
	}
}

func TestTxDecodeTruncated(t *testing.T) {
	tx := randomTx(rand.New(rand.NewSource(2)))
	data := tx.Encode(nil)
	for _, cut := range []int{0, 1, 10, len(data) / 2, len(data) - 1} {
		if _, _, err := decodeTx(data[:cut]); err == nil {
			t.Errorf("decoding %d-byte prefix succeeded", cut)
		}
	}
}

func TestTxDecodeBadVersion(t *testing.T) {
	tx := randomTx(rand.New(rand.NewSource(3)))
	data := tx.Encode(nil)
	data[0] = 99
	if _, _, err := decodeTx(data); err == nil {
		t.Error("bad codec version accepted")
	}
}

func TestTxSignVerify(t *testing.T) {
	kp := addr.KeyPairFromSeed(77)
	tx := &Tx{
		Type:        TxPayment,
		Account:     kp.AccountID(),
		Sequence:    1,
		Fee:         10,
		Destination: addr.KeyPairFromSeed(78).AccountID(),
		Amount:      amount.MustAmount("4.5/USD"),
	}
	if tx.VerifySignature() {
		t.Error("unsigned transaction verified")
	}
	tx.Sign(kp)
	if !tx.VerifySignature() {
		t.Error("signed transaction did not verify")
	}
	// Tampering invalidates the signature.
	tx.Amount = amount.MustAmount("1000000/USD")
	if tx.VerifySignature() {
		t.Error("tampered transaction verified")
	}
	// Signing key must match the sending account.
	tx.Amount = amount.MustAmount("4.5/USD")
	tx.Sign(addr.KeyPairFromSeed(79))
	if tx.VerifySignature() {
		t.Error("transaction signed by a different account verified")
	}
}

func TestTxHashCoversSignature(t *testing.T) {
	kp := addr.KeyPairFromSeed(80)
	tx := &Tx{Type: TxPayment, Account: kp.AccountID(), Sequence: 1, Fee: 10}
	unsigned := tx.Hash()
	tx.Sign(kp)
	if tx.Hash() == unsigned {
		t.Error("tx hash did not change after signing")
	}
}

func TestMetaRoundTrip(t *testing.T) {
	m := &TxMeta{
		Result:         ResultSuccess,
		Delivered:      amount.MustAmount("4.5/USD"),
		PathHops:       []uint8{2, 3, 2, 8},
		OffersConsumed: 5,
		CrossCurrency:  true,
		Intermediaries: []addr.AccountID{
			addr.KeyPairFromSeed(1).AccountID(),
			addr.KeyPairFromSeed(2).AccountID(),
		},
	}
	data := m.EncodeMeta(nil)
	back, used, err := decodeMeta(data)
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Fatalf("consumed %d of %d bytes", used, len(data))
	}
	if !reflect.DeepEqual(m, back) {
		t.Fatalf("meta round trip mismatch:\n%+v\n%+v", m, back)
	}
	if back.ParallelPaths() != 4 || back.MaxHops() != 8 {
		t.Errorf("ParallelPaths=%d MaxHops=%d, want 4 and 8", back.ParallelPaths(), back.MaxHops())
	}
}

func TestPageEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	txs := []*Tx{randomTx(r), randomTx(r), randomTx(r)}
	metas := []*TxMeta{
		{Result: ResultSuccess, Delivered: amount.MustAmount("1/USD"), PathHops: []uint8{1}},
		{Result: ResultPathDry},
		{Result: ResultSuccess, Delivered: amount.MustAmount("2/XRP")},
	}
	p := &Page{
		Header: PageHeader{
			Sequence:   42,
			ParentHash: SHA512Half([]byte("parent")),
			TxSetHash:  TxSetHash(txs),
			StateHash:  SHA512Half([]byte("state")),
			CloseTime:  CloseTimeFromTime(time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)),
			TotalDrops: GenesisTotalDrops - 1000,
		},
		Txs:   txs,
		Metas: metas,
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	data := p.Encode(nil)
	back, used, err := DecodePageInto(data, new(PageArena))
	if err != nil {
		t.Fatal(err)
	}
	if used != len(data) {
		t.Fatalf("consumed %d of %d bytes", used, len(data))
	}
	if !reflect.DeepEqual(p, back) {
		t.Fatal("page round trip mismatch")
	}
	if p.Header.Hash() != back.Header.Hash() {
		t.Error("page hash changed across round trip")
	}
}

func TestPageValidateCatchesMismatches(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	txs := []*Tx{randomTx(r)}
	p := &Page{
		Header: PageHeader{Sequence: 2, TxSetHash: TxSetHash(txs)},
		Txs:    txs,
		Metas:  nil, // parity violation
	}
	if err := p.Validate(); err == nil {
		t.Error("meta/tx parity violation not caught")
	}
	p.Metas = []*TxMeta{{Result: ResultSuccess}}
	p.Header.TxSetHash = Hash{}
	if err := p.Validate(); err == nil {
		t.Error("tx set hash mismatch not caught")
	}
}

func TestChainAppend(t *testing.T) {
	g := Genesis("main", 0)
	c := NewChain(g)
	if c.Len() != 1 || c.Tip() != g {
		t.Fatal("fresh chain is malformed")
	}
	next := &Page{
		Header: PageHeader{
			Sequence:   2,
			ParentHash: g.Header.Hash(),
			TxSetHash:  TxSetHash(nil),
			StateHash:  SHA512Half([]byte("s2")),
			CloseTime:  5,
			TotalDrops: GenesisTotalDrops,
		},
	}
	if err := c.Append(next); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Tip() != next {
		t.Error("append did not extend the chain")
	}

	// Wrong sequence.
	bad := &Page{Header: PageHeader{Sequence: 7, ParentHash: next.Header.Hash(), TxSetHash: TxSetHash(nil)}}
	if err := c.Append(bad); err == nil {
		t.Error("wrong sequence accepted")
	}
	// Wrong parent.
	bad = &Page{Header: PageHeader{Sequence: 3, ParentHash: Hash{1}, TxSetHash: TxSetHash(nil)}}
	if err := c.Append(bad); err == nil {
		t.Error("wrong parent hash accepted")
	}
}

func TestGenesisChainsDiffer(t *testing.T) {
	main := Genesis("main", 0)
	test := Genesis("testnet", 0)
	if main.Header.Hash() == test.Header.Hash() {
		t.Error("main and testnet genesis pages hash identically")
	}
}

func TestTxTypeAndResultStrings(t *testing.T) {
	if TxPayment.String() != "Payment" || TxTrustSet.String() != "TrustSet" {
		t.Error("TxType strings wrong")
	}
	if !strings.Contains(TxType(99).String(), "99") {
		t.Error("unknown TxType string should include the numeric value")
	}
	if ResultSuccess.String() != "tesSUCCESS" || !ResultSuccess.Succeeded() {
		t.Error("ResultSuccess misbehaves")
	}
	if ResultPathDry.Succeeded() {
		t.Error("ResultPathDry reports success")
	}
	if !strings.Contains(TxResult(99).String(), "99") {
		t.Error("unknown TxResult string should include the numeric value")
	}
}

// TestTxHashAllocs pins that hashing a signed transaction builds its
// serialization on the stack: every submitted and every applied
// transaction is hashed, and the encoder used to grow a heap buffer for
// each (6 allocations, 752 B).
func TestTxHashAllocs(t *testing.T) {
	tx := randomTx(rand.New(rand.NewSource(18)))
	want := SHA512Half(tx.Encode(nil))
	allocs := testing.AllocsPerRun(200, func() {
		if tx.Hash() != want {
			t.Fatal("Hash differs from SHA512Half(Encode)")
		}
	})
	if allocs > 0 {
		t.Errorf("Tx.Hash allocates %.1f per call, want 0", allocs)
	}
	// A signature too long for the stack buffer spills, and hashes alike.
	tx.Signature = make([]byte, 700)
	if tx.Hash() != SHA512Half(tx.Encode(nil)) {
		t.Error("Hash of an oversized transaction differs from SHA512Half(Encode)")
	}
}
