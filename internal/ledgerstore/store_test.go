package ledgerstore

import (
	"bufio"
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// buildPage assembles a consistent page with n payment transactions.
func buildPage(seq uint64, parent ledger.Hash, n int, r *rand.Rand) *ledger.Page {
	txs := make([]*ledger.Tx, 0, n)
	metas := make([]*ledger.TxMeta, 0, n)
	for i := 0; i < n; i++ {
		kp := addr.KeyPairFromSeed(r.Uint64())
		tx := &ledger.Tx{
			Type:        ledger.TxPayment,
			Account:     kp.AccountID(),
			Sequence:    uint32(i + 1),
			Fee:         10,
			Destination: addr.KeyPairFromSeed(r.Uint64()).AccountID(),
			Amount:      amount.New(amount.USD, amount.MustValue(int64(r.Intn(10000)+1), -2)),
		}
		tx.Sign(kp)
		txs = append(txs, tx)
		metas = append(metas, &ledger.TxMeta{Result: ledger.ResultSuccess, Delivered: tx.Amount})
	}
	return &ledger.Page{
		Header: ledger.PageHeader{
			Sequence:   seq,
			ParentHash: parent,
			TxSetHash:  ledger.TxSetHash(txs),
			StateHash:  ledger.SHA512Half([]byte{byte(seq)}),
			CloseTime:  ledger.CloseTime(seq * 5),
			TotalDrops: ledger.GenesisTotalDrops,
		},
		Txs:   txs,
		Metas: metas,
	}
}

func writeStore(t *testing.T, dir string, pages int, txPerPage int, opts ...Option) []*ledger.Page {
	t.Helper()
	s, err := Create(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(42))
	var out []*ledger.Page
	parent := ledger.Hash{}
	for i := 1; i <= pages; i++ {
		p := buildPage(uint64(i), parent, txPerPage, r)
		parent = p.Header.Hash()
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
		out = append(out, p)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := writeStore(t, dir, 10, 3)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []*ledger.Page
	if err := s.Pages(func(p *ledger.Page) error {
		got = append(got, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("read %d pages, wrote %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Header.Hash() != want[i].Header.Hash() {
			t.Errorf("page %d hash mismatch", i)
		}
		if len(got[i].Txs) != len(want[i].Txs) {
			t.Errorf("page %d: %d txs, want %d", i, len(got[i].Txs), len(want[i].Txs))
		}
	}
}

func TestStoreSegmentRollover(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force one page per segment.
	writeStore(t, dir, 5, 2, WithSegmentBytes(1))
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 5 {
		t.Fatalf("got %d segments, want 5", len(segs))
	}
	// Order must survive the multi-segment layout.
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	if err := s.Pages(func(p *ledger.Page) error {
		seqs = append(seqs, p.Header.Sequence)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("page order broken: %v", seqs)
		}
	}
}

func TestStoreAppendAfterOpen(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3, 1)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	if err := s.Append(buildPage(4, ledger.Hash{}, 1, r)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 4 {
		t.Fatalf("got %d pages after reopen+append, want 4", st.Pages)
	}
}

func TestStoreStats(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 6, 4)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Pages != 6 || st.Transactions != 24 || st.Payments != 24 {
		t.Errorf("stats = %+v", st)
	}
	if st.FirstSeq != 1 || st.LastSeq != 6 {
		t.Errorf("sequence range %d..%d, want 1..6", st.FirstSeq, st.LastSeq)
	}
	if st.Bytes == 0 || st.Segments == 0 {
		t.Errorf("stats missing size info: %+v", st)
	}
}

func TestStoreCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3, 2)
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	data[10] ^= 0xff
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Pages(func(*ledger.Page) error { return nil })
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestStoreTruncatedTailTolerated(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3, 2)
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	last := segs[len(segs)-1]
	info, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, info.Size()-5); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if err := s.Pages(func(*ledger.Page) error { count++; return nil }); err != nil {
		t.Fatalf("truncated tail should be tolerated, got %v", err)
	}
	if count != 2 {
		t.Fatalf("read %d pages from truncated store, want 2", count)
	}
}

func TestCreateRefusesNonEmpty(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 1, 1)
	if _, err := Create(dir); err == nil {
		t.Error("Create on a populated directory: want error")
	}
}

func TestOpenRequiresSegments(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Error("Open on an empty directory: want error")
	}
	if _, err := Open(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("Open on a missing directory: want error")
	}
}

func TestVerifyIntegrityHealthy(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 8, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pages != 8 || !rep.ChainOK || rep.PageErrors != 0 {
		t.Errorf("report = %+v", rep)
	}
}

func TestVerifyIntegrityDetectsBrokenChain(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(3))
	p1 := buildPage(1, ledger.Hash{}, 1, r)
	p2 := buildPage(2, ledger.Hash{0xba, 0xd0}, 1, r) // wrong parent
	if err := s.Append(p1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(p2); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChainOK {
		t.Error("broken linkage not detected")
	}
	if rep.BrokenAt != 2 {
		t.Errorf("BrokenAt = %d, want 2", rep.BrokenAt)
	}
}

func TestVerifyIntegrityDetectsCorruptPage(t *testing.T) {
	dir := t.TempDir()
	s, err := Create(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(4))
	p := buildPage(1, ledger.Hash{}, 2, r)
	p.Header.TxSetHash = ledger.Hash{1} // internal inconsistency
	if err := s.Append(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := s.VerifyIntegrity()
	if err != nil {
		t.Fatal(err)
	}
	if rep.PageErrors != 1 {
		t.Errorf("PageErrors = %d, want 1", rep.PageErrors)
	}
}

func TestExportJSON(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3, 2)
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.ExportJSON(&buf); err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		lines++
		if !strings.Contains(sc.Text(), `"sequence"`) {
			t.Error("JSON line missing header fields")
		}
	}
	if lines != 3 {
		t.Fatalf("exported %d JSON lines, want 3", lines)
	}
}
