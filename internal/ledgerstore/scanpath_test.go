package ledgerstore

import (
	"bufio"
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"ripplestudy/internal/faultnet"
	"ripplestudy/internal/ledger"
)

// collectPages reads the whole store through Pages into a slice.
func collectPages(t *testing.T, s *Store) []*ledger.Page {
	t.Helper()
	var out []*ledger.Page
	if err := s.Pages(func(p *ledger.Page) error {
		out = append(out, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMmapVsFileParity runs the same store through the mmap reader and
// the forced ReadFile fallback and requires bit-identical results —
// the build-tag fallback must not be a subtly different reader.
func TestMmapVsFileParity(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 17, 3, WithSegmentBytes(2048))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped := collectPages(t, s)
	forceFileRead = true
	defer func() { forceFileRead = false }()
	fallback := collectPages(t, s)
	if !reflect.DeepEqual(mapped, fallback) {
		t.Fatal("mmap and ReadFile paths decoded different pages")
	}
}

// writeLongSegments writes a store whose first segment spans more than
// three release strides: a few distinct transaction sets of different
// sizes, reused under a chain of headers, so records come in several
// lengths and land across the stride boundaries at varying offsets.
func writeLongSegments(t *testing.T, dir string) []*ledger.Page {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	var sets []*ledger.Page
	for _, n := range []int{3, 11, 17, 29, 41} {
		sets = append(sets, buildPage(1, ledger.Hash{}, n, r))
	}
	s, err := Create(dir, WithSegmentBytes(3*releaseStride+releaseStride/2))
	if err != nil {
		t.Fatal(err)
	}
	var pages []*ledger.Page
	parent := ledger.Hash{}
	for seq, size := uint64(1), 0; size < 5*releaseStride; seq++ {
		set := sets[int(seq*7)%len(sets)]
		p := &ledger.Page{Header: set.Header, Txs: set.Txs, Metas: set.Metas}
		p.Header.Sequence, p.Header.ParentHash, p.Header.CloseTime = seq, parent, ledger.CloseTime(seq*5)
		parent = p.Header.Hash()
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
		size += len(p.Encode(nil)) + 8
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return pages
}

// TestScanReleaseChangesNoByte runs a store whose first segment spans
// more than three release strides, with a record straddling a stride
// boundary, through PayloadsParallel, ScanPayments and Pages under the
// mmap reader (which releases the pages behind its cursor) and under
// the forced ReadFile fallback (which releases nothing): all three must
// yield byte-identical output from both, and the payloads must be the
// encodings of the pages written.
func TestScanReleaseChangesNoByte(t *testing.T) {
	dir := t.TempDir()
	written := writeLongSegments(t, dir)
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= 3*releaseStride {
		t.Fatalf("first segment holds %d bytes, not more than three strides of %d", len(raw), releaseStride)
	}
	straddles := 0
	for off := 0; off+4 <= len(raw); {
		end := off + 8 + int(binary.BigEndian.Uint32(raw[off:]))
		if off/releaseStride != (end-1)/releaseStride {
			straddles++
		}
		off = end
	}
	if straddles == 0 {
		t.Fatal("no record of the first segment straddles a stride boundary")
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	type scans struct {
		payloads []string
		payments []ledger.PaymentView
		pages    []ledger.Hash
	}
	run := func(fileRead bool) scans {
		forceFileRead = fileRead
		defer func() { forceFileRead = false }()
		var (
			out scans
			mu  sync.Mutex
		)
		if err := s.PayloadsParallel(context.Background(), 2, func(_ int, payload []byte) error {
			mu.Lock()
			out.payloads = append(out.payloads, string(payload))
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Strings(out.payloads)
		if err := s.ScanPayments(context.Background(), 2, func(_ int, pv *ledger.PaymentView) error {
			mu.Lock()
			out.payments = append(out.payments, *pv)
			mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		sort.Slice(out.payments, func(i, j int) bool {
			a, b := out.payments[i], out.payments[j]
			return a.Seq < b.Seq || a.Seq == b.Seq && a.Index < b.Index
		})
		if err := s.Pages(func(p *ledger.Page) error {
			out.pages = append(out.pages, pageDigest(p))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	mapped, fallback := run(false), run(true)

	var want []string
	for _, p := range written {
		want = append(want, string(p.Encode(nil)))
	}
	sort.Strings(want)
	if !reflect.DeepEqual(mapped.payloads, want) {
		t.Fatal("mmap PayloadsParallel payloads differ from the pages written")
	}
	if !reflect.DeepEqual(fallback.payloads, want) {
		t.Fatal("ReadFile PayloadsParallel payloads differ from the pages written")
	}
	if len(mapped.payments) == 0 || !reflect.DeepEqual(mapped.payments, fallback.payments) {
		t.Fatalf("ScanPayments differs between mmap (%d payments) and ReadFile (%d)", len(mapped.payments), len(fallback.payments))
	}
	var wantPages []ledger.Hash
	for _, p := range written {
		wantPages = append(wantPages, pageDigest(p))
	}
	if !reflect.DeepEqual(mapped.pages, wantPages) || !reflect.DeepEqual(fallback.pages, wantPages) {
		t.Fatalf("Pages differs from the pages written under mmap (%d pages) or ReadFile (%d); %d written", len(mapped.pages), len(fallback.pages), len(written))
	}
}

// TestOpenSegmentEmptyFile: a zero-byte segment (crash immediately
// after roll) cannot be mapped; the fallback must hand back zero
// records, not an error.
func TestOpenSegmentEmptyFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "segment-000001.rlst")
	if err := os.WriteFile(path, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	calls := 0
	if err := forEachRecord(path, func([]byte) error { calls++; return nil }); err != nil {
		t.Fatalf("forEachRecord on empty segment: %v", err)
	}
	if calls != 0 {
		t.Fatalf("empty segment yielded %d records", calls)
	}
}

// pageDigest fingerprints a page by its canonical encoding, so scans
// with incompatible retention contracts can still be compared.
func pageDigest(p *ledger.Page) ledger.Hash {
	return ledger.SHA512Half(p.Encode(nil))
}

// arenaPages decodes every record PayloadsParallel delivers into one
// reused arena per worker, with decodeRecord's one-page-per-record
// check — the way core's ecosystem scan reads a store.
func arenaPages(s *Store, workers int, fn func(w int, p *ledger.Page) error) error {
	arenas := make([]ledger.PageArena, workers)
	return s.PayloadsParallel(context.Background(), workers, func(w int, payload []byte) error {
		p, err := decodeRecord("payload", payload, &arenas[w])
		if err != nil {
			return err
		}
		return fn(w, p)
	})
}

// TestPagesArenaMatchesPages: the arena-decoded scan must see
// bit-identical pages — in Pages order on one worker, and as the same
// multiset of page-encoding digests (the arena contract forbids
// retaining the pages themselves) on four.
func TestPagesArenaMatchesPages(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 24, 3, WithSegmentBytes(4096))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := collectPages(t, s)
	i := 0
	err = arenaPages(s, 1, func(_ int, p *ledger.Page) error {
		if i >= len(want) {
			t.Fatal("arena scan yielded extra pages")
		}
		if !reflect.DeepEqual(want[i], p) {
			t.Fatalf("page %d differs between Pages and the arena scan", i)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(want) {
		t.Fatalf("arena scan saw %d pages, want %d", i, len(want))
	}

	var wantDigests, gotDigests []string
	for _, p := range want {
		wantDigests = append(wantDigests, pageDigest(p).String())
	}
	var mu sync.Mutex
	err = arenaPages(s, 4, func(_ int, p *ledger.Page) error {
		d := pageDigest(p).String()
		mu.Lock()
		gotDigests = append(gotDigests, d)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(wantDigests)
	sort.Strings(gotDigests)
	if !reflect.DeepEqual(gotDigests, wantDigests) {
		t.Fatal("parallel arena scan digests differ from Pages")
	}
}

// storePayments is the reference projection at store level: full
// decode, then the payment/success filter.
func storePayments(t *testing.T, s *Store) []ledger.PaymentView {
	t.Helper()
	var out []ledger.PaymentView
	if err := s.Pages(func(p *ledger.Page) error {
		for i, tx := range p.Txs {
			m := p.Metas[i]
			if tx.Type != ledger.TxPayment || !m.Result.Succeeded() {
				continue
			}
			out = append(out, ledger.PaymentView{
				Seq: p.Header.Sequence, Time: p.Header.CloseTime, Index: i,
				Sender: tx.Account, Destination: tx.Destination,
				Currency: tx.Amount.Currency, Amount: tx.Amount.Value,
				ParallelPaths: m.ParallelPaths(), MaxHops: m.MaxHops(),
				OffersConsumed: m.OffersConsumed, CrossCurrency: m.CrossCurrency,
			})
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestScanPaymentsMatchesPages: the store-level projection scan must
// yield exactly the payments the full decode path does.
func TestScanPaymentsMatchesPages(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 19, 5, WithSegmentBytes(4096))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := storePayments(t, s)
	var got []ledger.PaymentView
	err = s.ScanPayments(context.Background(), 1, func(w int, pv *ledger.PaymentView) error {
		got = append(got, *pv)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("projection scan mismatch: %d vs %d payments", len(want), len(got))
	}
	// And the multiset must survive parallel interleaving.
	var mu sync.Mutex
	var par []ledger.PaymentView
	err = s.ScanPayments(context.Background(), 4, func(w int, pv *ledger.PaymentView) error {
		mu.Lock()
		par = append(par, *pv)
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	byKey := func(vs []ledger.PaymentView) []ledger.PaymentView {
		out := append([]ledger.PaymentView(nil), vs...)
		sort.Slice(out, func(i, j int) bool {
			if out[i].Seq != out[j].Seq {
				return out[i].Seq < out[j].Seq
			}
			return out[i].Index < out[j].Index
		})
		return out
	}
	if !reflect.DeepEqual(byKey(want), byKey(par)) {
		t.Fatal("parallel projection multiset differs")
	}
}

func TestScanPaymentsStops(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 6, 3, WithSegmentBytes(4096))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	err = s.ScanPayments(context.Background(), 1, func(w int, pv *ledger.PaymentView) error {
		if n++; n == 5 {
			return errStop
		}
		return nil
	})
	if !errors.Is(err, errStop) {
		t.Fatalf("err = %v, want errStop unwrapped", err)
	}
	if n != 5 {
		t.Fatalf("scanned %d payments after stop, want 5", n)
	}
}

// TestScanPathsAgreeUnderFaultInjection corrupts well over 15% of the
// store's segments and requires every scan path — heap pages, arena
// pages over raw payloads, payment projection, each under both mmap and ReadFile — to
// fail or succeed identically, with identical surviving payments when
// the corruption only truncates framing.
func TestScanPathsAgreeUnderFaultInjection(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		dir := filepath.Join(t.TempDir(), "store")
		writeStore(t, dir, 20, 2, WithSegmentBytes(1)) // one page per segment
		segs, err := segmentFiles(dir)
		if err != nil {
			t.Fatal(err)
		}
		// Corrupt ~25% of segments: bit flips and tail truncations.
		r := rand.New(rand.NewSource(seed))
		for i, seg := range segs {
			if i%4 != int(seed)%4 {
				continue
			}
			if r.Intn(2) == 0 {
				if _, _, err := faultnet.FlipRandomBit(seg, seed+int64(i)); err != nil {
					t.Fatal(err)
				}
			} else if err := faultnet.TruncateTail(seg, int64(r.Intn(8)+1)); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}

		type outcome struct {
			payments []ledger.PaymentView
			errClass string
		}
		classify := func(err error) string {
			switch {
			case err == nil:
				return ""
			case errors.Is(err, ErrCorrupted):
				return "corrupted"
			default:
				// Pages names the segment and the arena scan does not;
				// the decoder's own error must still match.
				for errors.Unwrap(err) != nil {
					err = errors.Unwrap(err)
				}
				return "decode:" + err.Error()
			}
		}
		viaPages := func() outcome {
			var o outcome
			o.errClass = classify(s.Pages(func(p *ledger.Page) error {
				for i, tx := range p.Txs {
					if tx.Type == ledger.TxPayment && p.Metas[i].Result.Succeeded() {
						o.payments = append(o.payments, ledger.PaymentView{
							Seq: p.Header.Sequence, Time: p.Header.CloseTime, Index: i,
							Sender: tx.Account, Destination: tx.Destination,
							Currency: tx.Amount.Currency, Amount: tx.Amount.Value,
							ParallelPaths: p.Metas[i].ParallelPaths(), MaxHops: p.Metas[i].MaxHops(),
							OffersConsumed: p.Metas[i].OffersConsumed, CrossCurrency: p.Metas[i].CrossCurrency,
						})
					}
				}
				return nil
			}))
			return o
		}
		viaArena := func() outcome {
			var o outcome
			o.errClass = classify(arenaPages(s, 1, func(_ int, p *ledger.Page) error {
				for i, tx := range p.Txs {
					if tx.Type == ledger.TxPayment && p.Metas[i].Result.Succeeded() {
						o.payments = append(o.payments, ledger.PaymentView{
							Seq: p.Header.Sequence, Time: p.Header.CloseTime, Index: i,
							Sender: tx.Account, Destination: tx.Destination,
							Currency: tx.Amount.Currency, Amount: tx.Amount.Value,
							ParallelPaths: p.Metas[i].ParallelPaths(), MaxHops: p.Metas[i].MaxHops(),
							OffersConsumed: p.Metas[i].OffersConsumed, CrossCurrency: p.Metas[i].CrossCurrency,
						})
					}
				}
				return nil
			}))
			return o
		}
		viaScan := func() outcome {
			var o outcome
			o.errClass = classify(s.ScanPayments(context.Background(), 1, func(w int, pv *ledger.PaymentView) error {
				o.payments = append(o.payments, *pv)
				return nil
			}))
			return o
		}

		for _, fileRead := range []bool{false, true} {
			forceFileRead = fileRead
			ref := viaPages()
			for name, f := range map[string]func() outcome{"arena": viaArena, "scan": viaScan} {
				got := f()
				// The projection validates framing, not every field, so a
				// flip inside a skipped field may surface as a decode
				// error on the full paths only; both must still agree on
				// the payments seen before the divergence point.
				n := len(got.payments)
				if len(ref.payments) < n {
					n = len(ref.payments)
				}
				if !reflect.DeepEqual(ref.payments[:n], got.payments[:n]) {
					t.Fatalf("seed %d (fileRead=%v): %s path diverged on surviving payments", seed, fileRead, name)
				}
				if ref.errClass == "corrupted" && got.errClass != "corrupted" && name == "arena" {
					t.Fatalf("seed %d (fileRead=%v): arena path missed corruption: ref=%q got=%q",
						seed, fileRead, ref.errClass, got.errClass)
				}
				if ref.errClass == "" && got.errClass != "" {
					t.Fatalf("seed %d (fileRead=%v): %s failed where Pages succeeded: %q",
						seed, fileRead, name, got.errClass)
				}
			}
			// The full-decode paths must agree exactly, decoder error text
			// included.
			if got := viaArena(); got.errClass != ref.errClass || len(got.payments) != len(ref.payments) {
				t.Fatalf("seed %d (fileRead=%v): arena outcome %q/%d vs pages %q/%d",
					seed, fileRead, got.errClass, len(got.payments), ref.errClass, len(ref.payments))
			}
		}
		forceFileRead = false
	}
}

// TestSeqIndexCorruptSidecarSurfaced: a garbage sidecar must rebuild
// transparently but be reported, not silently swallowed (it used to
// be).
func TestSeqIndexCorruptSidecarSurfaced(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 10, 1, WithSegmentBytes(1024))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the sidecar, then corrupt it.
	if _, err := s.SegmentRanges(); err != nil {
		t.Fatal(err)
	}
	if rep := s.IndexReport(); rep.Corrupt {
		t.Fatalf("fresh sidecar reported corrupt: %+v", rep)
	}
	if err := os.WriteFile(filepath.Join(dir, SeqIndexFile), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Index.Present || !st.Index.Corrupt || st.Index.Error == "" {
		t.Fatalf("Stats did not surface corrupt sidecar: %+v", st.Index)
	}
	ranges, err := s.SegmentRanges()
	if err != nil {
		t.Fatal(err)
	}
	rep := s.IndexReport()
	if !rep.Corrupt || rep.Rebuilt != len(ranges) {
		t.Fatalf("rebuild after corrupt sidecar misreported: %+v (want Rebuilt=%d)", rep, len(ranges))
	}
	// The rewritten sidecar is healthy again.
	if _, err := s.SegmentRanges(); err != nil {
		t.Fatal(err)
	}
	if rep := s.IndexReport(); rep.Corrupt || rep.Rebuilt != 0 || !rep.Present {
		t.Fatalf("sidecar not healthy after rewrite: %+v", rep)
	}
}

// rangeDigests is the reference a range read is held to: the digests of
// the pages Pages delivers whose sequence lies in [lo, hi], in order.
func rangeDigests(t *testing.T, s *Store, lo, hi uint64) []ledger.Hash {
	t.Helper()
	var out []ledger.Hash
	for _, p := range collectPages(t, s) {
		if seq := p.Header.Sequence; seq >= lo && seq <= hi {
			out = append(out, pageDigest(p))
		}
	}
	return out
}

// TestPagesRangeRecycledOwnership: the ownership-transfer range reader
// must deliver bit-identical pages, and every retained page must stay
// intact until its release is called — even after later pages in the
// scan have been decoded (each page owns its own pooled arena).
func TestPagesRangeRecycledOwnership(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 30, 3, WithSegmentBytes(1500))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, rng := range [][2]uint64{{1, 30}, {7, 19}, {15, 15}, {25, 99}, {31, 40}} {
		want := rangeDigests(t, s, rng[0], rng[1])
		var (
			pages    []*ledger.Page
			releases []func()
		)
		err := s.PagesRangeRecycled(rng[0], rng[1], func(p *ledger.Page, release func()) error {
			pages = append(pages, p)
			releases = append(releases, release)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(pages) != len(want) {
			t.Fatalf("range %v: recycled saw %d pages, want %d", rng, len(pages), len(want))
		}
		for i, p := range pages {
			if pageDigest(p) != want[i] {
				t.Fatalf("range %v: retained page %d was clobbered before release", rng, i)
			}
		}
		for _, release := range releases {
			release()
		}
	}
	// After the releases above, a second scan runs on recycled arenas and
	// must still agree.
	var got []ledger.Hash
	err = s.PagesRangeRecycled(1, 30, func(p *ledger.Page, release func()) error {
		got = append(got, pageDigest(p))
		release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := rangeDigests(t, s, 1, 30); !reflect.DeepEqual(got, want) {
		t.Fatal("recycled rescan disagrees with Pages")
	}
}

// storeDigest fingerprints a store's full logical contents.
func storeDigest(t *testing.T, s *Store) ledger.Hash {
	t.Helper()
	var buf []byte
	if err := s.Pages(func(p *ledger.Page) error {
		buf = p.Encode(buf)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return ledger.SHA512Half(buf)
}

// TestExportJSONRoundTrip: the NDJSON interchange output must re-import
// to a store with an identical digest — the golden guarantee external
// tooling relies on.
func TestExportJSONRoundTrip(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 12, 4, WithSegmentBytes(4096))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := s.ExportJSON(&out); err != nil {
		t.Fatal(err)
	}
	redir := filepath.Join(t.TempDir(), "reimported")
	re, err := Create(redir)
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lines := 0
	for sc.Scan() {
		var p ledger.Page
		if err := json.Unmarshal(sc.Bytes(), &p); err != nil {
			t.Fatalf("line %d: %v", lines+1, err)
		}
		if err := re.Append(&p); err != nil {
			t.Fatal(err)
		}
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines != 12 {
		t.Fatalf("exported %d lines, want 12", lines)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if storeDigest(t, s) != storeDigest(t, re) {
		t.Fatal("re-imported store digest differs from original")
	}
}
