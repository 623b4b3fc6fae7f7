package ledgerstore

import (
	"os"
	"path/filepath"
	"testing"

	"ripplestudy/internal/ledger"
)

func openSmall(t *testing.T, pages int) (*Store, []*ledger.Page) {
	t.Helper()
	dir := t.TempDir()
	all := writeStore(t, dir, pages, 3, WithSegmentBytes(4<<10))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s, all
}

func TestSegmentRangesCoverHistory(t *testing.T) {
	s, all := openSmall(t, 40)
	ranges, err := s.SegmentRanges()
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) < 2 {
		t.Fatalf("got %d segments, want a multi-segment store", len(ranges))
	}
	pages, next := 0, uint64(1)
	for _, sr := range ranges {
		if sr.MinSeq != next {
			t.Errorf("segment %s starts at %d, want %d", sr.File, sr.MinSeq, next)
		}
		if sr.MaxSeq < sr.MinSeq {
			t.Errorf("segment %s range inverted", sr.File)
		}
		next = sr.MaxSeq + 1
		pages += sr.Pages
	}
	if pages != len(all) {
		t.Errorf("indexed %d pages, want %d", pages, len(all))
	}
	// The sidecar must exist and a second call must agree with it.
	if _, err := os.Stat(filepath.Join(s.Dir(), SeqIndexFile)); err != nil {
		t.Fatalf("sidecar not written: %v", err)
	}
	again, err := s.SegmentRanges()
	if err != nil {
		t.Fatal(err)
	}
	for i := range ranges {
		if again[i] != ranges[i] {
			t.Fatalf("cached range %d = %+v, want %+v", i, again[i], ranges[i])
		}
	}
}

func TestLastSeq(t *testing.T) {
	s, all := openSmall(t, 25)
	seq, ok, err := s.LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	if !ok || seq != all[len(all)-1].Header.Sequence {
		t.Fatalf("LastSeq = %d/%v, want %d", seq, ok, all[len(all)-1].Header.Sequence)
	}
}

func TestSeqIndexStaleAfterAppend(t *testing.T) {
	s, all := openSmall(t, 10)
	if _, err := s.SegmentRanges(); err != nil {
		t.Fatal(err)
	}
	// Append more pages: the final segment's size changes, so its stale
	// sidecar entry must be rebuilt, not trusted.
	last := all[len(all)-1]
	extra := buildPageAfter(last, 5)
	for _, p := range extra {
		if err := s.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	seq, ok, err := s.LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	want := extra[len(extra)-1].Header.Sequence
	if !ok || seq != want {
		t.Fatalf("LastSeq after append = %d/%v, want %d", seq, ok, want)
	}
}

// buildPageAfter continues a chain from p with n more pages.
func buildPageAfter(p *ledger.Page, n int) []*ledger.Page {
	out := make([]*ledger.Page, 0, n)
	parent := p.Header.Hash()
	seq := p.Header.Sequence
	for i := 0; i < n; i++ {
		seq++
		np := &ledger.Page{Header: ledger.PageHeader{
			Sequence:   seq,
			ParentHash: parent,
			CloseTime:  ledger.CloseTime(seq * 5),
			TotalDrops: ledger.GenesisTotalDrops,
		}}
		parent = np.Header.Hash()
		out = append(out, np)
	}
	return out
}

func TestSeqIndexSurvivesDeletion(t *testing.T) {
	s, all := openSmall(t, 20)
	if _, err := s.SegmentRanges(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(s.Dir(), SeqIndexFile)); err != nil {
		t.Fatal(err)
	}
	// Rebuild from scratch: same answer.
	seq, ok, err := s.LastSeq()
	if err != nil {
		t.Fatal(err)
	}
	if !ok || seq != all[len(all)-1].Header.Sequence {
		t.Fatalf("LastSeq after sidecar deletion = %d/%v", seq, ok)
	}
}

// TestPagesRange: the range reader delivers exactly the pages Pages
// does whose sequence lies in the range, in order.
func TestPagesRange(t *testing.T) {
	s, _ := openSmall(t, 40)
	lo, hi := uint64(13), uint64(29)
	var got []uint64
	err := s.PagesRangeRecycled(lo, hi, func(p *ledger.Page, release func()) error {
		got = append(got, p.Header.Sequence)
		release()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var want []uint64
	if err := s.Pages(func(p *ledger.Page) error {
		if seq := p.Header.Sequence; seq >= lo && seq <= hi {
			want = append(want, seq)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %d pages, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("page %d = seq %d, want %d", i, got[i], want[i])
		}
	}
	// Degenerate ranges.
	visit := func(count *int) func(*ledger.Page, func()) error {
		return func(_ *ledger.Page, release func()) error {
			*count++
			release()
			return nil
		}
	}
	for _, rng := range [][2]uint64{{5, 4}, {1000, 2000}} {
		count := 0
		if err := s.PagesRangeRecycled(rng[0], rng[1], visit(&count)); err != nil {
			t.Fatal(err)
		}
		if count != 0 {
			t.Errorf("range %v visited %d pages", rng, count)
		}
	}
}
