package ledgerstore

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"testing"

	"ripplestudy/internal/faultnet"
	"ripplestudy/internal/ledger"
)

// errStop is the sentinel the tests' callbacks return to stop a walk on
// purpose; every walker must hand it back unwrapped.
var errStop = errors.New("ledgerstore test: stop iteration")

// scanWalker is one exported scan, reduced to "call visit once per unit
// delivered" so every walker can sit in one table.
type scanWalker struct {
	name string
	// takesCtx is false for the scans whose exported signature has no
	// context to cancel; they ignore run's.
	takesCtx bool
	// payments is true when a unit is a payment, false when it is a page
	// (or a page's payload).
	payments bool
	// decodes is false for the scan that hands out raw payloads and so
	// leaves the one-page-per-record check to its consumer.
	decodes bool
	run     func(ctx context.Context, s *Store, visit func() error) error
}

var scanWalkers = []scanWalker{
	{name: "Pages", decodes: true, run: func(_ context.Context, s *Store, visit func() error) error {
		return s.Pages(func(*ledger.Page) error { return visit() })
	}},
	{name: "PagesRangeRecycled", decodes: true, run: func(_ context.Context, s *Store, visit func() error) error {
		return s.PagesRangeRecycled(0, math.MaxUint64, func(_ *ledger.Page, release func()) error {
			release()
			return visit()
		})
	}},
	{name: "PayloadsParallel", takesCtx: true, run: func(ctx context.Context, s *Store, visit func() error) error {
		return s.PayloadsParallel(ctx, 1, func(int, []byte) error { return visit() })
	}},
	{name: "ScanPayments", takesCtx: true, payments: true, decodes: true, run: func(ctx context.Context, s *Store, visit func() error) error {
		return s.ScanPayments(ctx, 1, func(int, *ledger.PaymentView) error { return visit() })
	}},
}

// appendRawRecord frames payload as one CRC-clean record at the end of
// a segment file.
func appendRawRecord(t *testing.T, path string, payload []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
}

// TestScanWalkersFaultTable holds every exported scan to the same
// observable contract, cell by cell: a clean store delivers everything;
// a truncated final record ends the scan silently one page short; a
// flipped payload bit is ErrCorrupted; a CRC-clean record carrying bytes
// past its page encoding is ErrCorrupted from every scan that decodes
// (the raw-payload scan delivers it: the check is its consumer's); the
// callback's errStop comes back unwrapped after exactly that many
// units; a cancelled context comes back as context.Canceled. Each cell
// runs on the mmap reader and on the ReadFile fallback (the
// ledgerstore_nommap build runs the fallback twice).
func TestScanWalkersFaultTable(t *testing.T) {
	const pages, txPerPage = 12, 3
	type expect struct {
		err   error // matched with errors.Is; nil means success
		pages int   // pages delivered, when the count is determined
	}
	faults := []struct {
		name   string
		inject func(t *testing.T, segs []string)
		stopAt int // visit returns errStop on this unit (0: never)
		cancel bool
		want   func(w scanWalker) expect
	}{
		{name: "clean", inject: func(*testing.T, []string) {},
			want: func(scanWalker) expect { return expect{pages: pages} }},
		{name: "truncated tail", inject: func(t *testing.T, segs []string) {
			if err := faultnet.TruncateTail(segs[len(segs)-1], 3); err != nil {
				t.Fatal(err)
			}
		}, want: func(scanWalker) expect { return expect{pages: pages - 1} }},
		{name: "CRC flip", inject: func(t *testing.T, segs []string) {
			if err := faultnet.FlipBitAt(segs[len(segs)/2], 4+20, 3); err != nil {
				t.Fatal(err)
			}
		}, want: func(scanWalker) expect { return expect{err: ErrCorrupted, pages: -1} }},
		{name: "trailing bytes", inject: func(t *testing.T, segs []string) {
			last := segs[len(segs)-1]
			p := buildPage(pages+1, ledger.Hash{}, txPerPage, rand.New(rand.NewSource(7)))
			appendRawRecord(t, last, append(p.Encode(nil), 0))
		}, want: func(w scanWalker) expect {
			switch {
			case !w.decodes:
				return expect{pages: pages + 1}
			case w.payments:
				// The projection hands payments out as it walks, so the
				// bad record's own are delivered before its end is seen.
				return expect{err: ErrCorrupted, pages: pages + 1}
			}
			return expect{err: ErrCorrupted, pages: pages}
		}},
		{name: "ErrStop", inject: func(*testing.T, []string) {}, stopAt: 4,
			want: func(scanWalker) expect { return expect{err: errStop, pages: -1} }},
		{name: "cancelled ctx", inject: func(*testing.T, []string) {}, cancel: true,
			want: func(w scanWalker) expect {
				if !w.takesCtx {
					return expect{pages: pages}
				}
				return expect{err: context.Canceled, pages: 0}
			}},
	}

	for _, fault := range faults {
		t.Run(fault.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, pages, txPerPage, WithSegmentBytes(2048))
			segs, err := segmentFiles(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) < 3 {
				t.Fatalf("need several segments, got %d", len(segs))
			}
			fault.inject(t, segs)
			defer func() { forceFileRead = false }()
			for _, fileRead := range []bool{false, true} {
				forceFileRead = fileRead
				for _, w := range scanWalkers {
					s, err := Open(dir)
					if err != nil {
						t.Fatal(err)
					}
					ctx, cancel := context.WithCancel(context.Background())
					if fault.cancel {
						cancel()
					}
					units := 0
					err = w.run(ctx, s, func() error {
						if units++; units == fault.stopAt {
							return errStop
						}
						return nil
					})
					cancel()
					want := fault.want(w)
					if want.err == nil && err != nil || want.err != nil && !errors.Is(err, want.err) {
						t.Errorf("%s (fileRead=%v): err = %v, want %v", w.name, fileRead, err, want.err)
					}
					wantUnits := want.pages
					if w.payments && wantUnits > 0 {
						wantUnits *= txPerPage
					}
					if fault.stopAt > 0 {
						wantUnits = fault.stopAt
					}
					if wantUnits >= 0 && units != wantUnits {
						t.Errorf("%s (fileRead=%v): delivered %d units, want %d", w.name, fileRead, units, wantUnits)
					}
				}
			}
		})
	}
}
