// Package ledgerstore persists closed ledger pages to disk in an
// append-only, segmented format and streams them back without loading the
// whole history in memory. It is the repository's stand-in for the
// paper's "more than 500GB worth of data" downloaded from Ripple's public
// ledger: every analysis consumes history by streaming a store.
//
// On-disk layout: a directory of segment files named
// "segment-NNNNNN.rlst", each a concatenation of framed records:
//
//	u32 payload length ∥ payload (ledger.Page encoding) ∥ u32 CRC-32
//
// The CRC detects corruption; a truncated final record (e.g. after a
// crash) is tolerated on read and reported via Stats.
package ledgerstore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ripplestudy/internal/ledger"
)

const (
	segmentPrefix = "segment-"
	segmentSuffix = ".rlst"

	// DefaultSegmentBytes is the rollover threshold for segment files.
	DefaultSegmentBytes = 8 << 20

	// maxRecordBytes bounds a single record's claimed payload length.
	// A corrupted length prefix must surface as ErrCorrupted, not as a
	// multi-gigabyte allocation.
	maxRecordBytes = 1 << 26
)

// ErrCorrupted is returned when a record's checksum does not match.
var ErrCorrupted = errors.New("ledgerstore: corrupted record")

// Option configures a Store.
type Option func(*Store)

// WithSegmentBytes sets the segment rollover threshold.
func WithSegmentBytes(n int64) Option {
	return func(s *Store) { s.segmentBytes = n }
}

// Store is an append-only ledger page store rooted at a directory. A
// Store is not safe for concurrent use; writers own it exclusively.
type Store struct {
	dir          string
	segmentBytes int64

	cur     *os.File
	curBuf  *bufio.Writer
	curSize int64
	nextSeg int

	// indexReport records the seqindex sidecar's health as observed by
	// the last SegmentRanges call (see IndexReport).
	indexReport IndexLoadReport
}

// Create initializes a new store in dir, which must be empty or absent.
func Create(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledgerstore: creating %s: %w", dir, err)
	}
	existing, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(existing) > 0 {
		return nil, fmt.Errorf("ledgerstore: %s already contains %d segments", dir, len(existing))
	}
	s := &Store{dir: dir, segmentBytes: DefaultSegmentBytes, nextSeg: 1}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// Open opens an existing store for reading and further appends.
func Open(dir string, opts ...Option) (*Store, error) {
	segs, err := segmentFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return nil, fmt.Errorf("ledgerstore: %s contains no segments", dir)
	}
	s := &Store{dir: dir, segmentBytes: DefaultSegmentBytes, nextSeg: len(segs) + 1}
	for _, opt := range opts {
		opt(s)
	}
	return s, nil
}

// segmentFiles lists segment files in dir in ascending numeric order.
func segmentFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("ledgerstore: reading %s: %w", dir, err)
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, segmentPrefix) && strings.HasSuffix(name, segmentSuffix) {
			names = append(names, filepath.Join(dir, name))
		}
	}
	sort.Strings(names)
	return names, nil
}

// Append writes a page at the end of the store, rolling to a new segment
// when the current one exceeds the threshold.
func (s *Store) Append(p *ledger.Page) error {
	if s.cur == nil || s.curSize >= s.segmentBytes {
		if err := s.roll(); err != nil {
			return err
		}
	}
	payload := p.Encode(nil)
	var frame [4]byte
	binary.BigEndian.PutUint32(frame[:], uint32(len(payload)))
	if _, err := s.curBuf.Write(frame[:]); err != nil {
		return fmt.Errorf("ledgerstore: writing frame: %w", err)
	}
	if _, err := s.curBuf.Write(payload); err != nil {
		return fmt.Errorf("ledgerstore: writing payload: %w", err)
	}
	binary.BigEndian.PutUint32(frame[:], crc32.ChecksumIEEE(payload))
	if _, err := s.curBuf.Write(frame[:]); err != nil {
		return fmt.Errorf("ledgerstore: writing checksum: %w", err)
	}
	s.curSize += int64(len(payload)) + 8
	return nil
}

func (s *Store) roll() error {
	if err := s.closeCurrent(); err != nil {
		return err
	}
	name := filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segmentPrefix, s.nextSeg, segmentSuffix))
	f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("ledgerstore: creating segment: %w", err)
	}
	s.cur = f
	s.curBuf = bufio.NewWriterSize(f, 1<<16)
	s.curSize = 0
	s.nextSeg++
	return nil
}

func (s *Store) closeCurrent() error {
	if s.cur == nil {
		return nil
	}
	if err := s.curBuf.Flush(); err != nil {
		return fmt.Errorf("ledgerstore: flushing segment: %w", err)
	}
	if err := s.cur.Close(); err != nil {
		return fmt.Errorf("ledgerstore: closing segment: %w", err)
	}
	s.cur, s.curBuf = nil, nil
	return nil
}

// Close flushes and closes any open segment. The store may still be read
// afterwards.
func (s *Store) Close() error { return s.closeCurrent() }

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Pages streams every stored page, in append order, to fn. Iteration
// stops early if fn returns a non-nil error, which is returned unwrapped,
// so a caller can stop on purpose with a sentinel of its own. A
// truncated final record terminates iteration silently (crash-tolerant
// tail); a checksum mismatch returns ErrCorrupted. Each page is decoded
// into a PageArena of its own, so fn may retain it; scans that don't
// need that use PagesRangeRecycled or PayloadsParallel (one reused
// arena per worker) or ScanPayments and skip the per-page allocations.
func (s *Store) Pages(fn func(*ledger.Page) error) error {
	if err := s.closeCurrent(); err != nil {
		return err
	}
	segs, err := segmentFiles(s.dir)
	if err != nil {
		return err
	}
	for _, seg := range segs {
		err := forEachRecord(seg, func(payload []byte) error {
			page, err := decodeRecord(seg, payload, new(ledger.PageArena))
			if err != nil {
				return err
			}
			return fn(page)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes a store's contents.
type Stats struct {
	Pages        int
	Transactions int
	Payments     int
	FirstSeq     uint64
	LastSeq      uint64
	Segments     int
	Bytes        int64
	// Index reports the health of the seqindex.json sidecar: a corrupt
	// or stale sidecar is rebuilt transparently but surfaced here.
	Index IndexLoadReport
}

// Stats scans the store and reports its contents. The scan is a
// zero-copy TxIter walk (headers and per-transaction type bytes only),
// so it validates framing and checksums but not every field of every
// record — VerifyIntegrity does the full decode.
func (s *Store) Stats() (Stats, error) {
	var st Stats
	if err := s.closeCurrent(); err != nil {
		return st, err
	}
	segs, err := segmentFiles(s.dir)
	if err != nil {
		return st, err
	}
	st.Segments = len(segs)
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			return st, fmt.Errorf("ledgerstore: stat %s: %w", seg, err)
		}
		st.Bytes += info.Size()
	}
	_, st.Index = loadSeqIndex(s.dir)
	for _, seg := range segs {
		err := forEachRecord(seg, func(payload []byte) error {
			var it ledger.TxIter
			err := it.Init(payload)
			for err == nil {
				var v *ledger.TxView
				if v, err = it.Next(); v == nil {
					break
				}
				st.Transactions++
				if v.Type() == ledger.TxPayment {
					st.Payments++
				}
			}
			if err != nil {
				return fmt.Errorf("ledgerstore: scanning page in %s: %w", seg, err)
			}
			if used := it.Used(); used != len(payload) {
				return fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupted, len(payload)-used)
			}
			if st.Pages == 0 {
				st.FirstSeq = it.Hdr.Sequence
			}
			st.LastSeq = it.Hdr.Sequence
			st.Pages++
			return nil
		})
		if err != nil {
			return st, err
		}
	}
	return st, nil
}

// IntegrityReport summarizes a full store verification.
type IntegrityReport struct {
	Pages int
	// ChainOK is false when a page's parent hash does not match its
	// predecessor.
	ChainOK bool
	// BrokenAt holds the sequence of the first page with broken
	// linkage (when ChainOK is false).
	BrokenAt uint64
	// PageErrors counts pages whose internal consistency check
	// (tx-set digest, meta parity) failed.
	PageErrors int
}

// VerifyIntegrity streams the whole store, checking record checksums
// (via Pages), per-page internal consistency, and parent-hash linkage.
// Checksum corruption surfaces as an error; structural problems are
// reported in the IntegrityReport.
func (s *Store) VerifyIntegrity() (IntegrityReport, error) {
	rep := IntegrityReport{ChainOK: true}
	var prev ledger.Hash
	first := true
	err := s.Pages(func(p *ledger.Page) error {
		rep.Pages++
		if err := p.Validate(); err != nil {
			rep.PageErrors++
		}
		if !first && rep.ChainOK && p.Header.ParentHash != prev {
			rep.ChainOK = false
			rep.BrokenAt = p.Header.Sequence
		}
		prev = p.Header.Hash()
		first = false
		return nil
	})
	return rep, err
}

// ExportJSON streams the store as newline-delimited JSON, one page per
// line — the interchange format for external tooling.
func (s *Store) ExportJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	enc := json.NewEncoder(bw)
	if err := s.Pages(func(p *ledger.Page) error { return enc.Encode(p) }); err != nil {
		return err
	}
	return bw.Flush()
}
