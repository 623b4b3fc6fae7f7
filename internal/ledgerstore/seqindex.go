package ledgerstore

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ripplestudy/internal/ledger"
)

// SeqIndexFile is the name of the segment sequence index sidecar kept
// next to the segment files. It maps each segment to the ledger
// sequence range it covers, so range reads (replay from a snapshot,
// LastSeq probes) open only the segments that matter instead of
// scanning the whole store.
//
// The sidecar is JSON — one entry per segment with the file's base
// name, its size in bytes when indexed, its page count, and the
// min/max header sequence it contains. An entry is trusted only if the
// segment's current size matches the recorded size; stale or missing
// entries are rebuilt by scanning just that segment, and the sidecar
// is rewritten. The store never *requires* the sidecar: deleting it
// merely costs one full rebuild scan. Rebuilds are not silent, though —
// a sidecar that is missing, unparseable, or stale is reported through
// IndexReport/Stats so operators can tell a healthy cache from one
// that is being thrown away on every open.
const SeqIndexFile = "seqindex.json"

// SegmentRange describes one segment's coverage in the sequence index.
type SegmentRange struct {
	File   string `json:"file"`  // base name, e.g. "segment-000001.rlst"
	Bytes  int64  `json:"bytes"` // segment size when indexed (staleness check)
	Pages  int    `json:"pages"`
	MinSeq uint64 `json:"min_seq"`
	MaxSeq uint64 `json:"max_seq"`
}

type seqIndexDoc struct {
	Segments []SegmentRange `json:"segments"`
}

// IndexLoadReport describes the health of the seqindex.json sidecar as
// of the last load: whether it was present and parseable, and how many
// segments had to be rescanned because their entries were stale or
// missing. A corrupt sidecar is not an error — the index rebuilds — but
// it is surfaced here (and via Stats) instead of being swallowed.
type IndexLoadReport struct {
	// Present is true when the sidecar file exists.
	Present bool `json:"present"`
	// Corrupt is true when the sidecar exists but failed to parse; Error
	// holds the parse error text.
	Corrupt bool   `json:"corrupt"`
	Error   string `json:"error,omitempty"`
	// Rebuilt counts segments rescanned on the last SegmentRanges call
	// because their sidecar entries were missing or stale.
	Rebuilt int `json:"rebuilt"`
}

func loadSeqIndex(dir string) (map[string]SegmentRange, IndexLoadReport) {
	var rep IndexLoadReport
	data, err := os.ReadFile(filepath.Join(dir, SeqIndexFile))
	if err != nil {
		return nil, rep // absent sidecar: clean rebuild, nothing to report
	}
	rep.Present = true
	var doc seqIndexDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		rep.Corrupt = true
		rep.Error = err.Error()
		return nil, rep
	}
	byFile := make(map[string]SegmentRange, len(doc.Segments))
	for _, sr := range doc.Segments {
		byFile[sr.File] = sr
	}
	return byFile, rep
}

func saveSeqIndex(dir string, ranges []SegmentRange) {
	doc := seqIndexDoc{Segments: ranges}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return
	}
	// Best-effort: a read-only store directory just loses the cache.
	tmp := filepath.Join(dir, SeqIndexFile+".tmp")
	if os.WriteFile(tmp, data, 0o644) != nil {
		return
	}
	if os.Rename(tmp, filepath.Join(dir, SeqIndexFile)) != nil {
		os.Remove(tmp)
	}
}

// scanSegmentRange builds a segment's index entry by walking its record
// frames once. Only headers are decoded — the CRC pass still covers the
// full payload, but rebuilding the index no longer pays for decoding
// every transaction in the store.
func scanSegmentRange(path string, size int64) (SegmentRange, error) {
	sr := SegmentRange{File: filepath.Base(path), Bytes: size}
	err := forEachRecord(path, func(payload []byte) error {
		h, _, err := ledger.DecodeHeader(payload)
		if err != nil {
			return fmt.Errorf("ledgerstore: decoding page header in %s: %w", path, err)
		}
		seq := h.Sequence
		if sr.Pages == 0 {
			sr.MinSeq, sr.MaxSeq = seq, seq
		} else {
			if seq < sr.MinSeq {
				sr.MinSeq = seq
			}
			if seq > sr.MaxSeq {
				sr.MaxSeq = seq
			}
		}
		sr.Pages++
		return nil
	})
	return sr, err
}

// IndexReport returns the sidecar health observed by the most recent
// SegmentRanges call (via LastSeq, PagesRangeRecycled, Stats or
// directly). The zero value means it has not been loaded this session.
func (s *Store) IndexReport() IndexLoadReport { return s.indexReport }

// SegmentRanges returns the per-segment sequence coverage, in segment
// order, rebuilding any sidecar entries that are missing or stale and
// persisting the refreshed sidecar. The open segment (if any) is
// flushed first so the index reflects every appended page.
func (s *Store) SegmentRanges() ([]SegmentRange, error) {
	if err := s.closeCurrent(); err != nil {
		return nil, err
	}
	segs, err := segmentFiles(s.dir)
	if err != nil {
		return nil, err
	}
	cached, rep := loadSeqIndex(s.dir)
	ranges := make([]SegmentRange, 0, len(segs))
	for _, seg := range segs {
		info, err := os.Stat(seg)
		if err != nil {
			return nil, fmt.Errorf("ledgerstore: stat %s: %w", seg, err)
		}
		base := filepath.Base(seg)
		if sr, ok := cached[base]; ok && sr.Bytes == info.Size() {
			ranges = append(ranges, sr)
			continue
		}
		sr, err := scanSegmentRange(seg, info.Size())
		if err != nil {
			return nil, err
		}
		ranges = append(ranges, sr)
		rep.Rebuilt++
	}
	if rep.Rebuilt > 0 || len(cached) != len(segs) {
		saveSeqIndex(s.dir, ranges)
	}
	s.indexReport = rep
	return ranges, nil
}

// LastSeq returns the highest ledger sequence stored. ok is false for a
// store with no pages. With a warm sidecar this costs one JSON read and
// a stat per segment, not a history scan.
func (s *Store) LastSeq() (seq uint64, ok bool, err error) {
	ranges, err := s.SegmentRanges()
	if err != nil {
		return 0, false, err
	}
	for _, sr := range ranges {
		if sr.Pages == 0 {
			continue
		}
		if !ok || sr.MaxSeq > seq {
			seq, ok = sr.MaxSeq, true
		}
	}
	return seq, ok, nil
}

// errStopSegment stops the in-segment page loop early once the range's
// upper bound has been passed.
var errStopSegment = errors.New("ledgerstore: past range")

// rangeSegments returns the index entries overlapping [lo, hi], or nil
// when the range is empty.
func (s *Store) rangeSegments(lo, hi uint64) ([]SegmentRange, error) {
	if hi < lo {
		return nil, nil
	}
	ranges, err := s.SegmentRanges()
	if err != nil {
		return nil, err
	}
	out := ranges[:0:0]
	for _, sr := range ranges {
		if sr.Pages == 0 || sr.MaxSeq < lo || sr.MinSeq > hi {
			continue
		}
		out = append(out, sr)
	}
	return out, nil
}

// arenaPool recycles decode arenas across scans, so repeated replays
// (the decode-ahead stream) reuse warmed slabs.
var arenaPool = sync.Pool{New: func() any { return new(ledger.PageArena) }}

// PagesRangeRecycled streams the pages in [lo, hi] with per-page arena
// decoding and explicit recycling: each page is decoded into an arena
// drawn from the package pool and handed to fn together with a release
// closure. The page stays valid — independently of any later decode or
// of the segment mapping — until release is called, at which point its
// arena returns to the pool and the page is dead.
//
// Segments entirely outside the range are never opened — the point of
// the sequence index: replaying from a 70% snapshot touches ~30% of the
// store. Within a boundary segment, pages below the range are skipped
// after a header-only peek, without decoding their transactions.
//
// Pipelined consumers (the replay decode-ahead stream) call release
// exactly once per page, when done with it. Never calling it is safe (a
// caller that keeps its pages does that); calling it twice corrupts the
// pool. fn's errors, ErrStop included, propagate as in Pages.
func (s *Store) PagesRangeRecycled(lo, hi uint64, fn func(p *ledger.Page, release func()) error) error {
	segs, err := s.rangeSegments(lo, hi)
	if err != nil {
		return err
	}
	for _, sr := range segs {
		path := filepath.Join(s.dir, sr.File)
		err := forEachRecord(path, func(payload []byte) error {
			h, _, err := ledger.DecodeHeader(payload)
			if err != nil {
				return fmt.Errorf("ledgerstore: decoding page header in %s: %w", path, err)
			}
			if h.Sequence < lo {
				return nil // before the range: skip without decoding
			}
			if h.Sequence > hi {
				// Pages append in ledger order, so nothing later in this
				// segment can be in range.
				return errStopSegment
			}
			a := arenaPool.Get().(*ledger.PageArena)
			page, err := decodeRecord(path, payload, a)
			if err != nil {
				arenaPool.Put(a)
				return err
			}
			return fn(page, func() { arenaPool.Put(a) })
		})
		if errors.Is(err, errStopSegment) {
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}
