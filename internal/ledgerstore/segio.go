package ledgerstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"

	"ripplestudy/internal/ledger"
)

// Segment I/O. Reads used to go through a bufio frame reader that
// copied every payload into a grow-on-demand buffer; the scan path now
// maps the whole segment (mmap where the platform supports it, one
// ReadFile otherwise) and walks the framed records in place. Record
// payloads handed to the walkers alias the mapped region, which is why
// every consumer either decodes into an arena before returning
// (decodeRecord; Pages gives each record an arena of its own) or passes
// the explicit valid-only-inside-the-callback contract up to its caller
// (ScanPayments, PayloadsParallel).
//
// A walk over a mapped segment also lets go of what it has read: about
// every releaseStride bytes it hands the whole pages that lie before the
// current record back to the kernel (releaseMapped, MADV_DONTNEED on
// Linux), so a scan worker's resident set holds about a stride of its
// segment instead of all of it. That is safe because segments are
// immutable once written and the mapping is a shared, read-only file
// mapping: touching a released page again faults the same bytes back in
// from the page cache, so a consumer that broke the
// valid-only-inside-the-callback contract would still read the right
// bytes, only slower. The ReadFile path (no mapping, or the
// ledgerstore_nommap build tag) holds heap memory, which is never
// released this way; it is freed whole with the segment.

// errMmapUnavailable is returned by mapSegment when the platform (or
// the ledgerstore_nommap build tag) rules out memory mapping; callers
// fall back to ReadFile.
var errMmapUnavailable = fmt.Errorf("ledgerstore: mmap unavailable")

// forceFileRead disables the mmap path process-wide. Tests use it to
// run the same inputs through both readers in one process.
var forceFileRead = false

// releaseStride is how far a walk over a mapped segment reads between
// two releases of the pages behind it.
const releaseStride = 1 << 20

// pageSize is the granule releases are cut to.
var pageSize = os.Getpagesize()

// segment is one segment file's contents, either memory-mapped or read
// into heap memory. Close releases the mapping (a no-op for heap data).
type segment struct {
	data  []byte
	unmap func() error
	// released is the end of the mapped prefix already handed back, a
	// multiple of pageSize.
	released int
}

// releaseBefore hands the kernel the mapped pages wholly before off,
// once at least releaseStride bytes have been read since the last
// release. Heap data is left alone.
func (s *segment) releaseBefore(off int) {
	if s.unmap == nil || off-s.released < releaseStride {
		return
	}
	end := off &^ (pageSize - 1)
	releaseMapped(s.data[s.released:end])
	s.released = end
}

func (s *segment) Close() error {
	if s.unmap == nil {
		return nil
	}
	u := s.unmap
	s.unmap = nil
	s.data = nil
	return u()
}

// openSegment opens a segment read-only, preferring mmap. Any mapping
// failure (unsupported platform, empty file, exotic filesystem) falls
// back to reading the file into memory, so openSegment only fails when
// the file itself is unreadable.
func openSegment(path string) (segment, error) {
	if !forceFileRead {
		if data, unmap, err := mapSegment(path); err == nil {
			return segment{data: data, unmap: unmap}, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return segment{}, fmt.Errorf("ledgerstore: opening %s: %w", path, err)
	}
	return segment{data: data}, nil
}

// forEachRecord walks a segment's framed records, calling fn with each
// CRC-verified payload. The payload aliases the segment's (possibly
// mapped) memory and is valid only inside fn. Semantics match the old
// incremental reader exactly: a truncated final record (length prefix,
// payload, or checksum cut short) ends the walk silently, an oversized
// length prefix or checksum mismatch returns ErrCorrupted, and fn's
// errors propagate as-is. On a mapped segment the pages behind the
// cursor are released as the walk goes (releaseBefore).
func forEachRecord(path string, fn func(payload []byte) error) error {
	seg, err := openSegment(path)
	if err != nil {
		return err
	}
	defer seg.Close()
	data := seg.data
	for off := 0; ; {
		seg.releaseBefore(off)
		if off+4 > len(data) {
			return nil // EOF, or a truncated length prefix: tolerate
		}
		n := int(binary.BigEndian.Uint32(data[off:]))
		if n > maxRecordBytes {
			return fmt.Errorf("%w: record claims %d bytes in %s", ErrCorrupted, n, path)
		}
		if off+4+n+4 > len(data) {
			return nil // truncated tail
		}
		payload := data[off+4 : off+4+n : off+4+n]
		sum := binary.BigEndian.Uint32(data[off+4+n:])
		if crc32.ChecksumIEEE(payload) != sum {
			return fmt.Errorf("%w in %s", ErrCorrupted, path)
		}
		if err := fn(payload); err != nil {
			return err
		}
		off += 8 + n
	}
}

// decodeRecord decodes a record payload as a full page into the arena
// (the page is valid until the arena's next decode), enforcing that the
// record contains exactly one page encoding.
func decodeRecord(path string, payload []byte, a *ledger.PageArena) (*ledger.Page, error) {
	page, used, err := ledger.DecodePageInto(payload, a)
	if err != nil {
		return nil, fmt.Errorf("ledgerstore: decoding page in %s: %w", path, err)
	}
	if used != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupted, len(payload)-used)
	}
	return page, nil
}
