// Package nodestore implements content-addressed storage for
// authenticated tree nodes (internal/shamap): every record is a blob
// stored under its own SHA512Half, so a store is an idempotent set —
// putting the same hash twice is a no-op, the union of any collection of
// stores is itself a valid store, and readers verify integrity by
// re-hashing what they fetch.
//
// Two backends cover the study's needs: MemStore for tests and
// in-process snapshots, and FileWriter/FileStore for the append-only
// batch files a replay checkpoint persists (file.go). A FileStore reads
// any number of them: in file order by following the records, out of
// order through one index, built at the first read that needs it, that
// keeps the first record of a hash — so the writer appends what it is
// given without checking for repeats. The flat record framing
// (AppendRecord/DecodeRecord) is shared by both:
//
//	u32 payload length ‖ hash[32] ‖ payload ‖ u32 CRC-32 (hash‖payload)
//
// lengths big-endian, CRC over the hash and payload bytes (IEEE). The
// CRC catches torn writes and bit rot cheaply at scan time; the
// caller's hash check (shamap.Load re-hashes every node) authenticates
// content.
package nodestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"ripplestudy/internal/ledger"
)

// ErrNotFound reports a hash absent from a store.
var ErrNotFound = errors.New("nodestore: not found")

// Getter is the read side of a store.
type Getter interface {
	// Get returns the payload stored under h, or ErrNotFound. The
	// returned slice is owned by the store: callers must not mutate it.
	Get(h ledger.Hash) ([]byte, error)
}

// Store is a content-addressed node store.
type Store interface {
	Getter
	// Put stores payload under h. Storing a hash that is already present
	// is a no-op (content addressing makes the write idempotent). The
	// payload is only borrowed for the call; implementations copy what
	// they keep.
	Put(h ledger.Hash, payload []byte) error
	// Len returns the number of distinct records.
	Len() int
}

// MemStore is the in-memory backend.
type MemStore struct {
	m map[ledger.Hash][]byte
}

// NewMem creates an empty in-memory store.
func NewMem() *MemStore {
	return &MemStore{m: make(map[ledger.Hash][]byte)}
}

// Get implements Getter.
func (s *MemStore) Get(h ledger.Hash) ([]byte, error) {
	d, ok := s.m[h]
	if !ok {
		return nil, ErrNotFound
	}
	return d, nil
}

// Put implements Store.
func (s *MemStore) Put(h ledger.Hash, payload []byte) error {
	if _, ok := s.m[h]; ok {
		return nil
	}
	s.m[h] = append([]byte(nil), payload...)
	return nil
}

// Len implements Store.
func (s *MemStore) Len() int { return len(s.m) }

// Record framing constants.
const (
	recordHeader  = 4 + 32 // length + hash
	recordTrailer = 4      // CRC-32
	// recordOverhead is the framing around every payload.
	recordOverhead = recordHeader + recordTrailer
	// MaxPayload bounds a single record: far above any real tree node
	// (a full inner node is 515 bytes) but small enough that a corrupt
	// length field cannot drive an allocation of gigabytes.
	MaxPayload = 1 << 26
)

// AppendRecord appends the framed record for (h, payload) to dst.
func AppendRecord(dst []byte, h ledger.Hash, payload []byte) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(payload)))
	start := len(dst)
	dst = append(dst, h[:]...)
	dst = append(dst, payload...)
	crc := crc32.ChecksumIEEE(dst[start:])
	return binary.BigEndian.AppendUint32(dst, crc)
}

// DecodeRecord parses one framed record from the front of data,
// returning the payload (aliasing data) and the remaining bytes.
func DecodeRecord(data []byte) (h ledger.Hash, payload, rest []byte, err error) {
	if len(data) < recordOverhead {
		return h, nil, nil, fmt.Errorf("nodestore: record truncated at %d bytes", len(data))
	}
	n := binary.BigEndian.Uint32(data)
	if n > MaxPayload {
		return h, nil, nil, fmt.Errorf("nodestore: record length %d exceeds cap %d", n, MaxPayload)
	}
	total := recordOverhead + int(n)
	if len(data) < total {
		return h, nil, nil, fmt.Errorf("nodestore: record wants %d bytes, have %d", total, len(data))
	}
	body := data[4 : recordHeader+int(n)]
	crc := binary.BigEndian.Uint32(data[recordHeader+int(n):])
	if crc32.ChecksumIEEE(body) != crc {
		return h, nil, nil, fmt.Errorf("nodestore: record CRC mismatch")
	}
	copy(h[:], body)
	return h, body[32:], data[total:], nil
}
