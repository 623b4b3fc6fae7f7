package nodestore

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"os"

	"ripplestudy/internal/ledger"
)

// FileWriter is the batch-writing file backend: records append through
// a buffered writer, and Close flushes and syncs. It writes every record
// it is given, duplicates included: keeping a batch free of them is the
// producer's guarantee — one shamap WriteNew or WriteAll call never
// emits a hash twice — and a FileStore reading a batch answers for a
// repeated hash with one of its copies anyway. A replay checkpoint
// streams one seal's new tree nodes through it, and a checkpoint base
// the whole tree.
type FileWriter struct {
	f     *os.File
	w     *bufio.Writer
	buf   []byte
	n     int
	bytes int64
}

// CreateFile opens a new batch file for writing. The path must not
// exist (batches are immutable once written).
func CreateFile(path string) (*FileWriter, error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return &FileWriter{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

// Put appends one record. The payload is only borrowed for the call.
func (fw *FileWriter) Put(h ledger.Hash, payload []byte) error {
	if len(payload) > MaxPayload {
		return fmt.Errorf("nodestore: payload of %d bytes exceeds cap", len(payload))
	}
	fw.buf = AppendRecord(fw.buf[:0], h, payload)
	n, err := fw.w.Write(fw.buf)
	fw.bytes += int64(n)
	fw.n++
	return err
}

// Len returns the number of records written.
func (fw *FileWriter) Len() int { return fw.n }

// Bytes returns the encoded size written so far.
func (fw *FileWriter) Bytes() int64 { return fw.bytes }

// Close flushes, syncs, and closes the file.
func (fw *FileWriter) Close() error {
	flushErr := fw.w.Flush()
	syncErr := fw.f.Sync()
	closeErr := fw.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}

// FileStore is the read side of batch files: Add loads one whole and
// CRC-checks every record. A Get that asks for the record after the one
// Get last returned — every Get of a load from a checkpoint base, which
// shamap WriteAll writes in the order Load asks for nodes — is answered
// by comparing the hash framed in front of it. The first Get that misses
// there builds one open-addressed table over every file added so far
// (later Adds enter theirs): content addressing makes the union of
// batches a store, so a lookup is one probe however many batches a
// restore spans. A slot names a record by file and payload offset. A
// probe answers with the first record of a hash, a read in file order
// with the record it meets; both hold the bytes the hash names. The zero
// value is an empty store. Get moves the read position and may build
// the table, so a FileStore is not safe for concurrent use.
type FileStore struct {
	files   [][]byte
	records int      // records across files, repeats included
	slots   []uint64 // nil until built; 0 is empty, else file<<offsetBits | payload offset
	n       int      // distinct hashes, once the table is built

	nextFile, nextOff int // the frame after the one Get last returned
}

// offsetBits is the width of a slot's payload offset (a file is read
// whole, so it is far smaller); the file number takes the rest.
const offsetBits = 40

// OpenFile loads one batch file written by FileWriter.
func OpenFile(path string) (*FileStore, error) {
	s := &FileStore{}
	if err := s.Add(path); err != nil {
		return nil, err
	}
	return s, nil
}

// Add loads one more batch file, and enters its hashes into the table
// if one has been built; a hash already present keeps its first record
// (the bytes are identical by construction). Any framing or CRC damage
// fails the add and leaves the store as it was — a checkpoint loader
// falls back to an older checkpoint (or a cold replay) rather than
// trusting a torn batch.
func (s *FileStore) Add(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	records := 0
	for rest := data; len(rest) > 0; records++ {
		if _, _, rest, err = DecodeRecord(rest); err != nil {
			return fmt.Errorf("nodestore: %s: %w", path, err)
		}
	}
	s.files = append(s.files, data)
	s.records += records
	if s.slots != nil {
		if 2*(s.n+records) > len(s.slots) {
			s.resize(s.n + records)
		}
		s.index(len(s.files) - 1)
	}
	return nil
}

// buildTable makes the table for every file added so far, sized for
// all their records.
func (s *FileStore) buildTable() {
	s.resize(s.records)
	for f := range s.files {
		s.index(f)
	}
}

// index enters the new hashes of file f into the table.
func (s *FileStore) index(f int) {
	data, file := s.files[f], uint64(f)<<offsetBits
	for off := recordHeader; off < len(data); {
		if i := s.probe(data[off-32 : off]); s.slots[i] == 0 {
			s.slots[i] = file | uint64(off)
			s.n++
		}
		off += int(binary.BigEndian.Uint32(data[off-recordHeader:])) + recordTrailer + recordHeader
	}
}

// resize rebuilds the table to hold n records at most half full.
func (s *FileStore) resize(n int) {
	size := 16
	for size < 2*n {
		size <<= 1
	}
	old := s.slots
	s.slots = make([]uint64, size)
	for _, slot := range old {
		if slot != 0 {
			data, off := s.at(slot)
			s.slots[s.probe(data[off-32:off])] = slot
		}
	}
}

// at splits a slot into the file it names and the payload offset there.
func (s *FileStore) at(slot uint64) (data []byte, off int) {
	return s.files[slot>>offsetBits], int(slot & (1<<offsetBits - 1))
}

// probe returns the table position of hash h: the slot holding it, or
// the empty slot where it belongs. Hashes are uniform, so their first
// eight bytes pick the starting position; only a full 32-byte match
// against the hash framed in the file ends the walk early.
func (s *FileStore) probe(h []byte) int {
	mask := len(s.slots) - 1
	i := int(binary.LittleEndian.Uint64(h)) & mask
	for s.slots[i] != 0 {
		if data, off := s.at(s.slots[i]); bytes.Equal(data[off-32:off], h) {
			break
		}
		i = (i + 1) & mask
	}
	return i
}

// Get returns the payload stored under h, or ErrNotFound. The returned
// slice aliases the loaded file: callers must not mutate it.
func (s *FileStore) Get(h ledger.Hash) ([]byte, error) {
	for s.nextFile < len(s.files) && s.nextOff >= len(s.files[s.nextFile]) {
		s.nextFile, s.nextOff = s.nextFile+1, 0
	}
	if s.nextFile < len(s.files) {
		if data, off := s.files[s.nextFile], s.nextOff+recordHeader; bytes.Equal(data[off-32:off], h[:]) {
			return s.payload(uint64(s.nextFile)<<offsetBits | uint64(off)), nil
		}
	}
	if s.slots == nil {
		s.buildTable()
	}
	slot := s.slots[s.probe(h[:])]
	if slot == 0 {
		return nil, ErrNotFound
	}
	return s.payload(slot), nil
}

// payload returns the payload a slot names and moves the read position
// to the record after it.
func (s *FileStore) payload(slot uint64) []byte {
	data, off := s.at(slot)
	end := off + int(binary.BigEndian.Uint32(data[off-recordHeader:]))
	s.nextFile, s.nextOff = int(slot>>offsetBits), end+recordTrailer
	return data[off:end:end]
}

// Len returns the number of distinct records across the files added. It
// builds the table.
func (s *FileStore) Len() int {
	if s.slots == nil {
		s.buildTable()
	}
	return s.n
}
