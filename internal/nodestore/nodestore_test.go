package nodestore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/shamap"
)

// VerifyRecord re-hashes a payload against the hash that names it —
// the content-addressing check on top of the frame CRC.
func VerifyRecord(h ledger.Hash, payload []byte) error {
	if ledger.SHA512Half(payload) != h {
		return fmt.Errorf("nodestore: payload does not hash to %s", h.Short())
	}
	return nil
}

func rec(i int) (ledger.Hash, []byte) {
	payload := binary.BigEndian.AppendUint64(nil, uint64(i))
	payload = append(payload, bytes.Repeat([]byte{byte(i)}, i%13)...)
	return ledger.SHA512Half(payload), payload
}

func TestMemStoreIdempotentPut(t *testing.T) {
	s := NewMem()
	h, payload := rec(7)
	if err := s.Put(h, payload); err != nil {
		t.Fatal(err)
	}
	// Second put of the same hash must be a no-op, and the store must not
	// alias the caller's buffer.
	scratch := append([]byte(nil), payload...)
	if err := s.Put(h, scratch); err != nil {
		t.Fatal(err)
	}
	scratch[0] ^= 0xff
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
	got, err := s.Get(h)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("Get = %x, want %x", got, payload)
	}
	if _, err := s.Get(ledger.Hash{1}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}
}

func TestRecordRoundTrip(t *testing.T) {
	var buf []byte
	const n = 20
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		buf = AppendRecord(buf, h, payload)
	}
	rest := buf
	for i := 0; i < n; i++ {
		wantH, wantPayload := rec(i)
		h, payload, next, err := DecodeRecord(rest)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if h != wantH || !bytes.Equal(payload, wantPayload) {
			t.Fatalf("record %d: decoded (%s, %x)", i, h.Short(), payload)
		}
		if err := VerifyRecord(h, payload); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		rest = next
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
}

func TestDecodeRecordRejectsDamage(t *testing.T) {
	h, payload := rec(3)
	good := AppendRecord(nil, h, payload)

	for i := range good {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x01
		if _, _, _, err := DecodeRecord(bad); err == nil {
			// Flipping a length byte can still frame a valid-looking record
			// only if the CRC happens to match — it never does for a single
			// bit flip over this frame.
			t.Fatalf("bit flip at %d accepted", i)
		}
	}
	if _, _, _, err := DecodeRecord(good[:len(good)-1]); err == nil {
		t.Fatal("truncated record accepted")
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxPayload+1)
	huge = append(huge, make([]byte, 64)...)
	if _, _, _, err := DecodeRecord(huge); err == nil {
		t.Fatal("oversized length accepted")
	}
	if err := VerifyRecord(ledger.Hash{1}, payload); err == nil {
		t.Fatal("wrong hash passed VerifyRecord")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.nodes")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		if err := fw.Put(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	// A duplicate put is written like any other record: keeping a batch
	// free of repeats is the producer's job. The repeat carries another
	// payload so that which copy the store returns shows.
	h0, _ := rec(0)
	second := []byte("second copy")
	before := fw.Bytes()
	if err := fw.Put(h0, second); err != nil {
		t.Fatal(err)
	}
	if fw.Len() != n+1 {
		t.Fatalf("writer Len = %d, want %d", fw.Len(), n+1)
	}
	wantBytes := fw.Bytes()
	if grew := wantBytes - before; grew != int64(recordOverhead+len(second)) {
		t.Fatalf("the duplicate put wrote %d bytes, want %d", grew, recordOverhead+len(second))
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != wantBytes {
		t.Fatalf("file size %v (err %v), writer reported %d", fi.Size(), err, wantBytes)
	}

	// The store counts distinct hashes. Read in file order, record 0 is
	// met at its first copy and reads back as its original payload. (Read
	// right after record 49 it would be the second: in file order the
	// store answers with the record it meets, where real copies of a
	// hash hold the same bytes.)
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Len() != n {
		t.Fatalf("store Len = %d, want %d", fs.Len(), n)
	}
	for i := 0; i < n; i++ {
		h, payload := rec(i)
		got, err := fs.Get(h)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("record %d: got %x", i, got)
		}
	}
	if _, err := fs.Get(ledger.Hash{0xAA}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}

	// CreateFile refuses to overwrite an existing batch.
	if _, err := CreateFile(path); err == nil {
		t.Fatal("CreateFile overwrote an existing file")
	}
}

func TestOpenFileRejectsCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "batch.nodes")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		h, payload := rec(i)
		if err := fw.Put(h, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	flip := append([]byte(nil), data...)
	flip[len(flip)/2] ^= 0x10
	bad := filepath.Join(t.TempDir(), "flip.nodes")
	if err := os.WriteFile(bad, flip, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(bad); err == nil {
		t.Fatal("OpenFile accepted a corrupt record")
	}

	torn := filepath.Join(t.TempDir(), "torn.nodes")
	if err := os.WriteFile(torn, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(torn); err == nil {
		t.Fatal("OpenFile accepted a torn file")
	}
}

// writeBatch writes the records to a fresh batch file, framing them
// directly: the frame takes any 32-byte name, which is how the model test
// forges hashes that collide on their probe bytes.
func writeBatch(t *testing.T, hashes []ledger.Hash, payloads [][]byte) string {
	t.Helper()
	var buf []byte
	for i, h := range hashes {
		buf = AppendRecord(buf, h, payloads[i])
	}
	path := filepath.Join(t.TempDir(), "batch.nodes")
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestLayeredUnion pins the union a checkpoint restore relies on: the
// batches of several seals, opened into one store, answer for every hash
// any of them holds, and a hash two of them hold is one record.
func TestLayeredUnion(t *testing.T) {
	ha, pa := rec(1)
	hb, pb := rec(2)
	hBoth, pBoth := rec(3)
	var s FileStore
	for _, path := range []string{
		writeBatch(t, []ledger.Hash{ha, hBoth}, [][]byte{pa, pBoth}),
		writeBatch(t, []ledger.Hash{hb, hBoth}, [][]byte{pb, pBoth}),
	} {
		if err := s.Add(path); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 distinct records", s.Len())
	}
	for _, want := range []struct {
		h ledger.Hash
		p []byte
	}{{ha, pa}, {hb, pb}, {hBoth, pBoth}} {
		got, err := s.Get(want.h)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.p) {
			t.Fatalf("Get(%s) = %x", want.h.Short(), got)
		}
	}
	if _, err := s.Get(ledger.Hash{9}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing hash: err = %v, want ErrNotFound", err)
	}
}

// TestFileStoreMatchesMapModel holds a store over many files against a
// map[Hash][]byte: random batches whose hashes repeat across files, a
// file added twice, families of forged hashes that share their first
// eight bytes (so they start their probe in the same slot and only the
// full compare tells them apart), and an empty file. The records are
// read in file order, which must never build the table and leaves Len
// to build it; in reverse order, whose first read builds the table over
// every record, which nothing rebuilds; and in random order, into a
// table first built before most files were added, which must grow.
// Every present hash
// returns its payload; every absent one, including absent members of a
// forged family queued behind an occupied run, is ErrNotFound.
func TestFileStoreMatchesMapModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	model := map[ledger.Hash][]byte{}
	var absent []ledger.Hash
	forge := func(family, member int) ledger.Hash {
		var h ledger.Hash
		binary.BigEndian.PutUint64(h[:], uint64(family)*0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(h[24:], uint64(member)+1)
		return h
	}
	var paths []string
	var reads []ledger.Hash // every record of every file, in file order
	var pool []ledger.Hash  // hashes already written, to repeat across files
	for file := 0; file < 9; file++ {
		var hashes []ledger.Hash
		var payloads [][]byte
		add := func(h ledger.Hash, p []byte) {
			if _, ok := model[h]; !ok {
				model[h] = p
				pool = append(pool, h)
			}
			hashes, payloads = append(hashes, h), append(payloads, model[h])
		}
		n := 0
		if file != 4 { // file 4 is empty
			n = 50 + rng.Intn(400)
		}
		for i := 0; i < n; i++ {
			switch r := rng.Intn(10); {
			case r < 2 && len(pool) > 0:
				h := pool[rng.Intn(len(pool))]
				add(h, nil)
			case r < 4:
				// Even members of a family are stored, odd ones never are.
				family, member := rng.Intn(6), 2*rng.Intn(40)
				add(forge(family, member), []byte(fmt.Sprintf("forged %d/%d", family, member)))
				absent = append(absent, forge(family, member+1))
			default:
				h, p := rec(rng.Int())
				add(h, p)
			}
		}
		reads = append(reads, hashes...)
		paths = append(paths, writeBatch(t, hashes, payloads))
		if file == 2 { // the same records once more, in a file of their own
			reads = append(reads, hashes...)
			paths = append(paths, paths[len(paths)-1])
		}
	}
	for i := 0; i < 200; i++ {
		absent = append(absent, ledger.SHA512Half(binary.BigEndian.AppendUint64([]byte("absent"), uint64(i))))
	}
	total := len(reads)
	tableFor := func(records int) int {
		size := 16
		for size < 2*records {
			size <<= 1
		}
		return size
	}

	addAll := func(s *FileStore, paths []string) {
		t.Helper()
		for _, path := range paths {
			if err := s.Add(path); err != nil {
				t.Fatal(err)
			}
		}
	}
	read := func(s *FileStore, order []ledger.Hash) {
		t.Helper()
		for _, h := range order {
			got, err := s.Get(h)
			if err != nil || !bytes.Equal(got, model[h]) {
				t.Fatalf("Get(%s) = %x, %v; model %x", h.Short(), got, err, model[h])
			}
		}
	}
	checkRest := func(s *FileStore) {
		t.Helper()
		if s.Len() != len(model) {
			t.Fatalf("Len = %d, model holds %d", s.Len(), len(model))
		}
		for _, h := range absent {
			if got, err := s.Get(h); !errors.Is(err, ErrNotFound) {
				t.Fatalf("absent %s: got %x, %v", h.Short(), got, err)
			}
		}
		read(s, reads) // again, now behind misses and probes
		if 2*s.Len() > len(s.slots) {
			t.Fatalf("%d records in %d slots: table over half full", s.Len(), len(s.slots))
		}
	}

	// File order: every read is the record after the last one, so no
	// table is built until Len asks for a count.
	if _, err := (&FileStore{}).Get(absent[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("store of zero files: err = %v, want ErrNotFound", err)
	}
	inOrder := &FileStore{}
	addAll(inOrder, paths)
	read(inOrder, reads)
	if inOrder.slots != nil {
		t.Fatalf("a read in file order built a table of %d slots", len(inOrder.slots))
	}
	if inOrder.Len() != len(model) || len(inOrder.slots) != tableFor(total) {
		t.Fatalf("after a walk in file order: Len = %d (model %d), %d slots (want %d)",
			inOrder.Len(), len(model), len(inOrder.slots), tableFor(total))
	}
	checkRest(inOrder)

	// Reverse order: the first read misses and builds the table for
	// every record, and nothing rebuilds it.
	reversed := &FileStore{}
	addAll(reversed, paths)
	backwards := slices.Clone(reads)
	slices.Reverse(backwards)
	read(reversed, backwards)
	checkRest(reversed)
	if len(reversed.slots) != tableFor(total) {
		t.Fatalf("table sized for %d records has %d slots, want %d", total, len(reversed.slots), tableFor(total))
	}

	// Random order, into a table built from the first files alone: the
	// files added after it enter the table, which grows.
	grown := &FileStore{}
	addAll(grown, paths[:4])
	if _, err := grown.Get(absent[0]); !errors.Is(err, ErrNotFound) {
		t.Fatalf("absent %s: err = %v", absent[0].Short(), err)
	}
	built := len(grown.slots)
	addAll(grown, paths[4:])
	shuffled := slices.Clone(reads)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	read(grown, shuffled)
	checkRest(grown)
	if len(grown.slots) <= built {
		t.Fatalf("table built at %d slots never grew (%d slots)", built, len(grown.slots))
	}

	// A damaged file is refused whole and changes nothing.
	blob, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)-1] ^= 0x01 // the last record's CRC, after valid ones
	bad := filepath.Join(t.TempDir(), "bad.nodes")
	if err := os.WriteFile(bad, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	files, n := len(reversed.files), reversed.Len()
	if err := reversed.Add(bad); err == nil {
		t.Fatal("Add accepted a damaged file")
	}
	if len(reversed.files) != files || reversed.Len() != n {
		t.Fatal("a refused file changed the store")
	}
}

// TestFileStoreReadsBaseInFileOrder loads a state tree from a batch that
// WriteAll wrote, through FileStore.Get: WriteAll writes parents first,
// in the order Load asks for nodes, so the load never builds the table.
func TestFileStoreReadsBaseInFileOrder(t *testing.T) {
	tr := shamap.New()
	for i := 0; i < 3000; i++ {
		h, p := rec(i)
		tr.Set(h, p)
	}
	root := tr.Seal()
	path := filepath.Join(t.TempDir(), "base.nodes")
	fw, err := CreateFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nodes, err := tr.WriteAll(fw.Put)
	if err != nil {
		t.Fatal(err)
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := shamap.Load(root, fs.Get)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("loaded %d leaves, want %d", loaded.Len(), tr.Len())
	}
	if fs.slots != nil {
		t.Fatalf("loading %d nodes in file order built a table of %d slots", nodes, len(fs.slots))
	}
}

// FuzzNodeDecode feeds arbitrary bytes through the record decoder: it
// must never panic or over-allocate, and anything it accepts must
// re-encode to the identical frame.
func FuzzNodeDecode(f *testing.F) {
	h, payload := rec(5)
	f.Add(AppendRecord(nil, h, payload))
	f.Add([]byte{})
	f.Add(make([]byte, recordHeader+recordTrailer))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxPayload+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		rest := data
		for {
			h, payload, next, err := DecodeRecord(rest)
			if err != nil {
				break
			}
			consumed := rest[:len(rest)-len(next)]
			if got := AppendRecord(nil, h, payload); !bytes.Equal(got, consumed) {
				t.Fatalf("re-encode mismatch: %x vs %x", got, consumed)
			}
			if len(next) >= len(rest) {
				t.Fatal("decoder did not consume input")
			}
			rest = next
		}
	})
}
