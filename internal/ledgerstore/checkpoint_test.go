package ledgerstore

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/nodestore"
)

func cpRec(i int) (ledger.Hash, []byte) {
	payload := []byte{byte(i), byte(i >> 8), 0xCC}
	return ledger.SHA512Half(payload), payload
}

func writeTestCheckpoint(t *testing.T, dir string, seq uint64, recs ...int) CheckpointMeta {
	t.Helper()
	meta := CheckpointMeta{Seq: seq, Root: ledger.SHA512Half([]byte{byte(seq)})}
	err := WriteCheckpoint(dir, &meta, func(put func(ledger.Hash, []byte) error) (int, error) {
		for _, i := range recs {
			h, p := cpRec(i)
			if err := put(h, p); err != nil {
				return 0, err
			}
		}
		return len(recs), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return meta
}

func TestCheckpointWriteListOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), CheckpointDirName)
	m1 := writeTestCheckpoint(t, dir, 100, 1, 2, 3)
	m2 := writeTestCheckpoint(t, dir, 300, 4, 5)
	// Idempotent: a second write at the same sequence is a no-op.
	again := CheckpointMeta{Seq: 100, Root: ledger.Hash{0xFF}}
	if err := WriteCheckpoint(dir, &again, func(func(ledger.Hash, []byte) error) (int, error) {
		t.Fatal("emit ran for an existing checkpoint")
		return 0, nil
	}); err != nil {
		t.Fatal(err)
	}

	metas, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 2 || metas[0].Seq != 100 || metas[1].Seq != 300 {
		t.Fatalf("listed %+v", metas)
	}
	if metas[0].NewNodes != 3 || metas[0].NodesBytes != m1.NodesBytes {
		t.Fatalf("first meta %+v, wrote %+v", metas[0], m1)
	}

	// One store unions both batches.
	getter, err := OpenCheckpointNodes(dir, metas)
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{1, 2, 3, 4, 5} {
		h, p := cpRec(i)
		got, err := getter.Get(h)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if string(got) != string(p) {
			t.Fatalf("record %d: got %x", i, got)
		}
	}

	// A damaged batch stops the open there: the error, and with it the
	// store over the batches before — every older checkpoint's nodes.
	p300 := checkpointNodesPath(dir, 300)
	blob, err := os.ReadFile(p300)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x04 // same size, so the manifest still lists it
	if err := os.WriteFile(p300, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	short, err := OpenCheckpointNodes(dir, metas)
	if err == nil {
		t.Fatal("open accepted a damaged batch")
	}
	if short.Len() != m1.NewNodes {
		t.Fatalf("store after a damaged second batch holds %d records, first batch has %d", short.Len(), m1.NewNodes)
	}
	for _, i := range []int{1, 2, 3} {
		h, _ := cpRec(i)
		if _, err := short.Get(h); err != nil {
			t.Fatalf("record %d of the undamaged batch: %v", i, err)
		}
	}
	_ = m2
}

func TestListCheckpointsSkipsDamage(t *testing.T) {
	dir := filepath.Join(t.TempDir(), CheckpointDirName)
	writeTestCheckpoint(t, dir, 100, 1)
	writeTestCheckpoint(t, dir, 200, 2)
	writeTestCheckpoint(t, dir, 300, 3)

	// 100: nodes file truncated (size mismatch vs manifest).
	p100 := checkpointNodesPath(dir, 100)
	blob, err := os.ReadFile(p100)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p100, blob[:len(blob)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	// 200: manifest is garbage.
	if err := os.WriteFile(checkpointMetaPath(dir, 200), []byte("{nope"), 0o644); err != nil {
		t.Fatal(err)
	}
	// 250 and 260: well-formed JSON no writer produces — a key name with
	// a flipped byte (its field would silently stay zero), and bytes after
	// the closing brace.
	for seq, edit := range map[uint64]func(string) string{
		250: func(m string) string { return strings.Replace(m, `"state_digest"`, `"state_eigest"`, 1) },
		260: func(m string) string { return m + "{}" },
	} {
		writeTestCheckpoint(t, dir, seq, int(seq))
		manifest, err := os.ReadFile(checkpointMetaPath(dir, seq))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointMetaPath(dir, seq), []byte(edit(string(manifest))), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A nodes file with no manifest at all (interrupted write) is ignored.
	if fw, err := nodestore.CreateFile(checkpointNodesPath(dir, 400)); err != nil {
		t.Fatal(err)
	} else {
		fw.Close()
	}

	metas, err := ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) != 1 || metas[0].Seq != 300 {
		t.Fatalf("listed %+v, want only seq 300", metas)
	}
}

func TestListCheckpointsNoDir(t *testing.T) {
	metas, err := ListCheckpoints(filepath.Join(t.TempDir(), "missing"))
	if err != nil || metas != nil {
		t.Fatalf("got %v, %v; want empty, nil", metas, err)
	}
}

// TestCheckpointBaseWriteOpen pins the base file's life cycle: it opens
// as one store, a newer base deletes the older ones and the tmp files
// their interrupted writes left, an older base leaves a newer one alone,
// and a stale tmp under the name being written is replaced.
func TestCheckpointBaseWriteOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), CheckpointDirName)
	writeTestCheckpoint(t, dir, 100, 1)
	writeBase := func(seq uint64, recs ...int) {
		t.Helper()
		err := WriteCheckpointBase(dir, seq, func(put func(ledger.Hash, []byte) error) (int, error) {
			for _, i := range recs {
				h, p := cpRec(i)
				if err := put(h, p); err != nil {
					return 0, err
				}
			}
			return len(recs), nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	bases := func() []string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(dir, "*.base*"))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range matches {
			matches[i] = filepath.Base(m)
		}
		return matches
	}
	for _, name := range []string{"cp-0000000000000050.base.tmp", "cp-0000000000000300.base.tmp", "cp-0000000000000400.base.tmp"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	writeBase(100, 1, 2)
	writeBase(300, 1, 2, 3)
	if got := strings.Join(bases(), " "); got != "cp-0000000000000300.base cp-0000000000000400.base.tmp" {
		t.Fatalf("after the base at 300: %s", got)
	}
	writeBase(200, 1)
	if got := strings.Join(bases(), " "); got != "cp-0000000000000200.base cp-0000000000000300.base cp-0000000000000400.base.tmp" {
		t.Fatalf("after the base at 200: %s", got)
	}

	store, err := OpenCheckpointBase(dir, 300)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 3 {
		t.Fatalf("base at 300 holds %d records, wrote 3", store.Len())
	}
	for _, i := range []int{1, 2, 3} {
		h, p := cpRec(i)
		if got, err := store.Get(h); err != nil || string(got) != string(p) {
			t.Fatalf("record %d: %x, %v", i, got, err)
		}
	}
	if _, err := OpenCheckpointBase(dir, 100); err == nil {
		t.Fatal("the superseded base at 100 still opens")
	}
	// A base is not a checkpoint: the listing is the manifests'.
	if metas, err := ListCheckpoints(dir); err != nil || len(metas) != 1 || metas[0].Seq != 100 {
		t.Fatalf("listed %+v, %v", metas, err)
	}
}
