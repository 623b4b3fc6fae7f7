package shamap

import (
	"bytes"
	"maps"
	"testing"

	"ripplestudy/internal/ledger"
)

// FuzzShamapOps drives a random insert/update/delete sequence against
// one tree (with seals interleaved) and checks the fundamental Merkle
// invariant: the final root equals the root of a tree rebuilt from
// scratch out of the surviving entries — the sealed root is a pure
// function of the key/value set. Around it:
//   - a Snapshot taken at every interleaved seal keeps its root, its
//     leaves and its Get results through every later mutation, so no
//     copy-on-write copy shares a child array with the generation it
//     was copied from;
//   - the final tree round-trips through WriteNew/Load, and through
//     WriteAll alone, whose records come parents first;
//   - the tree loaded from WriteAll runs a second op sequence against
//     the model and reseals to the rebuilt root, while the store it
//     loaded from, whose bytes its leaves alias, stays byte-identical.
func FuzzShamapOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02})
	f.Add([]byte{0x80, 0x01, 0x81, 0x01, 0x41, 0x01, 0xC1})
	f.Add(bytes.Repeat([]byte{0x01, 0x02, 0x83, 0x44}, 40))
	// Several keys, a seal between inserts and deletes and another after.
	f.Add([]byte{0x00, 0x01, 0x00, 0x02, 0x00, 0x03, 0x00, 0x04, 0x00, 0x05, 0x03, 0x00,
		0x02, 0x02, 0x01, 0x03, 0x00, 0x06, 0x03, 0x00, 0x02, 0x01})

	f.Fuzz(func(t *testing.T, ops []byte) {
		tr := New()
		model := make(map[ledger.Hash][]byte)
		snaps := runOps(t, tr, model, ops)
		root := tr.Seal()
		checkRebuilt(t, model, root)

		store := storeMap{}
		if _, err := tr.WriteNew(store.put); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(root, store.get)
		if err != nil {
			t.Fatal(err)
		}
		checkLeaves(t, "loaded", loaded, model)

		base := storeMap{}
		var order []ledger.Hash
		n, err := tr.WriteAll(func(h ledger.Hash, data []byte) error {
			order = append(order, h)
			return base.put(h, data)
		})
		if err != nil {
			t.Fatal(err)
		}
		if n != len(base) || n != len(order) {
			t.Fatalf("WriteAll reported %d nodes, put %d, stored %d distinct", n, len(order), len(base))
		}
		checkParentsFirst(t, base, order)
		fromBase, err := Load(root, base.get)
		if err != nil {
			t.Fatalf("WriteAll output alone does not load: %v", err)
		}
		checkLeaves(t, "loaded from WriteAll", fromBase, model)

		pristine := make(storeMap, len(base))
		for h, d := range base {
			pristine[h] = bytes.Clone(d)
		}
		// The second sequence reads the first backwards, so it deletes and
		// overwrites what the first left behind.
		second := bytes.Clone(ops)
		for i, j := 0, len(second)-1; i < j; i, j = i+1, j-1 {
			second[i], second[j] = second[j], second[i]
		}
		snaps = append(snaps, runOps(t, fromBase, model, second)...)
		checkRebuilt(t, model, fromBase.Seal())
		if !maps.EqualFunc(base, pristine, bytes.Equal) {
			t.Fatal("mutating a loaded tree wrote through to the store it loaded from")
		}
		for i, s := range snaps {
			if got := s.tree.Root(); got != s.root {
				t.Fatalf("snapshot %d: root %s, sealed %s", i, got.Short(), s.root.Short())
			}
			checkLeaves(t, "snapshot", s.tree, s.model)
		}
	})
}

// sealedSnapshot is a Snapshot together with what it must keep showing.
type sealedSnapshot struct {
	tree  *Tree
	root  ledger.Hash
	model map[ledger.Hash][]byte
}

// runOps applies one op sequence to tr and to model, snapshotting at
// every interleaved seal.
func runOps(t *testing.T, tr *Tree, model map[ledger.Hash][]byte, ops []byte) []sealedSnapshot {
	t.Helper()
	var snaps []sealedSnapshot
	for i := 0; i+1 < len(ops); i += 2 {
		op, sel := ops[i], ops[i+1]
		// Keys are drawn from a small hashed universe so inserts,
		// overwrites, and deletes collide often.
		k := ledger.SHA512Half([]byte{sel & 0x3f})
		switch op % 4 {
		case 0, 1: // insert / overwrite
			v := []byte{op, sel}
			tr.Set(k, v)
			model[k] = v
		case 2: // delete
			_, want := model[k]
			if got := tr.Delete(k); got != want {
				t.Fatalf("op %d: Delete = %v, model says %v", i, got, want)
			}
			delete(model, k)
		case 3: // interleaved seal
			root := tr.Seal()
			s, err := tr.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			snaps = append(snaps, sealedSnapshot{s, root, maps.Clone(model)})
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
	}
	return snaps
}

// checkRebuilt holds root to the root of a tree built from scratch out
// of model.
func checkRebuilt(t *testing.T, model map[ledger.Hash][]byte, root ledger.Hash) {
	t.Helper()
	rebuilt := New()
	for k, v := range model {
		rebuilt.Set(k, v)
	}
	if r := rebuilt.Seal(); r != root {
		t.Fatalf("rebuilt root %s, incremental root %s", r.Short(), root.Short())
	}
}

// checkLeaves holds tr to exactly model's entries, by Walk and by Get.
func checkLeaves(t *testing.T, what string, tr *Tree, model map[ledger.Hash][]byte) {
	t.Helper()
	if tr.Len() != len(model) {
		t.Fatalf("%s: %d leaves, model has %d", what, tr.Len(), len(model))
	}
	walked := 0
	err := tr.Walk(func(k ledger.Hash, v []byte) error {
		walked++
		if want, ok := model[k]; !ok || !bytes.Equal(v, want) {
			t.Fatalf("%s: walked leaf %s = %q, model has %q (%v)", what, k.Short(), v, want, ok)
		}
		return nil
	})
	if err != nil || walked != len(model) {
		t.Fatalf("%s: walked %d leaves (%v), model has %d", what, walked, err, len(model))
	}
	for k, v := range model {
		got, ok := tr.Get(k)
		if !ok || !bytes.Equal(got, v) {
			t.Fatalf("%s: leaf %s = %q, %v; want %q", what, k.Short(), got, ok, v)
		}
	}
}

// checkParentsFirst holds a WriteAll record order to the order Load
// fetches in: every inner node's children come after it.
func checkParentsFirst(t *testing.T, store storeMap, order []ledger.Hash) {
	t.Helper()
	at := make(map[ledger.Hash]int, len(order))
	for i, h := range order {
		at[h] = i
	}
	for i, h := range order {
		leaf, _, body, err := splitNode(store[h])
		if err != nil {
			t.Fatal(err)
		}
		for ; !leaf && len(body) > 0; body = body[32:] {
			if c := ledger.Hash(body[:32]); at[c] <= i {
				t.Fatalf("WriteAll put child %s at %d, its parent at %d", c.Short(), at[c], i)
			}
		}
	}
}
