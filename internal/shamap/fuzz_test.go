package shamap

import (
	"bytes"
	"maps"
	"testing"

	"ripplestudy/internal/ledger"
)

// FuzzShamapOps drives a random insert/update/delete sequence against
// one tree (with seals interleaved) and checks the fundamental Merkle
// invariant: a sealed root equals the root of a tree rebuilt from
// scratch out of the surviving entries — the sealed root is a pure
// function of the key/value set. Around it:
//   - at every interleaved seal the tree's leaves are the model's, and
//     its WriteNew and WriteAll calls never pass put the same hash twice;
//   - the final tree loads back from the union of every WriteNew batch,
//     and from WriteAll alone, whose records come parents first;
//   - the tree loaded from WriteAll runs a second op sequence against
//     the model, editing loaded nodes in place, and reseals to the
//     rebuilt root and loads back from its batches; the store it loaded
//     from, whose bytes its leaves alias, stays byte-identical.
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
		store := storeMap{}
		runOps(t, tr, model, ops, store)
		root := tr.Seal()
		checkRebuilt(t, model, root)
		writeOnce(t, "WriteNew", tr.WriteNew, store)
		loaded, err := Load(root, store.get)
		if err != nil {
			t.Fatalf("the WriteNew batches do not load: %v", err)
		}
		checkLeaves(t, "loaded", loaded, model)

		base := storeMap{}
		checkParentsFirst(t, base, writeOnce(t, "WriteAll", tr.WriteAll, base))
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
		more := storeMap{}
		runOps(t, fromBase, model, second, more)
		root = fromBase.Seal()
		checkRebuilt(t, model, root)
		writeOnce(t, "WriteNew after Load", fromBase.WriteNew, more)
		if !maps.EqualFunc(base, pristine, bytes.Equal) {
			t.Fatal("mutating a loaded tree wrote through to the store it loaded from")
		}
		reloaded, err := Load(root, func(h ledger.Hash) ([]byte, error) {
			if d, ok := more[h]; ok {
				return d, nil
			}
			return base.get(h)
		})
		if err != nil {
			t.Fatalf("the base and the batches written after it do not load: %v", err)
		}
		checkLeaves(t, "reloaded", reloaded, model)
	})
}

// runOps applies one op sequence to tr and to model. At every
// interleaved seal it holds the tree to the model and writes the seal's
// new nodes into store.
func runOps(t *testing.T, tr *Tree, model map[ledger.Hash][]byte, ops []byte, store storeMap) {
	t.Helper()
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
			checkRebuilt(t, model, tr.Seal())
			checkLeaves(t, "sealed", tr, model)
			writeOnce(t, "WriteNew", tr.WriteNew, store)
			writeOnce(t, "WriteAll", tr.WriteAll, storeMap{})
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model has %d", tr.Len(), len(model))
	}
}

// writeOnce runs one WriteNew or WriteAll call into store and returns
// the hashes in the order put received them. It fails when the call
// passes put a hash twice or reports another count than it put: a batch
// file takes what it is given, so the tree is what keeps it free of
// repeats.
func writeOnce(t *testing.T, what string, write func(func(ledger.Hash, []byte) error) (int, error), store storeMap) []ledger.Hash {
	t.Helper()
	var order []ledger.Hash
	seen := make(map[ledger.Hash]bool)
	n, err := write(func(h ledger.Hash, data []byte) error {
		if seen[h] {
			t.Fatalf("%s put %s twice in one call", what, h.Short())
		}
		seen[h] = true
		order = append(order, h)
		return store.put(h, data)
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(order) {
		t.Fatalf("%s reported %d nodes, put %d", what, n, len(order))
	}
	return order
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
