package shamap

import (
	"encoding/binary"
	"fmt"
	"testing"

	"ripplestudy/internal/ledger"
)

// key derives a deterministic test key.
func key(i int) ledger.Hash {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i))
	return ledger.SHA512Half(buf[:])
}

func val(i int) []byte {
	return []byte(fmt.Sprintf("value-%d", i))
}

// build constructs a fresh tree from the entries of m, inserted in
// index order.
func build(n int, skip func(int) bool) *Tree {
	t := New()
	for i := 0; i < n; i++ {
		if skip != nil && skip(i) {
			continue
		}
		t.Set(key(i), val(i))
	}
	return t
}

func TestSetGetDelete(t *testing.T) {
	const n = 500
	tr := build(n, nil)
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := tr.Get(key(i))
		if !ok || string(got) != string(val(i)) {
			t.Fatalf("Get(%d) = %q, %v", i, got, ok)
		}
	}
	if _, ok := tr.Get(key(n + 1)); ok {
		t.Fatal("Get of absent key reported present")
	}
	for i := 0; i < n; i += 2 {
		if !tr.Delete(key(i)) {
			t.Fatalf("Delete(%d) reported absent", i)
		}
	}
	if tr.Delete(key(0)) {
		t.Fatal("double Delete reported present")
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len after deletes = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < n; i++ {
		_, ok := tr.Get(key(i))
		if want := i%2 == 1; ok != want {
			t.Fatalf("Get(%d) present=%v, want %v", i, ok, want)
		}
	}
}

// TestCanonicalRoot pins the core Merkle property: the sealed root is a
// pure function of the key/value set, independent of the mutation
// history that produced it.
func TestCanonicalRoot(t *testing.T) {
	const n = 300
	// Path A: insert everything, delete the multiples of 3, overwrite
	// the multiples of 5, with interleaved seals.
	a := build(n, nil)
	a.Seal()
	for i := 0; i < n; i += 3 {
		a.Delete(key(i))
	}
	a.Seal()
	for i := 0; i < n; i += 5 {
		if i%3 == 0 {
			continue
		}
		a.Set(key(i), []byte("overwritten"))
	}
	rootA := a.Seal()

	// Path B: build the final state from scratch, reverse order, one seal.
	b := New()
	for i := n - 1; i >= 0; i-- {
		if i%3 == 0 {
			continue
		}
		if i%5 == 0 {
			b.Set(key(i), []byte("overwritten"))
		} else {
			b.Set(key(i), val(i))
		}
	}
	if rootB := b.Seal(); rootB != rootA {
		t.Fatalf("roots diverge: %s vs %s", rootA.Short(), rootB.Short())
	}
	if a.Len() != b.Len() {
		t.Fatalf("sizes diverge: %d vs %d", a.Len(), b.Len())
	}
}

func TestEmptyTreeSealsToZero(t *testing.T) {
	tr := New()
	if root := tr.Seal(); !root.IsZero() {
		t.Fatalf("empty tree sealed to %s", root.Short())
	}
	tr.Set(key(1), val(1))
	tr.Delete(key(1))
	if root := tr.Seal(); !root.IsZero() {
		t.Fatalf("emptied tree sealed to %s", root.Short())
	}
}

func TestSealIdempotentAndSensitive(t *testing.T) {
	tr := build(100, nil)
	r1 := tr.Seal()
	if r2 := tr.Seal(); r2 != r1 {
		t.Fatalf("re-seal without mutation changed root: %s vs %s", r1.Short(), r2.Short())
	}
	tr.Set(key(7), []byte("changed"))
	if r3 := tr.Seal(); r3 == r1 {
		t.Fatal("root unchanged after value change")
	}
	tr.Set(key(7), val(7))
	if r4 := tr.Seal(); r4 != r1 {
		t.Fatalf("restoring the value did not restore the root: %s vs %s", r1.Short(), r4.Short())
	}
}

// TestSnapshotIsolation pins copy-on-write: mutations after a seal leave
// the snapshot's contents and root untouched, in both directions.
func TestSnapshotIsolation(t *testing.T) {
	tr := build(64, nil)
	root := tr.Seal()
	snap, err := tr.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tr.Set(key(3), []byte("mutated"))
	tr.Delete(key(10))
	tr.Set(key(1000), val(1000))
	if got, _ := snap.Get(key(3)); string(got) != string(val(3)) {
		t.Fatalf("snapshot saw live mutation: %q", got)
	}
	if _, ok := snap.Get(key(10)); !ok {
		t.Fatal("snapshot lost a deleted key")
	}
	if r := snap.Seal(); r != root {
		t.Fatalf("snapshot root drifted: %s vs %s", r.Short(), root.Short())
	}
	// And the other direction: mutating the snapshot leaves the live
	// tree's state alone.
	snap.Set(key(5), []byte("snap-only"))
	if got, _ := tr.Get(key(5)); string(got) != string(val(5)) {
		t.Fatalf("live tree saw snapshot mutation: %q", got)
	}

	tr.Set(key(4), []byte("x"))
	if _, err := tr.Snapshot(); err == nil {
		t.Fatal("Snapshot of a dirty tree did not error")
	}
}

func TestWalkOrderAndCompleteness(t *testing.T) {
	const n = 200
	tr := build(n, func(i int) bool { return i%7 == 0 })
	var prev ledger.Hash
	first := true
	seen := 0
	err := tr.Walk(func(k ledger.Hash, v []byte) error {
		if !first && string(prev[:]) >= string(k[:]) {
			t.Fatalf("walk order violated: %s ≥ %s", prev.Short(), k.Short())
		}
		prev, first = k, false
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != tr.Len() {
		t.Fatalf("walk visited %d of %d leaves", seen, tr.Len())
	}
}

// storeMap is a minimal content-addressed store for round-trip tests.
type storeMap map[ledger.Hash][]byte

func (m storeMap) put(h ledger.Hash, data []byte) error {
	m[h] = append([]byte(nil), data...)
	return nil
}

func (m storeMap) get(h ledger.Hash) ([]byte, error) {
	d, ok := m[h]
	if !ok {
		return nil, fmt.Errorf("missing node %s", h.Short())
	}
	return d, nil
}

func TestWriteNewLoadRoundTrip(t *testing.T) {
	store := storeMap{}
	tr := build(150, nil)
	root1 := tr.Seal()
	n1, err := tr.WriteNew(store.put)
	if err != nil {
		t.Fatal(err)
	}
	if n1 == 0 {
		t.Fatal("first WriteNew wrote nothing")
	}

	// Incremental: a second WriteNew after a small change writes only
	// the changed path, and the union of both batches still loads.
	tr.Set(key(3), []byte("changed"))
	tr.Delete(key(4))
	root2 := tr.Seal()
	n2, err := tr.WriteNew(store.put)
	if err != nil {
		t.Fatal(err)
	}
	if n2 == 0 || n2 >= n1 {
		t.Fatalf("incremental WriteNew wrote %d nodes (full write was %d)", n2, n1)
	}
	if n3, _ := tr.WriteNew(store.put); n3 != 0 {
		t.Fatalf("idle WriteNew wrote %d nodes", n3)
	}

	for _, root := range []ledger.Hash{root1, root2} {
		loaded, err := Load(root, store.get)
		if err != nil {
			t.Fatal(err)
		}
		if loaded.Root() != root {
			t.Fatalf("loaded root %s, want %s", loaded.Root().Short(), root.Short())
		}
		if reroot := loaded.Seal(); reroot != root {
			t.Fatalf("loaded tree re-seals to %s, want %s", reroot.Short(), root.Short())
		}
	}

	// The loaded tree matches leaf-for-leaf and keeps working.
	loaded, err := Load(root2, store.get)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != tr.Len() {
		t.Fatalf("loaded %d leaves, want %d", loaded.Len(), tr.Len())
	}
	err = tr.Walk(func(k ledger.Hash, v []byte) error {
		got, ok := loaded.Get(k)
		if !ok || string(got) != string(v) {
			return fmt.Errorf("leaf %s: got %q, %v", k.Short(), got, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	loaded.Set(key(9999), val(9999))
	tr.Set(key(9999), val(9999))
	if a, b := loaded.Seal(), tr.Seal(); a != b {
		t.Fatalf("post-load mutation diverged: %s vs %s", a.Short(), b.Short())
	}

	// Loaded nodes count as saved: WriteNew persists only the new path.
	wrote, err := loaded.WriteNew(store.put)
	if err != nil {
		t.Fatal(err)
	}
	if wrote == 0 || wrote > maxDepth+1 {
		t.Fatalf("post-load WriteNew wrote %d nodes", wrote)
	}
}

func TestWriteNewRequiresSeal(t *testing.T) {
	tr := build(10, nil)
	if _, err := tr.WriteNew(storeMap{}.put); err == nil {
		t.Fatal("WriteNew on an unsealed tree did not error")
	}
}

func TestLoadRejectsCorruption(t *testing.T) {
	store := storeMap{}
	tr := build(50, nil)
	root := tr.Seal()
	if _, err := tr.WriteNew(store.put); err != nil {
		t.Fatal(err)
	}
	// Flip one byte in one stored node: the load must fail (on that
	// node's hash check), never return a silently wrong tree.
	for h, data := range store {
		bad := append([]byte(nil), data...)
		bad[len(bad)-1] ^= 0x01
		store[h] = bad
		if _, err := Load(root, store.get); err == nil {
			t.Fatalf("load succeeded over corrupted node %s", h.Short())
		}
		store[h] = data
		break
	}
	// A missing interior node fails too.
	for h := range store {
		saved := store[h]
		delete(store, h)
		if _, err := Load(root, store.get); err == nil {
			t.Fatalf("load succeeded with node %s missing", h.Short())
		}
		store[h] = saved
		break
	}
}

// TestLoadAllocs pins what a loaded node costs the allocator: the node
// itself, and for a leaf the copy of its value. Nothing is decoded into
// an intermediate form on the way, so nothing else is allocated per node
// — the handful over is the tree and the error-free walk's fixed cost.
func TestLoadAllocs(t *testing.T) {
	store := storeMap{}
	tr := build(2000, nil)
	root := tr.Seal()
	nodes, err := tr.WriteNew(store.put)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Load(root, store.get); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(nodes + tr.Len()); allocs < want || allocs > want+4 {
		t.Fatalf("Load of %d nodes (%d leaves) made %.0f allocations, want %.0f", nodes, tr.Len(), allocs, want)
	}
}

func TestDecodeNodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		{},
		{'X'},
		{'L'},
		append([]byte{'L'}, make([]byte, 16)...), // short key
		{'I'},
		{'I', 0x00},
		{'I', 0x00, 0x01},                        // bitmap wants 1 child, none present
		append([]byte{'I', 0x00, 0x00}, 1, 2, 3), // bitmap empty but trailing bytes
		append([]byte{'I', 0x80, 0x00}, make([]byte, 32)...), // zero child hash
	}
	for i, c := range cases {
		if _, _, _, err := splitNode(c); err == nil {
			t.Errorf("case %d: splitNode accepted %x", i, c)
		}
	}
}
