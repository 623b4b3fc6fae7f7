// Package shamap implements a SHAMap-style authenticated radix tree: the
// Merkle structure rippled keeps over every ledger object, rebuilt here
// over the study engine's accounts, trust pairs, and offers. Keys are
// 256-bit object hashes; the tree branches on successive key nibbles, so
// lookups and updates touch at most 64 nodes and the structure is a pure
// function of the key set (inner nodes with a single leaf child collapse
// on delete, exactly undoing the split that insertion performs).
//
// Set and Delete edit nodes in place and mark the path they touch, and
// Seal hashes only the marked paths and stamps a root: a ledger close
// re-hashes the O(changed·depth) path to the root, and WriteNew emits
// only the nodes created or changed since it last ran. There is one
// live version of the tree; a sealed root is kept only as its hash, and
// the nodes under it can be had again from a store (Load).
//
// The byte encoding of a node (encode.go) is also its hash preimage, so
// a content-addressed store of encoded nodes is self-verifying: fetching
// the root hash and recursing through child hashes (Load) rebuilds the
// tree, and any corrupted byte fails the hash check on the node that
// carries it.
package shamap

import (
	"errors"
	"fmt"

	"ripplestudy/internal/ledger"
)

// node is one tree node: a leaf carrying a key/value pair, or an inner
// node with up to 16 children, one per nibble.
type node struct {
	hash   ledger.Hash
	hashed bool // hash is valid for the current content
	saved  bool // content has been handed to WriteNew (or came from Load)

	leaf     bool
	key      ledger.Hash // leaf only
	value    []byte      // leaf only; never written through
	children *[16]*node  // inner only; nil on a leaf, which keeps a leaf small
}

// Tree is the authenticated map. It is not safe for concurrent
// mutation; concurrent readers are safe while no writer runs.
type Tree struct {
	root *node
	size int
	// dirty is set by any mutation since the last Seal; WriteNew and
	// WriteAll require a sealed tree.
	dirty bool
	// lastRoot is the root hash Seal last produced (zero before the
	// first Seal; the empty tree seals to the zero hash).
	lastRoot ledger.Hash
}

// New creates an empty tree.
func New() *Tree { return &Tree{} }

// Len returns the number of leaves.
func (t *Tree) Len() int { return t.size }

// Root returns the root hash produced by the last Seal. It is the zero
// hash before the first Seal and for an empty tree.
func (t *Tree) Root() ledger.Hash { return t.lastRoot }

// nibble returns the d-th 4-bit digit of the key (big-endian, so nibble
// 0 is the high half of key[0]). Two distinct keys diverge at some
// nibble < 64.
func nibble(key ledger.Hash, d int) int {
	b := key[d>>1]
	if d&1 == 0 {
		return int(b >> 4)
	}
	return int(b & 0x0f)
}

// edited invalidates the node's cached hash and saved mark: its content
// is about to change.
func (n *node) edited() {
	n.hashed = false
	n.saved = false
}

// Get returns the value stored under key. The returned slice is owned
// by the tree: callers must not mutate it.
func (t *Tree) Get(key ledger.Hash) ([]byte, bool) {
	n := t.root
	for depth := 0; n != nil; depth++ {
		if n.leaf {
			if n.key == key {
				return n.value, true
			}
			return nil, false
		}
		n = n.children[nibble(key, depth)]
	}
	return nil, false
}

// Set inserts or replaces the value under key. The value bytes are
// copied in.
func (t *Tree) Set(key ledger.Hash, value []byte) {
	v := append([]byte(nil), value...)
	t.dirty = true
	t.root = t.set(t.root, 0, key, v)
}

func (t *Tree) set(n *node, depth int, key ledger.Hash, value []byte) *node {
	if n == nil {
		t.size++
		return &node{leaf: true, key: key, value: value}
	}
	if n.leaf {
		if n.key == key {
			n.edited()
			n.value = value
			return n
		}
		// Split: push the existing leaf one level down and retry. When
		// both keys share this nibble the recursion splits again, growing
		// the chain of single-child inner nodes the keys' common prefix
		// dictates.
		inner := &node{children: new([16]*node)}
		inner.children[nibble(n.key, depth)] = n
		return t.set(inner, depth, key, value)
	}
	n.edited()
	b := nibble(key, depth)
	n.children[b] = t.set(n.children[b], depth+1, key, value)
	return n
}

// Delete removes the leaf under key, reporting whether it existed.
func (t *Tree) Delete(key ledger.Hash) bool {
	root, ok := t.del(t.root, 0, key)
	if !ok {
		return false
	}
	t.dirty = true
	t.root = root
	t.size--
	return true
}

func (t *Tree) del(n *node, depth int, key ledger.Hash) (*node, bool) {
	if n == nil {
		return nil, false
	}
	if n.leaf {
		if n.key == key {
			return nil, true
		}
		return n, false
	}
	b := nibble(key, depth)
	child, ok := t.del(n.children[b], depth+1, key)
	if !ok {
		return n, false
	}
	n.edited()
	n.children[b] = child
	// Collapse: an inner node left holding a single leaf becomes that
	// leaf, restoring the canonical shape a from-scratch build of the
	// remaining keys would produce. A single *inner* child stays: all
	// keys below it share this node's nibble path, so the chain is
	// canonical. An emptied node vanishes (only possible transiently,
	// via the recursive collapse itself).
	var only *node
	count := 0
	for _, c := range n.children {
		if c != nil {
			count++
			only = c
		}
	}
	switch {
	case count == 0:
		return nil, true
	case count == 1 && only.leaf:
		return only, true
	}
	return n, true
}

// Seal hashes every node dirtied since the previous Seal and stamps the
// root. The empty tree seals to the zero hash.
func (t *Tree) Seal() ledger.Hash {
	var scratch []byte
	root := hashNode(t.root, &scratch)
	t.lastRoot = root
	t.dirty = false
	return root
}

// hashNode computes (and caches) the node's hash, recursing only into
// children whose caches were invalidated.
func hashNode(n *node, scratch *[]byte) ledger.Hash {
	if n == nil {
		return ledger.Hash{}
	}
	if !n.hashed {
		if !n.leaf {
			for _, c := range n.children {
				if c != nil {
					hashNode(c, scratch)
				}
			}
		}
		*scratch = appendNode((*scratch)[:0], n)
		n.hash = ledger.SHA512Half(*scratch)
		n.hashed = true
	}
	return n.hash
}

// ErrUnsealed is returned by operations that require a sealed tree.
var ErrUnsealed = errors.New("shamap: tree has unsealed mutations")

// Walk visits every leaf in key order (the radix order of the tree).
func (t *Tree) Walk(fn func(key ledger.Hash, value []byte) error) error {
	return walk(t.root, fn)
}

func walk(n *node, fn func(key ledger.Hash, value []byte) error) error {
	if n == nil {
		return nil
	}
	if n.leaf {
		return fn(n.key, n.value)
	}
	for _, c := range n.children {
		if c == nil {
			continue
		}
		if err := walk(c, fn); err != nil {
			return err
		}
	}
	return nil
}

// WriteNew emits the encoded form of every node reachable from the
// sealed root that has not yet been emitted — nodes created or changed
// since the last WriteNew (nodes materialized by Load count as already
// written). Children are emitted before their parents. The data slice
// passed to put is reused between calls; implementations that retain it
// must copy. Emitted nodes are marked, so successive WriteNew calls
// across seals together persist exactly the union of the trees, which a
// content-addressed store reassembles from any subset containing the
// latest root's closure. One call never passes put the same hash twice:
// leaf keys are unique in a tree, and an inner node's hash commits to
// its whole subtree, so two nodes of one tree never share an encoding.
func (t *Tree) WriteNew(put func(h ledger.Hash, data []byte) error) (int, error) {
	if t.dirty {
		return 0, ErrUnsealed
	}
	var scratch []byte
	return writeNode(t.root, &scratch, put)
}

func writeNode(n *node, scratch *[]byte, put func(h ledger.Hash, data []byte) error) (int, error) {
	if n == nil || n.saved {
		return 0, nil
	}
	count := 0
	if !n.leaf {
		for _, c := range n.children {
			if c == nil {
				continue
			}
			nc, err := writeNode(c, scratch, put)
			if err != nil {
				return count, err
			}
			count += nc
		}
	}
	// A sealed, unsaved node always has a valid cached hash.
	*scratch = appendNode((*scratch)[:0], n)
	if err := put(n.hash, *scratch); err != nil {
		return count, err
	}
	n.saved = true
	return count + 1, nil
}

// WriteAll emits the encoded form of every node reachable from the
// sealed root, parents before their children — the order Load fetches
// them in, so a store written this way is read front to back. It is the
// whole tree in one batch, whatever WriteNew has already emitted, and
// leaves the WriteNew marks alone. Like WriteNew, it never passes put
// the same hash twice. The data slice passed to put is reused between
// calls; implementations that retain it must copy.
func (t *Tree) WriteAll(put func(h ledger.Hash, data []byte) error) (int, error) {
	if t.dirty {
		return 0, ErrUnsealed
	}
	var scratch []byte
	return writeAll(t.root, &scratch, put)
}

func writeAll(n *node, scratch *[]byte, put func(h ledger.Hash, data []byte) error) (int, error) {
	if n == nil {
		return 0, nil
	}
	*scratch = appendNode((*scratch)[:0], n)
	if err := put(n.hash, *scratch); err != nil {
		return 0, err
	}
	count := 1
	if !n.leaf {
		for _, c := range n.children {
			nc, err := writeAll(c, scratch, put)
			count += nc
			if err != nil {
				return count, err
			}
		}
	}
	return count, nil
}

// Load materializes the tree sealed under root from a content-addressed
// node source: get must return the encoded node stored under the given
// hash. Every fetched node is verified against the hash that named it,
// so the returned tree is authenticated by root. A zero root loads the
// empty tree. The loaded tree reports root from Root() and is ready for
// further mutation, which edits the loaded nodes in place.
//
// The tree retains the slices get returns: a loaded leaf's value is a
// window on them, not a copy. An edit replaces a leaf's value and never
// writes through it. get must therefore return bytes that no one writes
// afterwards and that live as long as the tree — a nodestore.FileStore's
// file buffers and a MemStore's records are both.
//
// Nodes and child arrays are carved from slabs of loadSlab, so a load
// costs the allocator a few dozen calls rather than one or two per node.
// A slab lives as long as any node in it, which for a loaded tree is
// the tree's lifetime.
func Load(root ledger.Hash, get func(ledger.Hash) ([]byte, error)) (*Tree, error) {
	t := &Tree{lastRoot: root}
	if root.IsZero() {
		return t, nil
	}
	l := loader{get: get}
	n, size, err := l.node(root, 0)
	if err != nil {
		return nil, err
	}
	t.root = n
	t.size = size
	return t, nil
}

// loadSlab is the number of nodes, and of child arrays, one slab holds:
// at most 32 KiB each.
const loadSlab = 256

// loader carries one Load's node source and the unused rest of its
// current slabs.
type loader struct {
	get      func(ledger.Hash) ([]byte, error)
	nodes    []node
	children [][16]*node
}

// carve returns a zeroed element of the slab, which starts anew at
// loadSlab elements when it runs out.
func carve[T any](slab *[]T) *T {
	if len(*slab) == 0 {
		*slab = make([]T, loadSlab)
	}
	p := &(*slab)[0]
	*slab = (*slab)[1:]
	return p
}

func (l *loader) node(h ledger.Hash, depth int) (*node, int, error) {
	if depth > maxDepth {
		return nil, 0, fmt.Errorf("shamap: load: node %s beyond max depth", h.Short())
	}
	data, err := l.get(h)
	if err != nil {
		return nil, 0, fmt.Errorf("shamap: load %s: %w", h.Short(), err)
	}
	if ledger.SHA512Half(data) != h {
		return nil, 0, fmt.Errorf("shamap: load %s: content does not hash to its key", h.Short())
	}
	leaf, bitmap, body, err := splitNode(data)
	if err != nil {
		return nil, 0, fmt.Errorf("shamap: load %s: %w", h.Short(), err)
	}
	n := carve(&l.nodes)
	n.hash, n.hashed, n.saved = h, true, true
	if leaf {
		n.leaf = true
		n.key = ledger.Hash(body[:32])
		n.value = body[32:len(body):len(body)]
		return n, 1, nil
	}
	// Walk the packed child hashes where they lie: one per set bit.
	n.children = carve(&l.children)
	size := 0
	for i := 0; bitmap != 0; i, bitmap = i+1, bitmap>>1 {
		if bitmap&1 == 0 {
			continue
		}
		c, sz, err := l.node(ledger.Hash(body[:32]), depth+1)
		if err != nil {
			return nil, 0, err
		}
		body = body[32:]
		n.children[i] = c
		size += sz
	}
	return n, size, nil
}

// maxDepth is the deepest possible node: one nibble per level of a
// 256-bit key.
const maxDepth = 64
