package deanon

import "slices"

// countTable is the shard-local fingerprint counter: an open-addressed,
// linear-probed table with 8-byte keys and 1-byte saturating counts.
// Two properties of the workload make it much cheaper than a Go map:
//
//   - Fingerprints are already FNV-1a outputs, uniformly mixed, so the
//     low bits index the table directly — no per-access re-hashing.
//   - The study only distinguishes count 0 / 1 / ≥2, so a uint8
//     saturating at 2 replaces a uint32, and the whole table is 9 bytes
//     per slot (vs ~17 bytes per entry in a map[Fingerprint]uint32
//     bucket array, before overflow buckets).
//
// Shard routing uses the fingerprint's HIGH bits (shardCore), the
// probe sequence its LOW bits, so the two never interfere.
//
// The all-zero fingerprint doubles as the empty-slot marker; its count
// lives out-of-band in zeroCount.
//
// The live table stays flat; what a seal publishes is paged. Every real
// mutation (an insert, or a count's 1 → 2 step) marks its page dirty,
// and seal copies only the dirty pages, sharing the rest with the
// previous seal, so a publish costs O(pages written since the last
// seal), not O(capacity) — until half the pages are dirty, when one
// whole copy is the cheaper publish.
type countTable struct {
	keys   []Fingerprint
	counts []uint8
	mask   uint64
	// used is the number of occupied slots (excluding the zero key).
	used      int
	zeroCount uint8
	// uniques is the number of fingerprints currently at count exactly 1,
	// maintained incrementally by incr so reading it is O(1) instead of
	// an O(capacity) table scan per Results call.
	uniques int
	// dirty[p] marks page p (slots p<<sealPageShift onwards) as written
	// since the last seal.
	dirty []bool
	// last is the table's most recent seal, whose clean pages the next
	// seal shares. nil when the table is new or grown since: its pages
	// no longer describe these arrays, so the next seal copies in full.
	last *sealedTable
}

const (
	// countTableMinCap is the initial capacity (power of two).
	countTableMinCap = 256
	// countTable grows when used exceeds cap×13/16 (≈81% load).
	countTableLoadNum = 13
	countTableLoadDen = 16
	// sealPageShift sizes the copy-on-write unit of a seal: pages of
	// 1<<sealPageShift slots, 576 bytes of keys and counts. Smaller pages
	// copy less per scattered increment, but every page costs two
	// pointers that each incremental seal copies; 64 slots read best on
	// the live_follow benchmark (EXPERIMENTS.md). countTableMinCap must be
	// a multiple of the page.
	sealPageShift = 6
	sealPageSlots = 1 << sealPageShift
)

func newCountTable() *countTable {
	return &countTable{
		keys:   make([]Fingerprint, countTableMinCap),
		counts: make([]uint8, countTableMinCap),
		mask:   countTableMinCap - 1,
		dirty:  make([]bool, countTableMinCap>>sealPageShift),
	}
}

// incr bumps fp's saturating counter, keeping uniques current from the
// transition it causes: 0→1 gains a unique fingerprint, 1→2 loses one.
func (t *countTable) incr(fp Fingerprint) {
	if fp == 0 {
		switch t.zeroCount {
		case 0:
			t.uniques++
		case 1:
			t.uniques--
		}
		if t.zeroCount < countSaturated {
			t.zeroCount++
		}
		return
	}
	i := uint64(fp) & t.mask
	for {
		switch t.keys[i] {
		case fp:
			// A present key counts 1 or countSaturated; only 1 → 2 is a
			// mutation, and it loses a unique fingerprint.
			if t.counts[i] == 1 {
				t.counts[i] = countSaturated
				t.uniques--
				t.dirty[i>>sealPageShift] = true
			}
			return
		case 0:
			t.keys[i] = fp
			t.counts[i] = 1
			t.dirty[i>>sealPageShift] = true
			t.used++
			t.uniques++
			if t.used*countTableLoadDen > len(t.keys)*countTableLoadNum {
				t.grow()
			}
			return
		}
		i = (i + 1) & t.mask
	}
}

// get returns fp's saturating count (0 = never seen, 1 = unique,
// countSaturated = seen at least twice). O(1) expected.
func (t *countTable) get(fp Fingerprint) uint8 {
	if fp == 0 {
		return t.zeroCount
	}
	i := uint64(fp) & t.mask
	for {
		switch t.keys[i] {
		case fp:
			return t.counts[i]
		case 0:
			return 0
		}
		i = (i + 1) & t.mask
	}
}

// grow doubles the table and reinserts every occupied slot. Every slot
// moves, so the next seal copies in full.
func (t *countTable) grow() {
	oldKeys, oldCounts := t.keys, t.counts
	t.keys = make([]Fingerprint, 2*len(oldKeys))
	t.counts = make([]uint8, 2*len(oldCounts))
	t.mask = uint64(len(t.keys) - 1)
	t.dirty = make([]bool, len(t.keys)>>sealPageShift)
	t.last = nil
	for j, k := range oldKeys {
		if k == 0 {
			continue
		}
		i := uint64(k) & t.mask
		for t.keys[i] != 0 {
			i = (i + 1) & t.mask
		}
		t.keys[i] = k
		t.counts[i] = oldCounts[j]
	}
}

// unique returns the number of fingerprints seen exactly once —
// maintained incrementally by incr, so reading it is O(1).
func (t *countTable) unique() int { return t.uniques }

// uniqueScan recomputes unique() from the slots; the O(capacity)
// reference implementation the incremental counter is tested against.
func (t *countTable) uniqueScan() int {
	n := 0
	for i, k := range t.keys {
		if k != 0 && t.counts[i] == 1 {
			n++
		}
	}
	if t.zeroCount == 1 {
		n++
	}
	return n
}

// distinct returns the number of distinct fingerprints in the table.
func (t *countTable) distinct() int {
	n := t.used
	if t.zeroCount > 0 {
		n++
	}
	return n
}

// bytes reports the table's resident footprint (keys + counts arrays).
func (t *countTable) bytes() int {
	return len(t.keys)*8 + len(t.counts)
}

// sealedTable is one immutable published epoch of a countTable: the same
// open-addressed layout cut into pages, one array of page pointers each
// for keys and counts. Pages are never written after a seal, so a later
// seal shares every page it did not have to copy, and any number of
// snapshots can hold any mix of old and new pages.
type sealedTable struct {
	keys      []*[sealPageSlots]Fingerprint
	counts    []*[sealPageSlots]uint8
	mask      uint64
	used      int
	zeroCount uint8
	uniques   int
}

// emptySealed is the one immutable empty table: what a shard's row
// publishes before it has counted anything.
var emptySealed = newCountTable().sealWhole()

// seal publishes the table's current counts. Pages no increment has
// written since the previous seal are shared with it by pointer, and a
// table with nothing written is shared whole. A table with no previous
// seal — new or grown since — is copied whole, and so is one with at
// least half its pages dirty, as under a firehose: one memmove beats a
// page-by-page copy there, and it drops the earlier copies' pages, so
// the current seal never pins more than twice the table.
func (t *countTable) seal() *sealedTable {
	if t.last == nil && t.used == 0 && t.zeroCount == 0 {
		return emptySealed
	}
	dirty := 0
	for _, d := range t.dirty {
		if d {
			dirty++
		}
	}
	switch {
	case t.last == nil || 2*dirty >= len(t.dirty):
		t.last = t.sealWhole()
	case dirty > 0 || t.last.zeroCount != t.zeroCount:
		t.last = t.sealDirty(t.last)
	}
	return t.last
}

// sealWhole copies both arrays — slices.Clone, not make + copy, because
// growslice leaves the prefix it copies into unzeroed — and points the
// pages into the copies.
func (t *countTable) sealWhole() *sealedTable {
	keys, counts := slices.Clone(t.keys), slices.Clone(t.counts)
	n := len(keys) >> sealPageShift
	s := t.sealHeader(make([]*[sealPageSlots]Fingerprint, n), make([]*[sealPageSlots]uint8, n))
	for p := range n {
		lo := p << sealPageShift
		s.keys[p] = (*[sealPageSlots]Fingerprint)(keys[lo:])
		s.counts[p] = (*[sealPageSlots]uint8)(counts[lo:])
	}
	clear(t.dirty)
	return s
}

// sealDirty derives a seal from prev, copying only the dirty pages.
func (t *countTable) sealDirty(prev *sealedTable) *sealedTable {
	s := t.sealHeader(slices.Clone(prev.keys), slices.Clone(prev.counts))
	for p, d := range t.dirty {
		if !d {
			continue
		}
		lo, hi := p<<sealPageShift, (p+1)<<sealPageShift
		s.keys[p] = (*[sealPageSlots]Fingerprint)(slices.Clone(t.keys[lo:hi]))
		s.counts[p] = (*[sealPageSlots]uint8)(slices.Clone(t.counts[lo:hi]))
		t.dirty[p] = false
	}
	return s
}

// sealHeader wraps page arrays in a sealedTable carrying the table's
// current scalars.
func (t *countTable) sealHeader(keys []*[sealPageSlots]Fingerprint, counts []*[sealPageSlots]uint8) *sealedTable {
	return &sealedTable{keys: keys, counts: counts, mask: t.mask, used: t.used, zeroCount: t.zeroCount, uniques: t.uniques}
}

// get is countTable.get over the pages.
func (s *sealedTable) get(fp Fingerprint) uint8 {
	if fp == 0 {
		return s.zeroCount
	}
	i := uint64(fp) & s.mask
	for {
		p, off := i>>sealPageShift, i&(sealPageSlots-1)
		switch s.keys[p][off] {
		case fp:
			return s.counts[p][off]
		case 0:
			return 0
		}
		i = (i + 1) & s.mask
	}
}

func (s *sealedTable) unique() int { return s.uniques }

func (s *sealedTable) distinct() int {
	n := s.used
	if s.zeroCount > 0 {
		n++
	}
	return n
}

// bytes reports the table's logical footprint (keys + counts), the same
// measure as countTable.bytes however many pages it shares.
func (s *sealedTable) bytes() int {
	return len(s.keys) * sealPageSlots * 9
}
