package nodestore

import (
	"container/list"

	"ripplestudy/internal/ledger"
)

// Cache is an LRU read-through layer over any Getter: point lookups
// against a file-backed store (state proofs, interactive queries) hit
// memory for the working set instead of re-searching the batch files.
// Only successful reads are cached; ErrNotFound is not negative-cached,
// so a miss stays cheap to retry after more batches are added.
//
// Cache is not safe for concurrent use; wrap it per reader or guard it
// like the store it fronts.
type Cache struct {
	inner   Getter
	max     int
	ll      *list.List
	entries map[ledger.Hash]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	h    ledger.Hash
	data []byte
}

// NewCache wraps inner with an LRU of at most maxEntries records.
func NewCache(inner Getter, maxEntries int) *Cache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &Cache{
		inner:   inner,
		max:     maxEntries,
		ll:      list.New(),
		entries: make(map[ledger.Hash]*list.Element),
	}
}

// Get implements Getter.
func (c *Cache) Get(h ledger.Hash) ([]byte, error) {
	if el, ok := c.entries[h]; ok {
		c.hits++
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).data, nil
	}
	data, err := c.inner.Get(h)
	if err != nil {
		return nil, err
	}
	c.misses++
	c.entries[h] = c.ll.PushFront(&cacheEntry{h: h, data: data})
	for c.ll.Len() > c.max {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.entries, back.Value.(*cacheEntry).h)
	}
	return data, nil
}

// Len returns the number of cached records.
func (c *Cache) Len() int { return c.ll.Len() }

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses int64) { return c.hits, c.misses }
