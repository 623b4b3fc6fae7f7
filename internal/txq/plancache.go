package txq

import (
	"sync"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
)

// The quote cache. A path_find answer is a pure function of the state
// the search read: the trust edges it walked and the order-book pairs
// it probed (pathfind.WithRecording captures both, including probes of
// empty books and the endpoints themselves). The cache therefore keys
// entries on the quote parameters and stamps each with the trust-graph
// epoch it was computed at; the applier bumps the epoch once per batch
// that mutated anything a search can read and records WHAT it mutated
// (the engine's payment.Changes), so an entry stays valid — across
// arbitrarily many epochs — until something in its own read set is
// touched.

// quoteKey identifies one cacheable path_find request. amount.Value and
// amount.Currency are comparable value types, so the whole key is a
// valid map key.
type quoteKey struct {
	src, dst addr.AccountID
	srcCur   amount.Currency
	dstCur   amount.Currency
	deliver  amount.Value
}

// Quote is a path_find answer: the liquidity summary of a planned
// route, detached from the plan's execution detail so cached copies
// alias no live order-book state.
type Quote struct {
	// Found is false when the search proved no liquidity (the cached
	// negative is invalidated exactly like a positive: its read set
	// certifies the absence).
	Found       bool                `json:"found"`
	Delivered   amount.Value        `json:"delivered"`
	SourceCost  amount.Value        `json:"source_cost"`
	SrcCurrency amount.Currency     `json:"source_currency"`
	DstCurrency amount.Currency     `json:"currency"`
	Paths       []pathfind.PathInfo `json:"paths,omitempty"`
	UsedBridge  bool                `json:"used_bridge"`
	// Epoch is the trust-graph epoch the quote was computed at; Cached
	// reports whether this answer came from the cache.
	Epoch  uint64 `json:"epoch"`
	Cached bool   `json:"cached"`
}

type cacheEntry struct {
	epoch uint64
	quote Quote
	reads pathfind.ReadSet
}

// planCache is the epoch-stamped quote cache. It is safe for concurrent
// use; the epoch only advances inside the applier's write-locked
// section, so a reader holding the engine's read lock always sees an
// epoch consistent with the state it plans against.
type planCache struct {
	mu        sync.Mutex
	max       int
	epoch     uint64
	acctEpoch map[addr.AccountID]uint64 // epoch at which last mutated
	pairEpoch map[orderbook.Pair]uint64
	entries   map[quoteKey]*cacheEntry
	order     []quoteKey // insertion order, for FIFO eviction

	hits, misses, stale, evicted uint64
}

func newPlanCache(max int) *planCache {
	if max < 1 {
		max = 1
	}
	return &planCache{
		max:       max,
		acctEpoch: make(map[addr.AccountID]uint64),
		pairEpoch: make(map[orderbook.Pair]uint64),
		entries:   make(map[quoteKey]*cacheEntry),
	}
}

// get returns the cached quote when its read set is untouched since it
// was computed; stale entries are dropped on the way out.
func (c *planCache) get(k quoteKey) (Quote, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.entries[k]
	if e == nil {
		c.misses++
		return Quote{}, false
	}
	if !c.validLocked(e) {
		delete(c.entries, k)
		c.stale++
		c.misses++
		return Quote{}, false
	}
	c.hits++
	q := e.quote
	q.Cached = true
	return q, true
}

// validLocked reports whether nothing in the entry's read set was
// mutated after the entry's epoch.
func (c *planCache) validLocked(e *cacheEntry) bool {
	for _, a := range e.reads.Accounts {
		if c.acctEpoch[a] > e.epoch {
			return false
		}
	}
	for _, p := range e.reads.Pairs {
		if c.pairEpoch[p] > e.epoch {
			return false
		}
	}
	return true
}

// put stores a freshly computed quote. The caller hands over reads.
func (c *planCache) put(k quoteKey, q Quote, reads pathfind.ReadSet) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if q.Epoch < c.epoch {
		// Computed against a state the applier has since advanced past
		// (the reader raced a batch commit); caching it with validity
		// checks anchored at an old epoch would be unsound.
		return
	}
	if _, exists := c.entries[k]; !exists {
		if len(c.order) >= c.max {
			oldest := c.order[0]
			c.order = c.order[1:]
			if _, ok := c.entries[oldest]; ok {
				delete(c.entries, oldest)
				c.evicted++
			}
		}
		c.order = append(c.order, k)
	}
	c.entries[k] = &cacheEntry{epoch: q.Epoch, quote: q, reads: reads}
}

// invalidate advances the epoch and stamps everything the just-applied
// batch mutated. Called with the engine write lock held, so no quote
// can be computed (or cached) concurrently against the superseded
// state.
func (c *planCache) invalidate(ch *payment.Changes) {
	if len(ch.Accounts) == 0 && len(ch.Pairs) == 0 {
		return
	}
	c.mu.Lock()
	c.epoch++
	for a := range ch.Accounts {
		c.acctEpoch[a] = c.epoch
	}
	for p := range ch.Pairs {
		c.pairEpoch[p] = c.epoch
	}
	c.mu.Unlock()
}

// currentEpoch returns the trust-graph epoch.
func (c *planCache) currentEpoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// stats returns the cache counters: hits, misses, stale drops,
// evictions, and the live entry count.
func (c *planCache) statsNow() (hits, misses, stale, evicted uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.stale, c.evicted, len(c.entries)
}
