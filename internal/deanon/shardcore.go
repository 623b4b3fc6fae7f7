package deanon

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
)

const (
	// countSaturated is the ceiling of the saturating counters: IG only
	// distinguishes count 0 / 1 / ≥2.
	countSaturated = 2
	// batchEntries is the per-shard producer batch size; one batch is
	// 16 B × 256 = 4 KiB, small enough to stay cache-resident.
	batchEntries = 256
	// maxShardBits bounds the shard count (1024) well past any sensible
	// core count.
	maxShardBits = 10
)

// ShardBitsFor returns ⌈log2 n⌉ clamped to [0, maxShardBits]: the
// shardBits whose 1<<shardBits counting shards cover n producers.
func ShardBitsFor(n int) int {
	if n <= 1 {
		return 0
	}
	return min(bits.Len(uint(n-1)), maxShardBits)
}

// DefaultShardBits derives a shard count from the machine: the next
// power of two covering GOMAXPROCS.
func DefaultShardBits() int { return ShardBitsFor(runtime.GOMAXPROCS(0)) }

// shardCore is the sharded count-table engine under both ParallelStudy
// (the batch face) and ShardedIncStudy (the incremental face). The
// fingerprint space is partitioned into 1<<shardBits shards by the
// fingerprint's HIGH bits; each shard is owned by exactly one worker
// goroutine with private countTables, so counting needs no locks at
// all. Every producer goroutine owns an intake that batches
// (resolution, fingerprint) pairs per shard and hands full batches to
// the owning worker over a channel. Shard channels are the only
// cross-producer rendezvous; counts are order-insensitive sums, so
// interleaving batches from different intakes cannot change any result.
//
// Because the information gain only needs to distinguish "seen once"
// from "seen more than once", shards store saturating counters that
// stop at 2 — a uint8 per fingerprint instead of Study's uint32 — in
// open-addressed countTables indexed directly by the fingerprint's low
// bits (see counttable.go).
type shardCore struct {
	resolutions []Resolution
	plan        *FingerprintPlan
	shift       uint
	shards      []*countShard
	// payments is atomic so concurrent intakes can count observations
	// without a lock and seal-gate heuristics can read the running total
	// from a coordinator goroutine.
	payments atomic.Int64
	// dirty marks shards that were sent work since the last quiesce.
	// Intakes set it concurrently; quiesce reads and clears it with
	// every producer quiescent.
	dirty []atomic.Bool
	// frozen is set by the batch face's first Results: the documented
	// contract is that no observation follows it.
	frozen atomic.Bool

	batchPool sync.Pool // *[]obsEntry, recycled after consumption
	wg        sync.WaitGroup

	mu      sync.Mutex
	intakes []*intake
	closed  bool
}

// obsEntry routes one fingerprint observation to a shard worker.
type obsEntry struct {
	res uint16
	fp  Fingerprint
}

// countShard is one worker-owned slice of the fingerprint space.
type countShard struct {
	ch  chan shardMsg
	ack chan struct{}
	// counts[i] holds the shard's saturating counters for resolution i.
	counts []*countTable
}

// shardMsg is one unit of shard work: a batch of observations, or (when
// sync is set) a barrier token the worker acknowledges once every prior
// batch has been applied.
type shardMsg struct {
	entries []obsEntry
	sync    bool
}

// start launches 1<<shardBits shard workers (shardBits clamped to
// [0, maxShardBits]) over the given resolutions.
func (c *shardCore) start(resolutions []Resolution, shardBits int) {
	shardBits = max(0, min(shardBits, maxShardBits))
	c.resolutions = append([]Resolution(nil), resolutions...)
	c.plan = NewFingerprintPlan(c.resolutions)
	c.shift = uint(64 - shardBits)
	c.dirty = make([]atomic.Bool, 1<<shardBits)
	for i := 0; i < 1<<shardBits; i++ {
		// The channel holds a few batches so a producer rarely blocks
		// on a worker that is mid-batch; ack carries one barrier token.
		sh := &countShard{ch: make(chan shardMsg, 4), ack: make(chan struct{}, 1)}
		for range c.resolutions {
			sh.counts = append(sh.counts, newCountTable())
		}
		c.shards = append(c.shards, sh)
		c.wg.Add(1)
		go c.runShard(sh)
	}
}

// runShard drains one shard's batches into its private count tables and
// acknowledges barrier tokens.
func (c *shardCore) runShard(sh *countShard) {
	defer c.wg.Done()
	for msg := range sh.ch {
		if msg.entries != nil {
			for _, e := range msg.entries {
				sh.counts[e.res].incr(e.fp)
			}
			b := msg.entries
			c.batchPool.Put(&b)
		}
		if msg.sync {
			sh.ack <- struct{}{}
		}
	}
}

func (c *shardCore) getBatch() []obsEntry {
	if v := c.batchPool.Get(); v != nil {
		return (*v.(*[]obsEntry))[:0]
	}
	return make([]obsEntry, 0, batchEntries)
}

// Shards returns the number of counting shards.
func (c *shardCore) Shards() int { return len(c.shards) }

// Payments returns the number of observations folded in. It is safe to
// call concurrently with intake; the count is monotone.
func (c *shardCore) Payments() int { return int(c.payments.Load()) }

// intake is one producer's handle on the shards: private per-shard
// pending batches, so producers never contend on shared batch state.
// An intake is single-goroutine; distinct intakes may run concurrently.
type intake struct {
	c       *shardCore
	pending [][]obsEntry  // pending batch per shard
	fps     []Fingerprint // per-payment fingerprint scratch
}

const errAfterResults = "deanon: observation after ParallelStudy.Results"

// newIntake registers a producer handle; quiesce flushes every
// registered intake.
func (c *shardCore) newIntake() *intake {
	if c.frozen.Load() {
		panic(errAfterResults)
	}
	in := &intake{
		c:       c,
		pending: make([][]obsEntry, len(c.shards)),
		fps:     make([]Fingerprint, 0, len(c.resolutions)),
	}
	for sh := range in.pending {
		in.pending[sh] = c.getBatch()
	}
	c.mu.Lock()
	c.intakes = append(c.intakes, in)
	c.mu.Unlock()
	return in
}

// observe encodes one payment's features once, fingerprints every
// resolution through the shared plan, and adds the result.
func (in *intake) observe(f Features) {
	enc := EncodeFeatures(f)
	in.fps = enc.AppendFingerprints(in.c.plan, in.fps[:0])
	in.add(in.fps)
}

// add folds one payment's fingerprints — one per resolution row, in
// plan order — into the per-shard batches, handing full batches to the
// owning shard worker.
func (in *intake) add(fps []Fingerprint) {
	c := in.c
	if c.frozen.Load() {
		panic(errAfterResults)
	}
	c.payments.Add(1)
	for i, fp := range fps {
		sh := int(uint64(fp) >> c.shift)
		in.pending[sh] = append(in.pending[sh], obsEntry{res: uint16(i), fp: fp})
		if len(in.pending[sh]) == cap(in.pending[sh]) {
			in.send(sh)
		}
	}
}

// send hands shard sh's pending batch to its worker. The shard is
// marked dirty before the send so the next quiesce barriers on it.
func (in *intake) send(sh int) {
	c := in.c
	c.dirty[sh].Store(true)
	c.shards[sh].ch <- shardMsg{entries: in.pending[sh]}
	in.pending[sh] = c.getBatch()
}

// flush hands every buffered batch to its shard.
func (in *intake) flush() {
	for sh, buf := range in.pending {
		if len(buf) > 0 {
			in.send(sh)
		}
	}
}

// quiesce flushes every intake and waits until each shard that was sent
// work since the previous quiesce has applied all of it, returning
// those shards' indices. All producers must be quiescent. On return
// every shard's tables are safe to read until the next observation.
func (c *shardCore) quiesce() []int {
	c.mu.Lock()
	intakes := c.intakes
	c.mu.Unlock()
	for _, in := range intakes {
		in.flush()
	}
	var changed []int
	for sh := range c.shards {
		if c.dirty[sh].Swap(false) {
			c.shards[sh].ch <- shardMsg{sync: true}
			changed = append(changed, sh)
		}
	}
	for _, sh := range changed {
		<-c.shards[sh].ack
	}
	return changed
}

// tables returns the live count tables, [shard][resolution]. Read them
// only between a quiesce and the next observation.
func (c *shardCore) tables() [][]*countTable {
	out := make([][]*countTable, len(c.shards))
	for sh := range c.shards {
		out[sh] = c.shards[sh].counts
	}
	return out
}

// Close stops the shard workers and drops the live count tables. The
// study is unusable afterwards; sealed snapshots are independent copies
// and stay valid. Dropping the tables matters to a caller that keeps a
// closed study reachable, such as a handler still holding a closed
// service: it then pins only the sealed snapshots. Close is idempotent.
func (c *shardCore) Close() {
	if c.closed {
		return
	}
	c.closed = true
	for _, sh := range c.shards {
		close(sh.ch)
	}
	c.wg.Wait()
	for _, sh := range c.shards {
		clear(sh.counts)
	}
}

// sumPerResolution totals f over every shard's table, per resolution.
// Shards partition the fingerprint space, so per-resolution statistics
// are plain sums — no map union is ever needed.
func sumPerResolution[T any](tables [][]T, f func(T) int) []int {
	out := make([]int, len(tables[0]))
	for _, shard := range tables {
		for r, t := range shard {
			out[r] += f(t)
		}
	}
	return out
}

// rowResults turns per-resolution unique counts into Figure 3 rows.
func rowResults(resolutions []Resolution, unique []int, total int) []RowResult {
	out := make([]RowResult, 0, len(resolutions))
	for i, res := range resolutions {
		ig := 0.0
		if total > 0 {
			ig = float64(unique[i]) / float64(total)
		}
		out = append(out, RowResult{Resolution: res, IG: ig, Unique: unique[i], Total: total})
	}
	return out
}
