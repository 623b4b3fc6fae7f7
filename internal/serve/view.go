// Package serve is the live query-serving layer: it ingests closed
// ledger pages and validation events as they happen — from a
// netstream.ResilientClient subscription, a ledgerstore backfill, or
// both — incrementally maintains the materialized views behind the
// paper's figures (per-validator tallies for Fig. 2, the fingerprint
// count tables for Fig. 3 and sender-uniqueness lookups, the ecosystem
// histograms for Figs. 4–6), and answers queries from immutable epoch
// snapshots over an HTTP JSON API (cmd/ripple-serve).
//
// Concurrency model: every view is a pipeline of PipelineWorkers apply
// goroutines, each owning a private shard of the view's mutable state
// and fed over its own bounded ring (single-writer principle per shard
// — no locks on the hot path). Ingest routes update batches across the
// rings (by content where shard affinity matters — the tally view keys
// on ledger hash so a page's validations and its close land on the same
// shard — round-robin otherwise), and a sealer goroutine periodically
// pauses the workers at a barrier, merges the shards into one immutable
// snapshot, publishes it, and releases them. One worker is an ordinary
// fan-out: one ring, one apply goroutine, the same sealer.
// Merges are deterministic (every view statistic is an
// order-insensitive sum or union), so any routing yields snapshots
// bit-identical to the sequential fold — the property the differential
// tests pin.
//
// Ingest projects each page once at the front door (project.go) into two
// owned parts, one per page view, and fans each view's parts out in
// batches, so queue operations, channel wakeups, and bookkeeping
// amortize over IngestBatchPages updates instead of one. Readers never
// touch mutable state: each publish seals an immutable snapshot —
// sharing whatever did not change with the previous one — behind an
// atomic pointer and bumps the view's epoch, so queries never block
// ingestion and ingestion never blocks queries. A view publishes at least every PublishBatch updates
// (amortized snapshot cost under heavy load) and, once its rings run dry
// with unpublished updates, after waiting as long as its previous seal
// took: updates arriving meanwhile join that seal without extending the
// wait, and a Drain skips it. So a paced stream with cheap seals is
// visible almost at once, while a firehose whose seals copy whole tables
// waits longer and coalesces more (measured on one core; the multi-core
// behaviour is unproven). A view
// never publishes in the middle of an ingest batch, so a snapshot always
// covers whole batches.
package serve

import (
	"sync"
	"sync/atomic"
	"time"

	"ripplestudy/internal/consensus"
	"ripplestudy/internal/telemetry"
)

// update is one unit of ingest work fanned out to the views: a stream
// event (validation or ledger close) for the tally view, or one page
// view's part of a projected page. seq and streamSeq carry the ledger
// and stream sequence bookkeeping so workers never re-inspect payloads.
// The event rides behind a pointer: a consensus.Event is ~200 bytes, and
// page updates (the firehose path) never carry one, so keeping it inline
// would make every pooled batch slab 7× larger to copy and GC-scan.
type update struct {
	ev        *consensus.Event // tally view only
	fp        *fpPart          // fingerprint view only
	eco       *ecoPart         // ecosystem view only
	seq       uint64
	streamSeq uint64
}

// batchPool recycles the []update batches flowing through the view
// inboxes: producers take, consumers (or failed offers) return.
var batchPool = sync.Pool{New: func() any {
	s := make([]update, 0, defaultIngestBatch)
	return &s
}}

func getUpdateBatch() []update {
	return (*batchPool.Get().(*[]update))[:0]
}

func putUpdateBatch(b []update) {
	for i := range b {
		b[i] = update{} // drop event payload / record references
	}
	b = b[:0]
	batchPool.Put(&b)
}

// viewConfig describes one materialized view's pipeline.
type viewConfig struct {
	name string
	// workers is the apply fan-out: the number of state shards, rings,
	// and goroutines.
	workers int
	// queue is the view's total ring budget in batches, split evenly
	// across the workers' rings.
	queue int
	// batch is the most applied updates between publishes under load.
	batch int
	// block selects backpressure (true) or drop-and-count (false) when
	// a ring is full.
	block bool
	// apply folds one update into the given shard's private state. Shard
	// i is only ever touched by worker i (or by publish, under barrier).
	apply func(shard int, u update)
	// route (optional) picks the shard for an update when affinity
	// matters; the worker reduces it modulo workers. nil routes whole
	// batches round-robin — correct for any view whose shards partition
	// arbitrarily. In routed mode offerBatch owns all cleanup (see
	// offerBatch).
	route func(u *update) uint64
	// publish merges the shards (called with every worker paused at the
	// seal barrier or stopped, so it may read all shard state) and stores
	// the immutable epoch snapshot.
	publish func(epoch uint64)
	// notify (optional) fires after every seal and drop; Drain waiters
	// key off it.
	notify func()
	// sealDue (optional) gates batch-boundary seals for views whose
	// publish cost grows with state size; ring-dry seals (after their
	// wait) and shutdown seals bypass it.
	sealDue func() bool
	// size (optional) is the bytes an update holds alive until it is
	// applied, summed per batch into inflightBytes.
	size func(u *update) int64
}

// viewWorker is the pipeline machinery shared by all views: bounded
// per-shard rings drained by apply goroutines, plus a sealer goroutine
// that barriers the workers and publishes merged immutable snapshots.
type viewWorker struct {
	name    string
	ins     []chan []update // one ring per shard/worker
	apply   func(shard int, u update)
	route   func(u *update) uint64
	publish func(epoch uint64)
	notify  func()
	sealDue func() bool
	size    func(u *update) int64
	batch   int
	block   bool

	epoch      atomic.Uint64
	offered    atomic.Uint64
	applied    atomic.Uint64
	dropped    atomic.Uint64
	sealed     atomic.Uint64       // applied updates covered by the latest publish
	appliedSeq atomic.Uint64       // highest ledger sequence applied
	streamSeq  atomic.Uint64       // highest stream sequence applied
	sealDur    telemetry.Histogram // each publish (bootstrap excluded): pause through merge
	mergeDur   telemetry.Histogram // each publish's merge alone
	dryWait    telemetry.Histogram // each ring-dry wait, ended by a seal or by new work
	// inflightBytes is size summed over the updates offered and not yet
	// applied or dropped: added once per offered batch, subtracted once
	// per applied or shed batch, before the counters that let a Drain
	// return.
	inflightBytes atomic.Int64

	// lastSeal is how long the latest seal took, pause through merge,
	// and dryDue when the next ring-dry seal falls due: lastSeal after
	// the rings first ran dry with unpublished updates since that seal
	// (zero until then; no wait before the first seal). Updates that
	// arrive in between join the seal without moving dryDue, so a
	// stream steadier than the seal cost still publishes. Both are
	// owned by the sealer goroutine.
	lastSeal time.Duration
	dryDue   time.Time

	// draining counts Service.Drain calls in progress. While one waits,
	// dry rings seal without the wait: its caller wants this epoch now,
	// and nothing it waits for can coalesce.
	draining atomic.Int32

	rr atomic.Uint64 // round-robin ring cursor for unrouted batches

	// The sealer pauses worker i by sending a release channel over
	// barriers[i]; the worker acks on acks and blocks until the release
	// channel closes. progress (capacity 1, non-blocking send) wakes the
	// sealer after applied batches; one buffered token is enough — the
	// sealer re-reads the counters on every wake, so a coalesced signal
	// never loses a state change.
	barriers   []chan chan struct{}
	acks       chan struct{}
	progress   chan struct{}
	stopSeal   chan struct{}
	sealerDone chan struct{}
	applyWG    sync.WaitGroup
}

// newViewWorker starts a view pipeline. publish(0) is called
// synchronously before any update so queries always find a (possibly
// empty) snapshot.
func newViewWorker(cfg viewConfig) *viewWorker {
	if cfg.workers < 1 {
		cfg.workers = 1
	}
	if cfg.queue < cfg.workers {
		cfg.queue = cfg.workers
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	w := &viewWorker{
		name:    cfg.name,
		apply:   cfg.apply,
		route:   cfg.route,
		publish: cfg.publish,
		notify:  cfg.notify,
		sealDue: cfg.sealDue,
		size:    cfg.size,
		batch:   cfg.batch,
		block:   cfg.block,
	}
	perRing := cfg.queue / cfg.workers
	w.ins = make([]chan []update, cfg.workers)
	for i := range w.ins {
		w.ins[i] = make(chan []update, perRing)
	}
	w.publish(0)
	w.barriers = make([]chan chan struct{}, cfg.workers)
	for i := range w.barriers {
		w.barriers[i] = make(chan chan struct{}, 1)
	}
	w.acks = make(chan struct{}, cfg.workers)
	w.progress = make(chan struct{}, 1)
	w.stopSeal = make(chan struct{})
	w.sealerDone = make(chan struct{})
	for i := 0; i < cfg.workers; i++ {
		w.applyWG.Add(1)
		go w.runShardWorker(i)
	}
	go w.runSealer()
	return w
}

// workerCount reports the apply fan-out.
func (w *viewWorker) workerCount() int { return len(w.ins) }

// shardDepths reports each ring's current occupancy in batches, for
// /metrics. Channel length reads are racy by nature; the gauges are
// instantaneous load indicators, not accounting.
func (w *viewWorker) shardDepths() []int {
	out := make([]int, len(w.ins))
	for i, in := range w.ins {
		out[i] = len(in)
	}
	return out
}

// runShardWorker is one apply loop: drain the shard's ring into its
// private state, nudge the sealer, and park at the barrier when a seal
// is in progress.
func (w *viewWorker) runShardWorker(i int) {
	defer w.applyWG.Done()
	in := w.ins[i]
	for {
		select {
		case release := <-w.barriers[i]:
			w.acks <- struct{}{}
			<-release
		case b, ok := <-in:
			if !ok {
				// Shutdown: the sealer is already stopped (close stops it
				// before closing the rings), so no barrier can be pending.
				return
			}
			for j := range b {
				u := &b[j]
				w.apply(i, *u)
				if u.seq > 0 {
					w.bumpSeq(&w.appliedSeq, u.seq)
				}
				if u.streamSeq > 0 {
					w.bumpSeq(&w.streamSeq, u.streamSeq)
				}
			}
			w.release(b)
			w.applied.Add(uint64(len(b)))
			putUpdateBatch(b)
			w.wake()
		}
	}
}

// runSealer decides when a view publishes: at least every batch
// applied updates once the publish-cost gate agrees, or — gate
// bypassed — once the rings have run dry with unpublished updates and
// as long again as the previous seal took has passed (at once while a
// Drain waits), so idle epochs stay fresh and Drain always completes.
// The wait is a ski-rental rule: it pays at most one more seal's worth
// of latency to avoid a seal that new work would have made redundant,
// so cheap seals publish almost at once and dear ones coalesce. Work
// that arrives during the wait is applied first and joins the seal; it
// does not restart the wait, which would starve a stream whose updates
// arrive faster than a seal takes. Each seal is a stop-the-world
// barrier over the apply workers; the counters the sealer reads are
// exact at the barrier because every worker has acked (and therefore
// finished its in-flight batch) before the merge runs.
func (w *viewWorker) runSealer() {
	defer close(w.sealerDone)
	wait := time.NewTimer(time.Hour)
	if !wait.Stop() {
		<-wait.C
	}
	for {
		select {
		case <-w.stopSeal:
			return
		case <-w.progress:
		}
	decide:
		for {
			applied, sealed := w.applied.Load(), w.sealed.Load()
			if applied == sealed {
				break
			}
			if applied-sealed >= uint64(w.batch) && (w.sealDue == nil || w.sealDue()) {
				w.sealBarrier()
				continue
			}
			if w.lag() > 0 {
				// More work is already queued; wait for it to apply
				// rather than splitting a producer's batch train.
				break
			}
			if w.draining.Load() > 0 {
				w.sealBarrier()
				continue
			}
			// Rings dry with unpublished updates: wait until the seal
			// falls due, then seal if still dry (gate bypassed — the
			// stream paused).
			start := time.Now()
			if w.dryDue.IsZero() {
				w.dryDue = start.Add(w.lastSeal)
			}
			wait.Reset(w.dryDue.Sub(start))
			select {
			case <-w.stopSeal:
				if !wait.Stop() {
					<-wait.C
				}
				return
			case <-w.progress:
				if !wait.Stop() {
					<-wait.C
				}
				w.dryWait.Observe(time.Since(start))
				continue
			case <-wait.C:
				w.dryWait.Observe(time.Since(start))
				if w.lag() == 0 {
					w.sealBarrier()
					continue
				}
				break decide
			}
		}
	}
}

// sealBarrier pauses every apply worker, merges and publishes the
// shards as one epoch, and releases them. Only the sealer calls it.
func (w *viewWorker) sealBarrier() {
	start := time.Now()
	release := make(chan struct{})
	for i := range w.barriers {
		w.barriers[i] <- release
	}
	for range w.barriers {
		<-w.acks
	}
	// All workers paused: applied is exact and the shard state is
	// quiescent for the merge.
	applied := w.applied.Load()
	mergeStart := time.Now()
	w.publish(w.epoch.Add(1))
	end := time.Now()
	w.mergeDur.Observe(end.Sub(mergeStart))
	w.lastSeal, w.dryDue = end.Sub(start), time.Time{}
	w.sealDur.Observe(w.lastSeal)
	w.sealed.Store(applied)
	close(release)
	if w.notify != nil {
		w.notify()
	}
}

// wake makes the sealer re-read the counters: after an applied batch,
// or when a Drain starts.
func (w *viewWorker) wake() {
	select {
	case w.progress <- struct{}{}:
	default:
	}
}

// bumpSeq raises a monotonic gauge to at least v. Apply workers race on
// it (parallel backfills and shard workers interleave segments), so the
// CAS loop keeps "highest seen" — a plain load/store pair could regress
// the gauge when two workers interleave.
func (w *viewWorker) bumpSeq(g *atomic.Uint64, v uint64) {
	for cur := g.Load(); v > cur; cur = g.Load() {
		if g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// batchBytes sums size over a batch; 0 for a view without one.
func (w *viewWorker) batchBytes(b []update) int64 {
	if w.size == nil {
		return 0
	}
	var n int64
	for i := range b {
		n += w.size(&b[i])
	}
	return n
}

// release takes an applied or shed batch's bytes off inflightBytes.
func (w *viewWorker) release(b []update) {
	if n := w.batchBytes(b); n != 0 {
		w.inflightBytes.Add(-n)
	}
}

// offer hands a single update to the view, as a one-element batch.
func (w *viewWorker) offer(u update) bool {
	b := getUpdateBatch()
	b = append(b, u)
	if !w.offerBatch(b) {
		putUpdateBatch(b)
		return false
	}
	return true
}

// offerBatch hands a batch of updates to the view. Blocking mode
// applies backpressure (lossless, the differential-test configuration);
// non-blocking mode drops on a full ring and counts the loss
// (load-shedding for live serving where falling behind the stream is
// worse than a coarser view).
//
// Ownership: in unrouted mode (route == nil) a true return transfers
// the slice to the view; on false the CALLER still owns the slice. In
// routed mode the view always takes ownership: the batch is split per
// shard, full rings shed their sub-batch internally (drops counted and
// notified), and offerBatch always returns true.
func (w *viewWorker) offerBatch(b []update) bool {
	n := uint64(len(b))
	if n == 0 {
		putUpdateBatch(b)
		return true
	}
	if bytes := w.batchBytes(b); bytes != 0 {
		w.inflightBytes.Add(bytes)
	}
	w.offered.Add(n)
	if w.route == nil {
		// Any partition of the stream merges to the same snapshot, so
		// unrouted batches just round-robin across the rings, keeping
		// each batch intact (one ring drain applies it whole).
		in := w.ins[int(w.rr.Add(1)-1)%len(w.ins)]
		if w.block {
			in <- b
			return true
		}
		select {
		case in <- b:
			return true
		default:
			w.release(b)
			w.dropped.Add(n)
			// A drop can complete a Drain target (dropped updates never
			// seal), so it must wake waiters too.
			if w.notify != nil {
				w.notify()
			}
			return false
		}
	}
	// Routed: split the batch into per-shard sub-batches so updates with
	// shard affinity (the tally view's per-ledger-hash state) land where
	// their state lives. The fast path — every update routes to the same
	// shard, always true for the one-element batches the event path
	// offers — forwards the original slice untouched.
	first := int(w.route(&b[0]) % uint64(len(w.ins)))
	split := false
	for i := 1; i < len(b); i++ {
		if int(w.route(&b[i])%uint64(len(w.ins))) != first {
			split = true
			break
		}
	}
	if !split {
		w.sendRouted(first, b)
		return true
	}
	subs := make([][]update, len(w.ins))
	for i := range b {
		sh := int(w.route(&b[i]) % uint64(len(w.ins)))
		if subs[sh] == nil {
			subs[sh] = getUpdateBatch()
		}
		subs[sh] = append(subs[sh], b[i])
	}
	putUpdateBatch(b)
	for sh, sub := range subs {
		if sub != nil {
			w.sendRouted(sh, sub)
		}
	}
	return true
}

// sendRouted delivers one routed sub-batch to its shard ring, shedding
// it internally when the ring is full in non-blocking mode.
func (w *viewWorker) sendRouted(sh int, sub []update) {
	if w.block {
		w.ins[sh] <- sub
		return
	}
	select {
	case w.ins[sh] <- sub:
	default:
		w.release(sub)
		w.dropped.Add(uint64(len(sub)))
		putUpdateBatch(sub)
		if w.notify != nil {
			w.notify()
		}
	}
}

// lag reports updates offered but not yet applied (nor dropped) — the
// view's ingest backlog.
func (w *viewWorker) lag() uint64 {
	return w.offered.Load() - w.applied.Load() - w.dropped.Load()
}

// close drains the rings, publishes the final epoch, and stops the
// pipeline goroutines. The caller must guarantee no concurrent offer.
// Order matters: the sealer stops first so no barrier can target an
// exited worker, then the rings close and drain, then the final merge
// runs on the caller's goroutine — every shard is quiescent by then.
func (w *viewWorker) close() {
	close(w.stopSeal)
	<-w.sealerDone
	for _, in := range w.ins {
		close(in)
	}
	w.applyWG.Wait()
	if applied := w.applied.Load(); applied != w.sealed.Load() {
		start := time.Now()
		w.publish(w.epoch.Add(1))
		d := time.Since(start)
		w.mergeDur.Observe(d)
		w.sealDur.Observe(d)
		w.sealed.Store(applied)
		if w.notify != nil {
			w.notify()
		}
	}
}
