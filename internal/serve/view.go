// Package serve is the live query-serving layer: it ingests closed
// ledger pages and validation events as they happen — from a
// netstream.ResilientClient subscription, a ledgerstore backfill, or
// both — incrementally maintains the materialized views behind the
// paper's figures (per-validator tallies for Fig. 2, the fingerprint
// count tables for Fig. 3 and sender-uniqueness lookups, the ecosystem
// histograms for Figs. 4–6), and answers queries from immutable epoch
// snapshots over an HTTP JSON API (cmd/ripple-serve).
//
// Concurrency model: every view is one goroutine, the single writer of
// the view's mutable state, fed over one bounded inbox of update
// batches. The same goroutine applies each batch and seals the view's
// snapshots between batches, so no lock, barrier or merge sits between
// apply and publish. Every view statistic is an order-insensitive sum
// or union, so the producers that feed an inbox concurrently (a
// parallel backfill's workers, a stream) cannot change any sealed
// snapshot — the property the differential tests pin against the batch
// oracles.
//
// Ingest projects each page once at the front door (project.go) into two
// owned parts, one per page view, and fans each view's parts out in
// batches, so queue operations, channel wakeups, and bookkeeping
// amortize over IngestBatchPages updates instead of one. Readers never
// touch mutable state: each publish seals an immutable snapshot —
// sharing whatever did not change with the previous one — behind an
// atomic pointer and bumps the view's epoch, so queries never block
// ingestion and ingestion never blocks queries. A view publishes at least every PublishBatch updates
// (amortized snapshot cost under heavy load) and, once its inbox runs dry
// with unpublished updates, after waiting as long as its previous seal
// took: updates arriving meanwhile join that seal without extending the
// wait, and a Drain skips it. So a paced stream with cheap seals is
// visible almost at once, while a firehose whose seals copy whole tables
// waits longer and coalesces more. A view
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
// view's part of a projected page. seq carries the ledger sequence
// bookkeeping so views never re-inspect payloads.
// The event rides behind a pointer: a consensus.Event is ~200 bytes, and
// page updates (the firehose path) never carry one, so keeping it inline
// would make every pooled batch slab 7× larger to copy and GC-scan.
type update struct {
	ev  *consensus.Event // tally view only
	fp  *fpPart          // fingerprint view only
	eco *ecoPart         // ecosystem view only
	seq uint64
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

// viewConfig describes one materialized view.
type viewConfig struct {
	name string
	// queue is the view's inbox capacity in batches.
	queue int
	// batch is the most applied updates between publishes under load.
	batch int
	// block selects backpressure (true) or drop-and-count (false) when
	// the inbox is full.
	block bool
	// apply folds one update into the view's state.
	apply func(u *update)
	// publish seals the view's state as the immutable epoch snapshot. It
	// runs on the view's goroutine between batches; the bootstrap
	// publish(0) runs before that goroutine starts.
	publish func(epoch uint64)
	// notify (optional) fires after every seal and drop; Drain waiters
	// key off it.
	notify func()
	// sealDue (optional) gates batch-boundary seals for views whose
	// publish cost grows with state size; dry-inbox seals (after their
	// wait) and shutdown seals bypass it.
	sealDue func() bool
	// size (optional) is the bytes an update holds alive until it is
	// applied, summed per batch into inflightBytes.
	size func(u *update) int64
}

// viewWorker is the machinery shared by all views: a bounded inbox
// drained by one goroutine that applies every batch and publishes the
// view's immutable snapshots.
type viewWorker struct {
	viewConfig
	in chan []update

	epoch      atomic.Uint64
	offered    atomic.Uint64
	applied    atomic.Uint64
	dropped    atomic.Uint64
	sealed     atomic.Uint64       // applied updates covered by the latest publish
	appliedSeq atomic.Uint64       // highest ledger sequence applied
	sealDur    telemetry.Histogram // each publish (bootstrap excluded)
	dryWait    telemetry.Histogram // each dry-inbox wait, ended by a seal, new work or a Drain
	// inflightBytes is size summed over the updates offered and not yet
	// applied or dropped: added once per offered batch, subtracted once
	// per applied or shed batch, before the counters that let a Drain
	// return.
	inflightBytes atomic.Int64

	// lastSeal is how long the latest seal took, and dryDue when the
	// next dry-inbox seal falls due: lastSeal after the inbox first ran
	// dry with unpublished updates since that seal (zero until then; no
	// wait before the first seal). Updates that arrive in between join
	// the seal without moving dryDue, so a stream steadier than the seal
	// cost still publishes. Both are owned by the view's goroutine.
	lastSeal time.Duration
	dryDue   time.Time

	// draining counts Service.Drain calls in progress. While one waits,
	// a dry inbox seals without the wait: its caller wants this epoch
	// now, and nothing it waits for can coalesce.
	draining atomic.Int32
	// drainWake (capacity 1, non-blocking send) ends a dry wait in
	// progress when a Drain starts.
	drainWake chan struct{}
	done      chan struct{}
}

// newViewWorker starts a view's goroutine. publish(0) is called
// synchronously before any update so queries always find a (possibly
// empty) snapshot.
func newViewWorker(cfg viewConfig) *viewWorker {
	if cfg.queue < 1 {
		cfg.queue = 1
	}
	if cfg.batch < 1 {
		cfg.batch = 1
	}
	w := &viewWorker{
		viewConfig: cfg,
		in:         make(chan []update, cfg.queue),
		drainWake:  make(chan struct{}, 1),
		done:       make(chan struct{}),
	}
	w.publish(0)
	go w.run()
	return w
}

// run is the view's one loop: apply the inbox batch by batch and, between
// batches, decide whether to publish — at least every batch applied
// updates once the publish-cost gate agrees, or — gate bypassed — once
// the inbox has run dry with unpublished updates and as long again as
// the previous seal took has passed (at once while a Drain waits), so
// idle epochs stay fresh and Drain always completes. The wait is a
// ski-rental rule: it pays at most one more seal's worth of latency to
// avoid a seal that new work would have made redundant, so cheap seals
// publish almost at once and dear ones coalesce. Work that arrives
// during the wait is applied first and joins the seal; it does not
// restart the wait, which would starve a stream whose updates arrive
// faster than a seal takes. Closing the inbox ends the loop after the
// queued batches are applied and sealed.
func (w *viewWorker) run() {
	defer close(w.done)
	wait := time.NewTimer(time.Hour)
	wait.Stop()
	var waitStart time.Time // when the dry wait in progress began; zero if none
	endWait := func() {
		if waitStart.IsZero() {
			return
		}
		if !wait.Stop() {
			<-wait.C
		}
		w.dryWait.Observe(time.Since(waitStart))
		waitStart = time.Time{}
	}
	for {
		var due <-chan time.Time
		if applied, sealed := w.applied.Load(), w.sealed.Load(); applied != sealed {
			switch {
			case applied-sealed >= uint64(w.batch) && (w.sealDue == nil || w.sealDue()):
				w.seal()
				continue
			case w.lag() > 0:
				// More work is already queued; apply it rather than
				// splitting a producer's batch train.
			case w.draining.Load() > 0:
				w.seal()
				continue
			default:
				// Inbox dry with unpublished updates: wait until the seal
				// falls due, then seal if still dry (gate bypassed — the
				// stream paused).
				waitStart = time.Now()
				if w.dryDue.IsZero() {
					w.dryDue = waitStart.Add(w.lastSeal)
				}
				wait.Reset(w.dryDue.Sub(waitStart))
				due = wait.C
			}
		}
		select {
		case b, ok := <-w.in:
			endWait()
			if !ok {
				if w.applied.Load() != w.sealed.Load() {
					w.seal()
				}
				return
			}
			w.applyBatch(b)
		case <-due:
			w.dryWait.Observe(time.Since(waitStart))
			waitStart = time.Time{}
			if w.lag() == 0 {
				w.seal()
			}
		case <-w.drainWake:
			endWait()
		}
	}
}

// applyBatch folds one inbox batch into the view's state.
func (w *viewWorker) applyBatch(b []update) {
	seq := w.appliedSeq.Load()
	for i := range b {
		u := &b[i]
		w.apply(u)
		seq = max(seq, u.seq)
	}
	w.appliedSeq.Store(seq)
	w.release(b)
	w.applied.Add(uint64(len(b)))
	putUpdateBatch(b)
}

// seal publishes the view's state as the next epoch. Only the view's
// goroutine calls it, so applied is exact.
func (w *viewWorker) seal() {
	start := time.Now()
	applied := w.applied.Load()
	w.publish(w.epoch.Add(1))
	w.lastSeal, w.dryDue = time.Since(start), time.Time{}
	w.sealDur.Observe(w.lastSeal)
	w.sealed.Store(applied)
	if w.notify != nil {
		w.notify()
	}
}

// wakeForDrain ends a dry wait in progress: a Drain has started.
func (w *viewWorker) wakeForDrain() {
	select {
	case w.drainWake <- struct{}{}:
	default:
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
// non-blocking mode drops on a full inbox and counts the loss
// (load-shedding for live serving where falling behind the stream is
// worse than a coarser view). A true return transfers the slice to the
// view; on false the caller still owns it.
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
	if w.block {
		w.in <- b
		return true
	}
	select {
	case w.in <- b:
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

// lag reports updates offered but not yet applied (nor dropped) — the
// view's ingest backlog.
func (w *viewWorker) lag() uint64 {
	return w.offered.Load() - w.applied.Load() - w.dropped.Load()
}

// close closes the inbox and waits for the view's goroutine to apply
// what is queued, publish the final epoch, and exit. The caller must
// guarantee no concurrent offer.
func (w *viewWorker) close() {
	close(w.in)
	<-w.done
}
