package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/txq"
)

// defaultWorkers is the parallel-backfill default worker count.
func defaultWorkers() int { return runtime.GOMAXPROCS(0) }

// defaultIngestBatch is the default flush size for the batched ingest
// paths (backfill, IngestPages) and the capacity hint for pooled
// update batches.
const defaultIngestBatch = 64

// Options tunes a Service. The zero value picks defaults suitable for
// tests and laptop-scale serving.
type Options struct {
	// QueueSize bounds each view's inbox, in batches (default 1024).
	QueueSize int
	// PublishBatch is the most updates a view applies between epoch
	// publishes; a view also publishes once its inbox has run dry and as
	// long as its previous seal took has passed (at once during Drain),
	// and never in the middle of an ingest batch (default 256).
	PublishBatch int
	// IngestBatchPages is how many projected pages the batched ingest
	// paths (BackfillStore, IngestPages) accumulate before
	// flushing one batch to the view inboxes (default 64).
	IngestBatchPages int
	// FingerprintShards is the number of count shards behind the
	// fingerprint view, each owned by one goroutine, rounded up to a
	// power of two. Default: the smallest power of two covering
	// GOMAXPROCS.
	FingerprintShards int
	// PipelineWorkers has no effect: every view is one goroutine.
	//
	// Deprecated: the per-view apply fan-out it sized is gone.
	PipelineWorkers int
	// NonBlocking switches ingest fan-out from backpressure (lossless;
	// the differential-test configuration) to drop-on-full
	// (load-shedding, counted per view and in DroppedEvents).
	NonBlocking bool
	// MaxConcurrent bounds in-flight HTTP requests (default 64).
	MaxConcurrent int
	// AdmitWait is how long a request waits for an admission slot
	// before being shed with 503 (default 2s).
	AdmitWait time.Duration
	// ValidatorLabels maps node IDs to display labels (domains) for the
	// Figure 2 view, like monitor.Collector.SetLabel.
	ValidatorLabels map[addr.NodeID]string
}

func (o Options) withDefaults() Options {
	if o.QueueSize <= 0 {
		o.QueueSize = 1024
	}
	if o.PublishBatch <= 0 {
		o.PublishBatch = 256
	}
	if o.IngestBatchPages <= 0 {
		o.IngestBatchPages = defaultIngestBatch
	}
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = 64
	}
	if o.AdmitWait <= 0 {
		o.AdmitWait = 2 * time.Second
	}
	return o
}

// ErrClosed is returned by ingest entry points after Close.
var ErrClosed = errors.New("serve: service closed")

// Service is the live query-serving layer: one ingestion front door
// projecting pages into owned per-view parts and fanning them out in
// batches to single-writer materialized views, plus the query surface
// (snapshot accessors and the HTTP API in http.go).
type Service struct {
	opts      Options
	endpoints [numEndpoints]endpoint
	proj      *projector
	fpState   *fingerprintState

	tallyW *viewWorker
	fpW    *viewWorker
	ecoW   *viewWorker
	views  []*viewWorker

	tallySnap atomic.Pointer[TallySnapshot]
	fpSnap    atomic.Pointer[FingerprintSnapshot]
	ecoSnap   atomic.Pointer[EcosystemSnapshot]

	ingestedEvents   atomic.Uint64
	ingestedPages    atomic.Uint64
	ingestedPayments atomic.Uint64
	ingestBatches    atomic.Uint64
	ingestBatchPages atomic.Uint64
	undecodable      atomic.Uint64
	streamLastSeq    atomic.Uint64
	lastIngestNano   atomic.Int64

	inflight atomic.Int64
	rejected atomic.Uint64
	admit    chan struct{}

	// fd, when attached, adds the online front door (path_find quotes,
	// transaction submission) to the HTTP API and /metrics.
	fd *txq.FrontDoor

	// progressCh is closed and replaced on every view seal or drop; the
	// Drain waiters re-arm on it instead of sleep-polling.
	progressMu sync.Mutex
	progressCh chan struct{}

	mu     sync.RWMutex // guards closed against in-flight ingests
	closed bool
}

// NewService builds the views and starts their writer goroutines.
func NewService(opts Options) *Service {
	opts = opts.withDefaults()
	s := &Service{
		opts:       opts,
		admit:      make(chan struct{}, opts.MaxConcurrent),
		progressCh: make(chan struct{}),
	}
	for i, name := range [numEndpoints]string{"validators", "deanon", "deanon_lookup", "ecosystem", "path_find", "submit", "tx_status"} {
		s.endpoints[i].name = name
	}

	tally := newTallyState(opts.ValidatorLabels)
	s.tallyW = newViewWorker(viewConfig{
		name:    "fig2_tally",
		queue:   opts.QueueSize,
		batch:   opts.PublishBatch,
		block:   !opts.NonBlocking,
		apply:   func(u *update) { tally.apply(*u.ev) },
		publish: func(epoch uint64) { s.tallySnap.Store(tally.snapshot(epoch, seqOf(s.tallyW))) },
		notify:  s.notifyProgress,
	})

	fp := newFingerprintState(opts.FingerprintShards)
	s.fpState = fp
	s.proj = newProjector(fp.plan())
	s.fpW = newViewWorker(viewConfig{
		name:    "fig3_fingerprints",
		queue:   opts.QueueSize,
		batch:   opts.PublishBatch,
		block:   !opts.NonBlocking,
		apply:   func(u *update) { fp.apply(u.fp) },
		size:    func(u *update) int64 { return u.fp.bytes() },
		publish: func(epoch uint64) { s.fpSnap.Store(fp.snapshot(epoch, seqOf(s.fpW))) },
		notify:  s.notifyProgress,
		sealDue: fp.sealDue,
	})

	eco := newEcosystemState()
	s.ecoW = newViewWorker(viewConfig{
		name:    "fig4to6_ecosystem",
		queue:   opts.QueueSize,
		batch:   opts.PublishBatch,
		block:   !opts.NonBlocking,
		apply:   func(u *update) { eco.apply(u.eco) },
		size:    func(u *update) int64 { return u.eco.bytes() },
		publish: func(epoch uint64) { s.ecoSnap.Store(eco.snapshot(epoch, seqOf(s.ecoW))) },
		notify:  s.notifyProgress,
		sealDue: eco.sealDue,
	})

	s.views = []*viewWorker{s.tallyW, s.fpW, s.ecoW}
	return s
}

// seqOf reads a worker's applied ledger sequence, tolerating the
// bootstrap publish that runs before the worker pointer is assigned.
func seqOf(w *viewWorker) uint64 {
	if w == nil {
		return 0
	}
	return w.appliedSeq.Load()
}

// IngestEvent folds one validation-stream event into the views: every
// well-formed event feeds the Figure 2 tally, and ledger-close events
// carrying a page payload feed the page views. The payload is projected
// in place (never materialized as a *ledger.Page) into exact-size parts
// with no chunk; an undecodable one is quarantined (counted in
// DroppedEvents) without losing the close event itself.
func (s *Service) IngestEvent(ev consensus.Event) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	s.noteIngest(ev.StreamSeq)
	s.ingestedEvents.Add(1)

	var (
		fp  *fpPart
		eco *ecoPart
	)
	seq := ev.Seq
	if ev.Kind == consensus.EventLedgerClosed && len(ev.PageData) > 0 {
		rec := scratchPool.Get().(*pageRecord)
		if err := s.proj.fromPayload(ev.PageData, rec); err != nil {
			s.undecodable.Add(1)
		} else {
			var single partArena
			fp, eco = single.carve(rec)
			seq = rec.seq
		}
		scratchPool.Put(rec)
	}
	s.tallyW.offer(update{ev: &ev, seq: seq})
	if fp != nil {
		s.ingestedPages.Add(1)
		s.ingestedPayments.Add(uint64(len(eco.payments)))
		s.fpW.offer(update{fp: fp, seq: seq})
		s.ecoW.offer(update{eco: eco, seq: seq})
	}
	return nil
}

// IngestPage folds one sealed page into the page views — the
// single-page backfill path (no validation events, so the Figure 2
// view is untouched). Bulk loads should prefer IngestPages or
// BackfillStore, which amortize the queue operations.
func (s *Service) IngestPage(p *ledger.Page) error {
	rec := scratchPool.Get().(*pageRecord)
	s.proj.fromPage(p, rec)
	var single partArena
	fp, eco := single.carve(rec)
	seq := rec.seq
	scratchPool.Put(rec)
	fpB := append(getUpdateBatch(), update{fp: fp, seq: seq})
	ecoB := append(getUpdateBatch(), update{eco: eco, seq: seq})
	return s.ingestPageBatch(fpB, ecoB, len(eco.payments))
}

// IngestPages folds a batch of sealed pages into the page views with
// one queue operation per view per IngestBatchPages pages, projecting
// them in order through one batcher.
func (s *Service) IngestPages(pages []*ledger.Page) error {
	b := s.newBatcher()
	for _, p := range pages {
		s.proj.fromPage(p, &b.scratch)
		if err := b.add(); err != nil {
			// add only fails once the service is closed, and the failing
			// flush already released the flushed batches; nothing is
			// left buffered.
			return err
		}
	}
	return b.flush()
}

// ingestPageBatch is the shared back half of every page ingest path:
// bookkeeping once per batch, then fan-out of each page view's batch of
// parts to its view. It takes ownership of both batches, which carry
// the same pages in the same order.
func (s *Service) ingestPageBatch(fpB, ecoB []update, payments int) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		putUpdateBatch(fpB)
		putUpdateBatch(ecoB)
		return ErrClosed
	}
	s.noteIngest(0)
	s.ingestedPages.Add(uint64(len(ecoB)))
	s.ingestedPayments.Add(uint64(payments))
	s.ingestBatches.Add(1)
	s.ingestBatchPages.Add(uint64(len(ecoB)))

	if !s.fpW.offerBatch(fpB) {
		putUpdateBatch(fpB)
	}
	if !s.ecoW.offerBatch(ecoB) {
		putUpdateBatch(ecoB)
	}
	return nil
}

// noteIngest stamps the ingest clock and advances the stream high-water
// mark. It runs once per ingest call or batch — not once per page — so
// the time.Now and CAS costs amortize over the batch.
func (s *Service) noteIngest(streamSeq uint64) {
	s.lastIngestNano.Store(time.Now().UnixNano())
	if streamSeq == 0 {
		return
	}
	// CAS only when actually advancing; concurrent backfills and
	// streams mostly observe an already-higher watermark.
	for cur := s.streamLastSeq.Load(); streamSeq > cur; cur = s.streamLastSeq.Load() {
		if s.streamLastSeq.CompareAndSwap(cur, streamSeq) {
			return
		}
	}
}

// recBatcher is one producer of the batched ingest paths: it projects
// every page into its one scratch record, carves the record's parts
// from its own chunk slabs, and flushes them through ingestPageBatch
// every IngestBatchPages pages. Not safe for concurrent use; parallel
// backfills keep one per worker.
type recBatcher struct {
	s       *Service
	scratch pageRecord
	arena   partArena
	fpBuf   []update
	ecoBuf  []update
	// payments counts the buffered pages' payments.
	payments int
	limit    int
}

func (s *Service) newBatcher() *recBatcher {
	return &recBatcher{s: s, arena: partArena{chunked: true},
		fpBuf: getUpdateBatch(), ecoBuf: getUpdateBatch(), limit: s.opts.IngestBatchPages}
}

// add carves the page just projected into b.scratch and buffers its
// parts.
func (b *recBatcher) add() error {
	fp, eco := b.arena.carve(&b.scratch)
	seq := b.scratch.seq
	b.fpBuf = append(b.fpBuf, update{fp: fp, seq: seq})
	b.ecoBuf = append(b.ecoBuf, update{eco: eco, seq: seq})
	b.payments += len(eco.payments)
	if len(b.ecoBuf) >= b.limit {
		return b.flush()
	}
	return nil
}

func (b *recBatcher) flush() error {
	if len(b.ecoBuf) == 0 {
		return nil
	}
	fpB, ecoB, n := b.fpBuf, b.ecoBuf, b.payments
	b.fpBuf, b.ecoBuf, b.payments = getUpdateBatch(), getUpdateBatch(), 0
	return b.s.ingestPageBatch(fpB, ecoB, n)
}

// discard releases anything still buffered (abandoned backfill).
func (b *recBatcher) discard() {
	putUpdateBatch(b.fpBuf)
	putUpdateBatch(b.ecoBuf)
	b.fpBuf, b.ecoBuf, b.payments = nil, nil, 0
}

// BackfillStore streams a closed history from a ledgerstore into the
// page views at memory-scan speed: up to workers goroutines walk the raw
// record payloads (mmap'd where the platform allows), each projecting
// every page in place into its one scratch record — no *ledger.Page is
// ever materialized — and carving the record's two parts from its own
// chunk slabs, then feed the views in batches. Pages interleave
// across segments, but every view statistic is order-insensitive, so the
// result is identical to a sequential backfill.
//
// Projection validates record framing exactly like the decoding scans
// (a CRC-clean record that DecodePageInto accepts always projects) plus the
// payment fields the views consume; fields of non-payment transactions
// are not inspected.
func (s *Service) BackfillStore(ctx context.Context, store *ledgerstore.Store, workers int) error {
	if workers < 1 {
		workers = defaultWorkers()
	}
	batchers := make([]*recBatcher, workers)
	err := store.PayloadsParallel(ctx, workers, func(w int, payload []byte) error {
		b := batchers[w]
		if b == nil {
			b = s.newBatcher()
			batchers[w] = b
		}
		if perr := s.proj.fromPayload(payload, &b.scratch); perr != nil {
			return fmt.Errorf("serve: backfill: %w", perr)
		}
		return b.add()
	})
	for _, b := range batchers {
		if b == nil {
			continue
		}
		if err != nil {
			b.discard()
		} else if ferr := b.flush(); ferr != nil {
			err = ferr
		}
	}
	return err
}

// Follow subscribes to a live validation stream through a
// netstream.ResilientClient and ingests every event until the context
// is cancelled or the stream ends. It returns the client's final
// counters alongside any terminal error.
func (s *Service) Follow(ctx context.Context, addr string, opts netstream.ResilientOptions) (netstream.ClientStats, error) {
	client := netstream.NewResilientClient(addr, opts)
	err := client.Run(ctx, func(ev consensus.Event) error {
		if ierr := s.IngestEvent(ev); ierr != nil {
			return netstream.ErrStop
		}
		return nil
	})
	if errors.Is(err, context.Canceled) {
		err = nil
	}
	return client.Stats(), err
}

// AttachFrontDoor adds a transaction front door to the service: Handler
// gains /v1/path_find, /v1/submit, and /v1/tx_status (behind the same
// admission limiter as the query endpoints), and /metrics gains the txq
// family. Call before Handler. The service does not own the front door;
// the caller closes it (typically after draining the HTTP server).
func (s *Service) AttachFrontDoor(fd *txq.FrontDoor) { s.fd = fd }

// FrontDoor returns the attached front door, or nil.
func (s *Service) FrontDoor() *txq.FrontDoor { return s.fd }

// Tally returns the current Figure 2 snapshot.
func (s *Service) Tally() *TallySnapshot { return s.tallySnap.Load() }

// Fingerprints returns the current Figure 3 / lookup snapshot.
func (s *Service) Fingerprints() *FingerprintSnapshot { return s.fpSnap.Load() }

// Ecosystem returns the current Figures 4–6 snapshot.
func (s *Service) Ecosystem() *EcosystemSnapshot { return s.ecoSnap.Load() }

// ViewHealth is one view's ingestion status.
type ViewHealth struct {
	Name          string `json:"name"`
	Epoch         uint64 `json:"epoch"`
	AppliedSeq    uint64 `json:"applied_seq"`
	AppliedEvents uint64 `json:"applied_events"`
	Lag           uint64 `json:"ingest_lag_events"`
	Dropped       uint64 `json:"dropped_events"`
}

// HealthReport summarizes the service for /healthz.
type HealthReport struct {
	Status           string        `json:"status"`
	IngestedEvents   uint64        `json:"ingested_events"`
	IngestedPages    uint64        `json:"ingested_pages"`
	IngestedPayments uint64        `json:"ingested_payments"`
	DroppedEvents    uint64        `json:"dropped_events"`
	StreamLastSeq    uint64        `json:"stream_last_seq"`
	IngestIdle       time.Duration `json:"ingest_idle_ns"`
	Views            []ViewHealth  `json:"views"`
}

// Health reports the service's ingestion state. Status is "ok" while
// nothing has been dropped, "degraded" otherwise.
func (s *Service) Health() HealthReport {
	h := HealthReport{
		Status:           "ok",
		IngestedEvents:   s.ingestedEvents.Load(),
		IngestedPages:    s.ingestedPages.Load(),
		IngestedPayments: s.ingestedPayments.Load(),
		StreamLastSeq:    s.streamLastSeq.Load(),
	}
	if last := s.lastIngestNano.Load(); last > 0 {
		h.IngestIdle = time.Since(time.Unix(0, last))
	}
	dropped := s.undecodable.Load()
	for _, w := range s.views {
		dropped += w.dropped.Load()
		h.Views = append(h.Views, ViewHealth{
			Name:          w.name,
			Epoch:         w.epoch.Load(),
			AppliedSeq:    w.appliedSeq.Load(),
			AppliedEvents: w.applied.Load(),
			Lag:           w.lag(),
			Dropped:       w.dropped.Load(),
		})
	}
	h.DroppedEvents = dropped
	if dropped > 0 {
		h.Status = "degraded"
	}
	return h
}

// progressGate returns a channel closed at the next view seal or drop.
// Waiters must take the gate BEFORE re-checking their condition, so a
// seal between check and wait can never be missed.
func (s *Service) progressGate() <-chan struct{} {
	s.progressMu.Lock()
	ch := s.progressCh
	s.progressMu.Unlock()
	return ch
}

// notifyProgress wakes every waiter armed on the current gate.
func (s *Service) notifyProgress() {
	s.progressMu.Lock()
	close(s.progressCh)
	s.progressCh = make(chan struct{})
	s.progressMu.Unlock()
}

// Drain blocks until every view has applied everything offered so far
// and published it, or the context expires — the barrier differential
// tests and graceful shutdown use. Ingestion may continue concurrently;
// Drain only guarantees the offers that happened before the call are
// visible. While it waits, views seal as soon as their inboxes run dry,
// without the usual wait, and waiting is notification-driven (views
// signal every seal and drop), so drain latency is bounded by the last
// seal, not a timer or a poll interval.
func (s *Service) Drain(ctx context.Context) error {
	target := make([]uint64, len(s.views))
	for i, w := range s.views {
		target[i] = w.offered.Load()
		w.draining.Add(1)
		defer w.draining.Add(-1)
		w.wakeForDrain() // a dry wait in progress ends now
	}
	for {
		gate := s.progressGate()
		done := true
		for i, w := range s.views {
			// Sealed (published) plus dropped must cover everything
			// offered before the call; dropped updates never publish.
			if w.sealed.Load()+w.dropped.Load() < target[i] {
				done = false
				break
			}
		}
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: drain: %w", ctx.Err())
		case <-gate:
		}
	}
}

// Close stops ingestion, drains every view inbox, publishes the final
// epochs, and stops the writer goroutines (including the fingerprint
// count shards). Queries keep working against the final snapshots
// afterwards.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, w := range s.views {
		w.close()
	}
	s.fpState.close()
}
