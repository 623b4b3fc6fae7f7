package txq

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
)

// Sentinel errors surfaced by Submit and PathFind.
var (
	// ErrClosed is returned once the front door is shut down.
	ErrClosed = errors.New("txq: front door closed")
	// ErrQueueFull means admission control shed the submission: the
	// queue was at depth and either Backpressure is off or the wait
	// timed out.
	ErrQueueFull = errors.New("txq: queue full")
	// ErrDuplicateSequence means the account already has a queued
	// transaction with the same explicit sequence.
	ErrDuplicateSequence = errors.New("txq: duplicate sequence for account")
	// ErrMalformed rejects a submission the queue will not accept at
	// all (nil tx, zero account, unknown type).
	ErrMalformed = errors.New("txq: malformed submission")
)

// Options configures a FrontDoor. The zero value picks serving
// defaults; see withDefaults.
type Options struct {
	// QueueDepth bounds admitted-but-unapplied transactions. Submit
	// sheds (or waits, with Backpressure) beyond it. Default 1024.
	QueueDepth int
	// BatchSize is how many queued transactions the applier drains per
	// batch: one write-locked section and one plan-cache epoch advance
	// each. Default 256.
	BatchSize int
	// PlanWorkers has no effect: the front door plans no payment ahead
	// of its apply.
	//
	// Deprecated: it stays only for the benchmark harness, and goes with
	// the [benchmark] change that retires the txq.replan_share and
	// replay.replan_share probes.
	PlanWorkers int
	// Backpressure makes Submit wait up to SubmitWait for queue space
	// instead of failing fast with ErrQueueFull.
	Backpressure bool
	// SubmitWait caps the backpressure wait. Default 2s.
	SubmitWait time.Duration
	// CacheSize bounds the path-plan quote cache. Default 4096 entries.
	CacheSize int
	// StatusCapacity bounds how many resolved transaction statuses are
	// retained for /v1/tx_status. Default 8192.
	StatusCapacity int
}

func (o Options) withDefaults() Options {
	if o.QueueDepth < 1 {
		o.QueueDepth = 1024
	}
	if o.BatchSize < 1 {
		o.BatchSize = 256
	}
	if o.SubmitWait <= 0 {
		o.SubmitWait = 2 * time.Second
	}
	if o.CacheSize < 1 {
		o.CacheSize = 4096
	}
	if o.StatusCapacity < 1 {
		o.StatusCapacity = 8192
	}
	return o
}

// TxStatus is the queryable outcome record for one admitted
// transaction.
type TxStatus struct {
	ID uint64 `json:"id"`
	// Hash is the final (as-applied) hash. While an auto-sequenced
	// submission is queued it is the hash it was registered under over
	// HTTP, or zero: its final bytes do not exist before apply.
	Hash    ledger.Hash    `json:"hash"`
	Account addr.AccountID `json:"account"`
	// Sequence is the effective sequence: 0 while an auto-sequenced
	// submission is still queued, filled in at apply time.
	Sequence uint32 `json:"sequence"`
	// State is "queued" or "applied".
	State string `json:"state"`
	// Result is the engine result code once applied.
	Result    string `json:"result,omitempty"`
	Succeeded bool   `json:"succeeded"`
	// WaitNS is the submit-to-applied latency in nanoseconds.
	WaitNS int64 `json:"wait_ns,omitempty"`
}

// errEvicted is Ticket.Wait's answer once the ticket's status has left
// the StatusCapacity window.
var errEvicted = errors.New("txq: status evicted")

// Ticket is Submit's receipt: wait on Done (or Wait) for the applied
// outcome, then read it back via Status.
type Ticket struct {
	ID uint64
	// Hash is the final hash of an explicit-sequence submission; zero
	// for an auto-sequenced one, whose bytes are final only once the
	// applier fills in its sequence: its hash is in its status.
	Hash ledger.Hash

	fd  *FrontDoor
	rec *queuedTx
}

// Done is closed when the transaction has been applied.
func (t *Ticket) Done() <-chan struct{} { return t.rec.done }

// Wait blocks until the transaction is applied or ctx expires, and
// returns the final status.
func (t *Ticket) Wait(ctx context.Context) (TxStatus, error) {
	select {
	case <-t.rec.done:
	case <-ctx.Done():
		return TxStatus{}, ctx.Err()
	}
	t.fd.stMu.Lock()
	defer t.fd.stMu.Unlock()
	if t.rec.evicted {
		return TxStatus{}, errEvicted
	}
	return t.rec.st, nil
}

// Stats is a point-in-time snapshot of the front door's counters.
type Stats struct {
	Depth     int    `json:"depth"`
	Offered   uint64 `json:"offered"`
	Shed      uint64 `json:"shed"`
	Rejected  uint64 `json:"rejected"`
	Applied   uint64 `json:"applied"`
	Succeeded uint64 `json:"succeeded"`
	Batches   uint64 `json:"batches"`
	// PlannedAhead and Conflicts always read 0: the front door plans no
	// payment ahead of its apply, so none is applied from a plan and
	// none is re-planned.
	PlannedAhead uint64 `json:"planned_ahead"`
	Conflicts    uint64 `json:"conflicts"`
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	CacheStale   uint64 `json:"cache_stale"`
	CacheEvicted uint64 `json:"cache_evicted"`
	CacheSize    int    `json:"cache_size"`
	Epoch        uint64 `json:"epoch"`
}

// FrontDoor is the online submission and quote surface over a payment
// engine. It owns the engine exclusively: quote readers share it under
// a read lock while the single applier goroutine applies queued
// transactions, batch by batch, under the write lock. Each payment's
// path is searched once, by the engine as it applies it; the engine's
// change record (payment.Changes) names the trust-line endpoints and
// book pairs the batch mutated, which is what the plan cache needs.
//
// Each submission is one queuedTx, from admission until its status is
// evicted: the Ticket and the hash index point at it, and a ring of the
// last StatusCapacity resolutions decides which status goes next. A
// transaction is hashed once its bytes are final: an explicit-sequence
// submission at admission, an auto-sequenced one by the engine as it is
// applied.
type FrontDoor struct {
	opts Options

	// mu guards the engine (and, transitively, its graph and books).
	// The plan-cache epoch only advances inside the write-locked apply
	// section, so readers always quote against a state consistent with
	// the epoch they stamp.
	mu  sync.RWMutex
	eng *payment.Engine

	q     *queue
	slots chan struct{} // admission semaphore: one token per queued tx
	cache *planCache

	changes *payment.Changes // applier-owned
	quoters sync.Pool        // *pathfind.Finder for PathFind readers

	stMu     sync.Mutex
	byHash   map[ledger.Hash]*queuedTx // final or registered hash → record (newest ID wins)
	resolved []*queuedTx               // ring of the last StatusCapacity resolutions, grown on demand
	ringNext int                       // the ring slot the next resolution takes once it is full
	nextID   uint64

	met    metrics
	wg     sync.WaitGroup
	closed atomic.Bool
}

// New wraps eng in a front door and starts the applier. The caller
// hands over the engine: touching it directly afterwards races the
// applier.
func New(eng *payment.Engine, opts Options) *FrontDoor {
	opts = opts.withDefaults()
	fd := &FrontDoor{
		opts:    opts,
		eng:     eng,
		q:       newQueue(),
		slots:   make(chan struct{}, opts.QueueDepth),
		cache:   newPlanCache(opts.CacheSize),
		changes: eng.TrackChanges(),
		byHash:  make(map[ledger.Hash]*queuedTx),
	}
	fd.quoters.New = func() any {
		return pathfind.New(eng.Graph(), eng.Books(), pathfind.WithRecording())
	}
	fd.wg.Add(1)
	go fd.applyLoop()
	return fd
}

// Submit offers one transaction to the queue. A Sequence of 0 requests
// auto-sequencing: the applier fills in the account's next sequence at
// apply time, so the transaction is hashed, and its status reachable by
// hash, only once applied. An explicit-sequence submission is hashed
// and indexed here. Admission is bounded by QueueDepth — beyond it
// Submit sheds with ErrQueueFull, or waits up to SubmitWait when
// Backpressure is on.
func (fd *FrontDoor) Submit(tx *ledger.Tx) (*Ticket, error) {
	fd.met.offered.Add(1)
	if tx == nil || tx.Account.IsZero() || !knownType(tx.Type) {
		fd.met.rejected.Add(1)
		return nil, ErrMalformed
	}
	if fd.closed.Load() {
		fd.met.rejected.Add(1)
		return nil, ErrClosed
	}
	// Admission: one slot per queued transaction, released when the
	// applier resolves it.
	select {
	case fd.slots <- struct{}{}:
	default:
		if !fd.opts.Backpressure {
			fd.met.shed.Add(1)
			return nil, ErrQueueFull
		}
		timer := time.NewTimer(fd.opts.SubmitWait)
		select {
		case fd.slots <- struct{}{}:
			timer.Stop()
		case <-timer.C:
			fd.met.shed.Add(1)
			return nil, ErrQueueFull
		}
	}

	qt := &queuedTx{
		tx:       tx,
		fee:      effectiveFee(tx),
		autoSeq:  tx.Sequence == 0,
		enqueued: time.Now(),
		done:     make(chan struct{}),
	}
	fd.stMu.Lock()
	fd.nextID++
	id := fd.nextID
	qt.st = TxStatus{
		ID:       id,
		Account:  tx.Account,
		Sequence: tx.Sequence,
		State:    "queued",
	}
	fd.stMu.Unlock()

	if err := fd.q.push(qt); err != nil {
		<-fd.slots
		fd.met.rejected.Add(1)
		return nil, err
	}
	tk := &qt.ticket
	*tk = Ticket{ID: id, fd: fd, rec: qt}
	if !qt.autoSeq {
		tk.Hash = tx.Hash()
		fd.register(qt, tk.Hash)
	}
	return tk, nil
}

// register makes h resolve to qt's status: an explicit-sequence
// submission's final hash, or the as-submitted hash of an
// auto-sequenced one, which HandleSubmit hands its client. It registers
// nothing once the status is evicted.
func (fd *FrontDoor) register(qt *queuedTx, h ledger.Hash) {
	fd.stMu.Lock()
	defer fd.stMu.Unlock()
	if qt.evicted {
		return
	}
	qt.subHash = h
	if qt.st.Hash.IsZero() {
		qt.st.Hash = h
	}
	fd.own(h, qt)
}

// own points h at qt unless a newer submission owns it, so hashes that
// identical submissions share end with the newest ID however their
// registrations race. The caller holds stMu.
func (fd *FrontDoor) own(h ledger.Hash, qt *queuedTx) {
	if cur, ok := fd.byHash[h]; !ok || cur.st.ID < qt.st.ID {
		fd.byHash[h] = qt
	}
}

// knownType reports whether the engine can apply the transaction type.
func knownType(t ledger.TxType) bool {
	switch t {
	case ledger.TxPayment, ledger.TxTrustSet, ledger.TxOfferCreate, ledger.TxOfferCancel, ledger.TxAccountSet:
		return true
	}
	return false
}

// effectiveFee is the fee the escalation heap orders by: the declared
// fee floored at the engine's base fee (a zero-fee submission competes
// at the minimum, it does not sort below it).
func effectiveFee(tx *ledger.Tx) amount.Drops {
	if tx.Fee < payment.BaseFee {
		return payment.BaseFee
	}
	return tx.Fee
}

// applyLoop is the single applier goroutine: drain a batch, apply it in
// queue order under the write lock — each payment searched by the
// engine against live state, once — advance the quote-cache epoch by
// what the batch changed, and only then let the outcomes be seen.
// PathFind consults the cache without the engine lock, so a client told
// "applied" before the epoch advance could still be served the quote
// cached before its own transaction. Exits when the queue is closed and
// drained.
func (fd *FrontDoor) applyLoop() {
	defer fd.wg.Done()
	var filled ledger.Tx
	for {
		batch := fd.q.popBatch(fd.opts.BatchSize)
		if batch == nil {
			return
		}
		fd.mu.Lock()
		for _, qt := range batch {
			tx := qt.tx
			if qt.autoSeq {
				filled = *tx
				filled.Sequence = fd.eng.NextSequence(tx.Account)
				tx = &filled
			}
			qt.meta, qt.hash, qt.err = fd.eng.ApplyTx(tx)
			qt.sequence = tx.Sequence
		}
		// Inside the write-locked section: no reader can compute a quote
		// against the superseded state after this epoch advance.
		fd.cache.invalidate(fd.changes)
		fd.changes.Reset()
		fd.mu.Unlock()

		fd.met.batches.Add(1)
		for _, qt := range batch {
			fd.resolve(qt)
		}
	}
}

// resolve finalizes one transaction's status, evicts the status that
// leaves the retained window, counts the outcome, signals the waiter,
// and releases the admission slot.
func (fd *FrontDoor) resolve(qt *queuedTx) {
	wait := time.Since(qt.enqueued)
	result := "internal error"
	succeeded := false
	if qt.err == nil && qt.meta != nil {
		result = qt.meta.Result.String()
		succeeded = qt.meta.Result.Succeeded()
	} else if qt.err != nil {
		result = fmt.Sprintf("internal error: %v", qt.err)
	}

	qt.tx, qt.meta = nil, nil // the retained status does not need them

	fd.stMu.Lock()
	qt.st.State = "applied"
	qt.st.Hash = qt.hash
	qt.st.Sequence = qt.sequence
	qt.st.Result = result
	qt.st.Succeeded = succeeded
	qt.st.WaitNS = wait.Nanoseconds()
	// An auto-sequenced transaction's final hash is new here; an
	// explicit one's was registered at admission.
	if qt.autoSeq {
		fd.own(qt.hash, qt)
	}
	// The ring grows by append until it holds StatusCapacity statuses;
	// from then on ringNext is the oldest, and each resolution evicts it.
	if len(fd.resolved) < fd.opts.StatusCapacity {
		fd.resolved = append(fd.resolved, qt)
	} else {
		old := fd.resolved[fd.ringNext]
		old.evicted = true
		for _, h := range [2]ledger.Hash{old.st.Hash, old.subHash} {
			if fd.byHash[h] == old {
				delete(fd.byHash, h)
			}
		}
		fd.resolved[fd.ringNext] = qt
		fd.ringNext = (fd.ringNext + 1) % len(fd.resolved)
	}
	fd.stMu.Unlock()
	// Count the outcome before the waiter can see it, so a submitter
	// that returns and scrapes /metrics finds its own submission there.
	fd.met.applied.Add(1)
	if succeeded {
		fd.met.succeeded.Add(1)
	}
	fd.met.submit.Observe(wait)
	close(qt.done)
	<-fd.slots
}

// PathFind answers a ripple_path_find-style quote: the best liquidity
// for delivering `deliver` to dst funded in srcCur from src. Answers
// come from the read-set-invalidated cache when valid, otherwise from a
// fresh recording search against the live engine under the read lock.
func (fd *FrontDoor) PathFind(src, dst addr.AccountID, srcCur amount.Currency, deliver amount.Amount) (Quote, error) {
	start := time.Now()
	defer func() { fd.met.quote.Observe(time.Since(start)) }()
	if fd.closed.Load() {
		return Quote{}, ErrClosed
	}
	if srcCur.IsXRP() && deliver.Currency.IsXRP() {
		// Direct XRP transfers need no path; mirror the engine, which
		// never consults the finder for them.
		return Quote{
			Found:       true,
			Delivered:   deliver.Value,
			SourceCost:  deliver.Value,
			SrcCurrency: srcCur,
			DstCurrency: deliver.Currency,
			Epoch:       fd.cache.currentEpoch(),
		}, nil
	}
	key := quoteKey{src: src, dst: dst, srcCur: srcCur, dstCur: deliver.Currency, deliver: deliver.Value}
	if q, ok := fd.cache.get(key); ok {
		return q, nil
	}

	fd.mu.RLock()
	f := fd.quoters.Get().(*pathfind.Finder)
	plan, err := f.FindPayment(src, dst, srcCur, deliver)
	var reads pathfind.ReadSet
	f.AppendReadSet(&reads)
	q := Quote{SrcCurrency: srcCur, DstCurrency: deliver.Currency}
	if err == nil && plan != nil {
		// The plan is f's until its next search: copy it out before f
		// goes back to the pool, where another reader can take it.
		q.Found = true
		q.Delivered = plan.Delivered
		q.SourceCost = plan.SourceCost
		q.Paths = append([]pathfind.PathInfo(nil), plan.Paths...)
		q.UsedBridge = plan.UsedBridge
	}
	fd.quoters.Put(f)
	q.Epoch = fd.cache.currentEpoch()
	fd.mu.RUnlock()

	if err != nil && !errors.Is(err, pathfind.ErrNoPath) {
		return Quote{}, err
	}
	fd.cache.put(key, q, reads)
	return q, nil
}

// Status looks up a transaction by its final hash, or by the
// as-submitted hash an auto-sequenced submission was registered under
// over HTTP.
func (fd *FrontDoor) Status(h ledger.Hash) (TxStatus, bool) {
	fd.stMu.Lock()
	defer fd.stMu.Unlock()
	qt, ok := fd.byHash[h]
	if !ok {
		return TxStatus{}, false
	}
	return qt.st, true
}

// Depth returns the current queued-but-unresolved count (admission
// slots held).
func (fd *FrontDoor) Depth() int { return len(fd.slots) }

// Epoch returns the current trust-graph epoch.
func (fd *FrontDoor) Epoch() uint64 { return fd.cache.currentEpoch() }

// StateDigest returns the engine's running state digest under the read
// lock — with the queue drained it is directly comparable to a
// sequential replay of the same transactions.
func (fd *FrontDoor) StateDigest() ledger.Hash {
	fd.mu.RLock()
	defer fd.mu.RUnlock()
	return fd.eng.StateDigest()
}

// WithEngine runs fn with the engine under the read lock. Serving
// handlers use it for read-only account probes (existence, next
// sequence) without racing the applier.
func (fd *FrontDoor) WithEngine(fn func(eng *payment.Engine)) {
	fd.mu.RLock()
	defer fd.mu.RUnlock()
	fn(fd.eng)
}

// Drain waits until every admitted transaction has resolved or ctx
// expires.
func (fd *FrontDoor) Drain(ctx context.Context) error {
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		if fd.q.size() == 0 && len(fd.slots) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// Close shuts the front door: new submissions fail with ErrClosed,
// already-admitted transactions are applied and resolved, then the
// applier exits.
func (fd *FrontDoor) Close() {
	if fd.closed.Swap(true) {
		return
	}
	fd.q.close()
	fd.wg.Wait()
}

// StatsNow snapshots the counters.
func (fd *FrontDoor) StatsNow() Stats {
	hits, misses, stale, evicted, size := fd.cache.statsNow()
	return Stats{
		Depth:        fd.Depth(),
		Offered:      fd.met.offered.Load(),
		Shed:         fd.met.shed.Load(),
		Rejected:     fd.met.rejected.Load(),
		Applied:      fd.met.applied.Load(),
		Succeeded:    fd.met.succeeded.Load(),
		Batches:      fd.met.batches.Load(),
		CacheHits:    hits,
		CacheMisses:  misses,
		CacheStale:   stale,
		CacheEvicted: evicted,
		CacheSize:    size,
		Epoch:        fd.cache.currentEpoch(),
	}
}
