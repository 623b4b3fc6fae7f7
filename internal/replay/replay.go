// Package replay implements the paper's Table II experiment: "We started
// from a stable snapshot ... of the Ripple network. Then, we extracted
// all payments submitted after the snapshot and successfully delivered
// ... So, we remove them [the Market Makers] and the exchange orders from
// the system and replay the extracted payments on the modified trust
// network," updating balances after each successful payment and applying
// the trust-line updates that happened on the real system.
//
// RunOpts applies the post-snapshot transactions one at a time, in ledger
// order, each payment searched against the state the previous one left.
// History is always read from a ledgerstore: it arrives through a
// decode-ahead page stream that uses the store's sequence index, so a
// replay from a 70% snapshot reads each byte of the store once instead
// of scanning it twice.
package replay

import (
	"errors"
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/nodestore"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/shamap"
)

// errStopStream stops the decode-ahead producer once the consumer has
// quit. It must be matched with errors.Is: the store may wrap it.
var errStopStream = errors.New("replay: consumer stopped")

// pageOrErr is one element of the decode-ahead stream: a page, or the
// error that ended the stream. release recycles the page's decode arena;
// the consumer must call it exactly once after it is done with the page
// (and everything reachable from it — replayed tx pointers included).
type pageOrErr struct {
	page    *ledger.Page
	release func()
	err     error
}

// decodeAhead is how many decoded pages streamPages buffers.
const decodeAhead = 16

// streamPages decodes pages [lo, hi] on a producer goroutine, sending
// them through a buffered channel so decoding overlaps whatever the
// consumer does with each page (engine apply). The store decodes into
// pooled arenas — the consumer releases each page once it has finished
// with it, so a steady-state replay reuses a bounded ring of arenas
// instead of heap-decoding the whole history. The ring is decodeAhead
// pages deep: an arena keeps slabs sized to the largest page it has
// decoded, so a deeper ring holds more memory without more overlap —
// decoding runs far ahead of apply.
// Closing stop makes the producer quit promptly; the channel is always
// closed when the producer finishes.
func streamPages(src *ledgerstore.Store, lo, hi uint64, stop <-chan struct{}) <-chan pageOrErr {
	ch := make(chan pageOrErr, decodeAhead)
	send := func(pe pageOrErr) error {
		select {
		case ch <- pe:
			return nil
		case <-stop:
			pe.release()
			return errStopStream
		}
	}
	go func() {
		defer close(ch)
		err := src.PagesRangeRecycled(lo, hi, func(p *ledger.Page, release func()) error {
			return send(pageOrErr{page: p, release: release})
		})
		if err != nil && !errors.Is(err, errStopStream) {
			select {
			case ch <- pageOrErr{err: err}:
			case <-stop:
			}
		}
	}()
	return ch
}

// maxSeq is the inclusive upper bound meaning "to the end of history".
const maxSeq = ^uint64(0)

// BuildOptions configure state-tree checkpointing during a replay.
// The zero value replays with no checkpoint writes — but a resume still
// happens automatically when the store's sidecar holds usable
// checkpoints (set DisableResume to force cold).
type BuildOptions struct {
	// CheckpointEvery persists a sealed checkpoint to the sidecar every N
	// pages applied. 0 disables checkpoint writing.
	CheckpointEvery uint64
	// DisableResume forces a cold rebuild even when checkpoints exist.
	DisableResume bool
}

// resumeFromCheckpoint restores the engine from the newest usable
// checkpoint at or before snapshotSeq. It first tries that checkpoint's
// base, one file holding its whole tree; failing that, it reads the
// tree from the union of the incremental batches. Damage costs only the
// checkpoints it touches: a base that fails a CRC or a hash is passed
// over for the union, a batch that fails its CRCs ends the opened store
// just before it, a tree with a node missing or altered does not load, a
// manifest that disagrees with its tree does not restore — and each time
// the next older checkpoint is tried, whose tree the same store still
// holds in full. Only when none is left — no sidecar, no eligible
// checkpoint, the first batch damaged — does it report ok=false and the
// caller replays cold; a checkpoint can speed a replay up but never make
// it fail.
func resumeFromCheckpoint(dir string, snapshotSeq uint64) (eng *payment.Engine, seq uint64, ok bool) {
	metas, err := ledgerstore.ListCheckpoints(dir)
	if err != nil {
		return nil, 0, false
	}
	eligible := 0 // metas is sorted by sequence
	for eligible < len(metas) && metas[eligible].Seq <= snapshotSeq {
		eligible++
	}
	if eligible == 0 {
		return nil, 0, false
	}
	// The tree at checkpoint N lives in the union of every batch ≤ N. The
	// open's error is not news: the loads below find out what the store
	// still holds, hash by hash. It is opened only if the base fails.
	var union *nodestore.FileStore
	openUnion := func() *nodestore.FileStore {
		if union == nil {
			union, _ = ledgerstore.OpenCheckpointNodes(dir, metas[:eligible])
		}
		return union
	}
	newest := metas[eligible-1]
	openBase := func() *nodestore.FileStore {
		base, err := ledgerstore.OpenCheckpointBase(dir, newest.Seq)
		if err != nil {
			return nil
		}
		return base
	}
	type attempt struct {
		cp   ledgerstore.CheckpointMeta
		open func() *nodestore.FileStore // nil when the file does not open
	}
	attempts := []attempt{{newest, openBase}}
	for i := eligible - 1; i >= 0; i-- {
		attempts = append(attempts, attempt{metas[i], openUnion})
	}
	for _, a := range attempts {
		store := a.open()
		if store == nil {
			continue
		}
		tree, err := shamap.Load(a.cp.Root, store.Get)
		if err != nil {
			continue
		}
		restored, err := payment.RestoreEngine(tree, payment.RestoreScalars{
			TotalDrops:    a.cp.TotalDrops,
			FeesDestroyed: amount.Drops(a.cp.FeesDestroyed),
			StateDigest:   a.cp.StateDigest,
		})
		if err != nil {
			continue
		}
		return restored, a.cp.Seq, true
	}
	return nil, 0, false
}

// checkpointWriter seals and persists the engine's state tree every
// `every` pages, and at the end of the build writes the base of the
// newest checkpoint it sealed.
type checkpointWriter struct {
	dir   string
	every uint64
	since uint64
	last  *ledgerstore.CheckpointMeta // newest checkpoint sealed, nil before the first
}

func (cw *checkpointWriter) maybe(eng *payment.Engine, seq uint64) error {
	if cw == nil {
		return nil
	}
	cw.since++
	if cw.since < cw.every {
		return nil
	}
	cw.since = 0
	root, err := eng.SealState()
	if err != nil {
		return err
	}
	meta := &ledgerstore.CheckpointMeta{
		Seq:           seq,
		Root:          root,
		StateDigest:   eng.StateDigest(),
		TotalDrops:    eng.TotalDrops(),
		FeesDestroyed: int64(eng.FeesDestroyed()),
	}
	if err := ledgerstore.WriteCheckpoint(cw.dir, meta, eng.WriteNewStateNodes); err != nil {
		return err
	}
	cw.last = meta
	return nil
}

// writeBase persists the whole tree of the newest checkpoint sealed as
// that checkpoint's base. Only SealState mutates the tree, so it still
// is that checkpoint's tree; the root check guards that.
func (cw *checkpointWriter) writeBase(eng *payment.Engine) error {
	if cw == nil || cw.last == nil {
		return nil
	}
	if root := eng.StateRoot(); root != cw.last.Root {
		return fmt.Errorf("replay: state root %s moved from checkpoint %d's %s", root.Short(), cw.last.Seq, cw.last.Root.Short())
	}
	return ledgerstore.WriteCheckpointBase(cw.dir, cw.last.Seq, eng.WriteAllStateNodes)
}

// BuildStateOpts replays every transaction in src with page sequence ≤
// snapshotSeq into a fresh engine, reconstructing the network state at
// the snapshot. Replaying is deterministic, so the rebuilt state matches
// the state that produced the history. When the store's sidecar
// carries checkpoints, the rebuild resumes from the newest one at or
// before the snapshot instead of starting from genesis; opts can also
// make it write checkpoints of its own (the zero BuildOptions only
// reads them).
func BuildStateOpts(src *ledgerstore.Store, snapshotSeq uint64, opts BuildOptions) (*payment.Engine, error) {
	dir := src.CheckpointDir()
	var eng *payment.Engine
	from := uint64(0)
	if !opts.DisableResume {
		if restored, seq, ok := resumeFromCheckpoint(dir, snapshotSeq); ok {
			eng, from = restored, seq+1
		}
	}
	if eng == nil {
		eng = payment.NewEngine(payment.WithStateTree())
	}
	var cw *checkpointWriter
	if opts.CheckpointEvery > 0 {
		cw = &checkpointWriter{dir: dir, every: opts.CheckpointEvery}
	}
	stop := make(chan struct{})
	defer close(stop)
	for pe := range streamPages(src, from, snapshotSeq, stop) {
		if pe.err != nil {
			return nil, pe.err
		}
		seq, err := applyPage(eng, pe)
		if err != nil {
			return nil, err
		}
		if err := cw.maybe(eng, seq); err != nil {
			return nil, fmt.Errorf("replay: checkpointing at page %d: %w", seq, err)
		}
	}
	if err := cw.writeBase(eng); err != nil {
		return nil, fmt.Errorf("replay: writing the checkpoint base: %w", err)
	}
	return eng, nil
}

// applyPage applies every transaction of one streamed page, reading only
// each result: rebuilding state needs no metadata. The page's decode
// arena (when pooled) is recycled exactly once on every exit path; the
// engine keeps no references into the page — it reads value fields only.
func applyPage(eng *payment.Engine, pe pageOrErr) (seq uint64, err error) {
	defer pe.release()
	seq = pe.page.Header.Sequence
	for _, tx := range pe.page.Txs {
		if _, _, err := eng.ApplyResult(tx); err != nil {
			return seq, fmt.Errorf("replay: rebuilding state at page %d: %w", seq, err)
		}
	}
	return seq, nil
}

// Category buckets replayed payments as the paper's Table II does.
type Category int

const (
	// CategoryCross are payments whose source and delivered currencies
	// differ (68.7% of the paper's replay set).
	CategoryCross Category = iota + 1
	// CategorySingle are same-currency IOU payments.
	CategorySingle
)

// String implements fmt.Stringer.
func (c Category) String() string {
	switch c {
	case CategoryCross:
		return "Cross-currency"
	case CategorySingle:
		return "Single-currency"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// Row is one line of Table II.
type Row struct {
	Category  Category
	Submitted int
	Delivered int
}

// Rate returns the delivery rate.
func (r Row) Rate() float64 {
	if r.Submitted == 0 {
		return 0
	}
	return float64(r.Delivered) / float64(r.Submitted)
}

// Stats is kept for callers that still read it.
//
// Deprecated: PlannedAhead and Conflicts always read 0 — no payment is
// planned ahead of its apply — and go with the benchmark change that
// retires replay.replan_share.
type Stats struct {
	PlannedAhead int
	Conflicts    int
}

// Result is the full Table II.
type Result struct {
	Cross, Single Row
	// RemovedMarketMakers is how many accounts the ablation deleted.
	RemovedMarketMakers int
	// SnapshotSeq is the page sequence the snapshot was taken at.
	SnapshotSeq uint64
	// StateDigest is the replay engine's deterministic state fingerprint
	// after the last replayed transaction — the strongest equality check
	// between two replays of the same history.
	StateDigest ledger.Hash
	// StateRoot is the sealed Merkle root of the engine's final state —
	// the authenticated complement to StateDigest: the digest pins the
	// history taken, the root commits to the state reached, and the pair
	// is pinned differentially across cold and checkpoint-resumed
	// replays.
	StateRoot ledger.Hash
	// Stats is always zero.
	Stats Stats
}

// Total aggregates both categories.
func (r Result) Total() Row {
	return Row{
		Submitted: r.Cross.Submitted + r.Single.Submitted,
		Delivered: r.Cross.Delivered + r.Single.Delivered,
	}
}

// RunOpts executes the Table II experiment over the history in src,
// snapshotting at snapshotSeq: it rebuilds the state (BuildStateOpts,
// with opts), removes every market maker and their offers, and replays
// the post-snapshot IOU payments (direct XRP transfers don't traverse
// trust or books and are excluded, as in the paper's 1.7M-payment
// replay set).
func RunOpts(src *ledgerstore.Store, snapshotSeq uint64, opts BuildOptions) (*Result, error) {
	state, err := BuildStateOpts(src, snapshotSeq, opts)
	if err != nil {
		return nil, err
	}
	removedList := state.RemoveMarketMakers()
	removed := make(map[addr.AccountID]bool, len(removedList))
	for _, a := range removedList {
		removed[a] = true
	}
	res := &Result{
		Cross:               Row{Category: CategoryCross},
		Single:              Row{Category: CategorySingle},
		RemovedMarketMakers: len(removedList),
		SnapshotSeq:         snapshotSeq,
	}
	stop := make(chan struct{})
	defer close(stop)
	for pe := range streamPages(src, snapshotSeq+1, maxSeq, stop) {
		if pe.err != nil {
			return nil, pe.err
		}
		for i, tx := range pe.page.Txs {
			row, ok := classify(tx, pe.page.Metas[i], removed, res)
			if !ok {
				continue
			}
			result, err := replayTx(state, tx)
			if err != nil {
				pe.release()
				return nil, fmt.Errorf("replay: Table II at page %d: %w", pe.page.Header.Sequence, err)
			}
			if result.Succeeded() && row != nil {
				row.Delivered++
			}
		}
		pe.release()
	}
	res.StateDigest = state.StateDigest()
	if res.StateRoot, err = state.SealState(); err != nil {
		return nil, err
	}
	return res, nil
}

// classify applies the Table II filters to one historical transaction,
// bumping the submitted counters as a side effect. ok reports whether
// the transaction is replayed; row is the Table II row a replayed
// payment counts toward (nil for trust-line updates).
func classify(tx *ledger.Tx, meta *ledger.TxMeta, removed map[addr.AccountID]bool, res *Result) (row *Row, ok bool) {
	switch tx.Type {
	case ledger.TxTrustSet:
		// "We also reflected in the modified trust network the updates
		// happening on the real system to trust-lines."
		return nil, !removed[tx.Account] && !removed[tx.LimitPeer]
	case ledger.TxPayment:
		if !meta.Result.Succeeded() {
			return nil, false // the paper replays successfully delivered payments
		}
		if tx.IsDirectXRP() {
			return nil, false
		}
		row = &res.Single
		if meta.CrossCurrency {
			row = &res.Cross
		}
		row.Submitted++
		// A payment whose endpoint vanished with the makers is counted as
		// submitted but not replayed.
		return row, !removed[tx.Account] && !removed[tx.Destination]
	}
	return nil, false
}

// RunParallelOpts is RunOpts; workers is ignored.
//
// Deprecated: use RunOpts. It stays for the benchmark harness and goes
// with the benchmark change that retires replay.run_parallel_s.
func RunParallelOpts(src *ledgerstore.Store, snapshotSeq uint64, _ int, opts BuildOptions) (*Result, error) {
	return RunOpts(src, snapshotSeq, opts)
}

// replayTx re-submits a historical transaction against the (diverged)
// replay state: the sequence number is rewritten to the replay engine's
// expectation. Signatures are not re-checked (they cover the original
// sequence); the replay engine does not verify them. Table II reads
// only the result, so no metadata is assembled.
func replayTx(eng *payment.Engine, tx *ledger.Tx) (ledger.TxResult, error) {
	clone := *tx
	clone.Sequence = eng.NextSequence(tx.Account)
	result, _, err := eng.ApplyResult(&clone)
	return result, err
}
