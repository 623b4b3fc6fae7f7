package ledgerstore

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"ripplestudy/internal/ledger"
)

// forEachSegmentParallel runs `run` once per segment file on up to
// `workers` goroutines, cancelling everything on the first error and
// returning it. workers < 1 defaults to GOMAXPROCS. run's worker index
// satisfies 0 ≤ w < workers.
func (s *Store) forEachSegmentParallel(ctx context.Context, workers int, run func(ctx context.Context, w int, seg string) error) error {
	if err := s.closeCurrent(); err != nil {
		return err
	}
	segs, err := segmentFiles(s.dir)
	if err != nil {
		return err
	}
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(segs) {
		workers = len(segs)
	}
	if workers <= 1 {
		for _, seg := range segs {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := run(ctx, 0, seg); err != nil {
				return err
			}
		}
		return nil
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		once     sync.Once
		firstErr error
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			cancel()
		})
	}

	work := make(chan string)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seg := range work {
				if err := run(ctx, w, seg); err != nil {
					fail(err)
					return
				}
			}
		}(w)
	}

feed:
	for _, seg := range segs {
		select {
		case work <- seg:
		case <-ctx.Done():
			break feed
		}
	}
	close(work)
	wg.Wait()
	// Cancellation without a worker error (parent ctx cancelled mid-feed)
	// still has to surface.
	fail(ctx.Err())
	return firstErr
}

// PayloadsParallel streams every CRC-verified record payload (one
// canonical page encoding each) to fn on up to `workers` goroutines,
// without decoding anything — the rawest scan surface, for consumers
// that project the fields they need straight out of the encoding
// (ledger.TxIter / ledger.ScanPayments) and own the result.
//
// The payload aliases the segment's (possibly memory-mapped) bytes and
// is valid only inside fn; retain copies, not the slice. Records within
// one segment arrive in append order, but segments are interleaved
// arbitrarily across workers — callers needing global order use Pages
// or reorder by header sequence. fn is called concurrently from up to
// `workers` goroutines; the worker index (0 ≤ w < workers) identifies
// the calling goroutine, so callers keep per-worker state (one
// ledger.PageArena and one analysis.Collector each, say) without
// locking. The first error — fn's, a corrupted record, or ctx
// cancellation — stops all workers and is returned. A workers value
// < 1 defaults to GOMAXPROCS. Like Pages, a truncated final record is
// tolerated; unlike it, a CRC-clean record with bytes past its page
// encoding is delivered, so a decoding consumer checks the length.
func (s *Store) PayloadsParallel(ctx context.Context, workers int, fn func(worker int, payload []byte) error) error {
	return s.forEachSegmentParallel(ctx, workers, func(ctx context.Context, w int, seg string) error {
		n := 0
		return forEachRecord(seg, func(payload []byte) error {
			// Poll cancellation every few records; the callback itself
			// is typically well under a microsecond.
			if n++; n&63 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			return fn(w, payload)
		})
	})
}

// ScanPayments streams every successful payment in the store through
// the zero-copy projection (ledger.ScanPayments) on up to `workers`
// goroutines — the fastest way to feed payment-only consumers like the
// Figure 3 de-anonymization sweep: no *Page, *Tx, or *TxMeta is ever
// materialized.
//
// The *ledger.PaymentView passed to fn is reused by that worker and
// valid only inside the call; all its fields are plain values, so
// copying what's needed is cheap. Ordering and error semantics match
// PayloadsParallel (per-segment order, arbitrary interleaving across
// segments, first error wins), except that a record with trailing bytes
// is ErrCorrupted.
func (s *Store) ScanPayments(ctx context.Context, workers int, fn func(worker int, pv *ledger.PaymentView) error) error {
	return s.forEachSegmentParallel(ctx, workers, func(ctx context.Context, w int, seg string) error {
		n := 0
		return forEachRecord(seg, func(payload []byte) error {
			var cbErr error
			used, err := ledger.ScanPayments(payload, func(pv *ledger.PaymentView) error {
				// Poll cancellation every few hundred payments, not every
				// payment: the projection callback is only tens of
				// nanoseconds of work.
				if n++; n&255 == 0 {
					if cbErr = ctx.Err(); cbErr != nil {
						return cbErr
					}
				}
				cbErr = fn(w, pv)
				return cbErr
			})
			if err != nil {
				if cbErr != nil && err == cbErr {
					return cbErr // the caller's own error, unwrapped
				}
				return fmt.Errorf("ledgerstore: scanning page in %s: %w", seg, err)
			}
			if used != len(payload) {
				return fmt.Errorf("%w: %d trailing bytes in record", ErrCorrupted, len(payload)-used)
			}
			return nil
		})
	})
}
