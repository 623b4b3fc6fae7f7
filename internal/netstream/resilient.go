package netstream

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ripplestudy/internal/consensus"
)

// ResilientOptions tunes a ResilientClient. The zero value picks
// defaults suitable for a long-lived collection run.
type ResilientOptions struct {
	// InitialBackoff is the delay before the first reconnect attempt
	// (default 50ms). Subsequent attempts double it, capped at
	// MaxBackoff (default 5s), with deterministic jitter.
	InitialBackoff time.Duration
	MaxBackoff     time.Duration
	// JitterSeed seeds the backoff jitter (default 1), keeping chaos
	// tests reproducible.
	JitterSeed int64
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// ReadTimeout is the per-read deadline; it bounds how long a
	// blocked read can ignore a cancelled context (default 500ms).
	ReadTimeout time.Duration
	// StallTimeout, when nonzero, treats a connection that delivers no
	// frame for that long as dead and reconnects.
	StallTimeout time.Duration
	// MaxConsecutiveFailures gives up after this many failed connection
	// attempts in a row (default 10; negative = retry forever).
	MaxConsecutiveFailures int
	// Logf, when set, receives one line per reconnect/gap decision.
	Logf func(format string, args ...any)
}

func (o ResilientOptions) withDefaults() ResilientOptions {
	if o.InitialBackoff <= 0 {
		o.InitialBackoff = 50 * time.Millisecond
	}
	if o.MaxBackoff <= 0 {
		o.MaxBackoff = 5 * time.Second
	}
	if o.JitterSeed == 0 {
		o.JitterSeed = 1
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.ReadTimeout <= 0 {
		o.ReadTimeout = 500 * time.Millisecond
	}
	if o.MaxConsecutiveFailures == 0 {
		o.MaxConsecutiveFailures = 10
	}
	return o
}

// ClientStats summarizes a ResilientClient's life so far. All counters
// are cumulative across reconnects.
type ClientStats struct {
	// Connects counts successful connections; Reconnects is
	// Connects-1 clamped at zero.
	Connects   int
	Reconnects int
	// Gaps counts detected sequence discontinuities (each triggers one
	// repair attempt that re-requests the missing range from the
	// server's replay ring).
	Gaps int
	// Missed counts events confirmed lost after a failed repair — the
	// replay ring no longer held them. A client that joins after the
	// ring has evicted the stream's first events counts those too.
	Missed uint64
	// Duplicates counts events skipped because their sequence was
	// already processed (replay overlap after resume).
	Duplicates uint64
	// BadFrames counts corrupted/truncated wire frames skipped.
	BadFrames uint64
	// Events counts events delivered to the callback.
	Events uint64
	// LastSeq is the highest stream sequence processed.
	LastSeq uint64
}

// ErrUnavailable is returned by Run when the server stays unreachable
// past MaxConsecutiveFailures.
var ErrUnavailable = errors.New("netstream: server unavailable")

// errRepair forces a reconnect that re-requests a missing sequence
// range from the server's replay ring.
var errRepair = errors.New("netstream: gap repair")

// ResilientClient consumes a validation stream across connection
// failures: it reconnects with capped exponential backoff plus jitter,
// resumes from the last stream sequence it processed, deduplicates
// replayed events, and detects gaps — repairing them from the server's
// replay ring when possible, counting them as Missed when not.
type ResilientClient struct {
	addr string
	opts ResilientOptions
	rng  *rand.Rand

	mu          sync.Mutex
	stats       ClientStats
	lastSeq     uint64
	repairedAt  uint64 // lastSeq value a gap repair was already tried from
	repairTries int    // repair attempts made from repairedAt
	stopped     bool
}

// maxGapRepairs bounds how many repair reconnects are attempted for one
// gap position before the loss is accepted. The replay itself rides the
// same degraded transport, so a single attempt can be corrupted away;
// retrying a few times makes recovery survive fault-on-fault, while the
// bound keeps a truly evicted range from looping forever.
const maxGapRepairs = 3

// NewResilientClient prepares a client for addr; no connection is made
// until Run.
func NewResilientClient(addr string, opts ResilientOptions) *ResilientClient {
	o := opts.withDefaults()
	return &ResilientClient{
		addr:       addr,
		opts:       o,
		rng:        rand.New(rand.NewSource(o.JitterSeed)),
		repairedAt: ^uint64(0),
	}
}

// Stats returns a snapshot of the client's counters.
func (rc *ResilientClient) Stats() ClientStats {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.stats
}

// LastSeq returns the highest stream sequence processed so far.
func (rc *ResilientClient) LastSeq() uint64 {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	return rc.lastSeq
}

func (rc *ResilientClient) logf(format string, args ...any) {
	if rc.opts.Logf != nil {
		rc.opts.Logf(format, args...)
	}
}

// Run consumes the stream until the context is cancelled, fn returns an
// error (ErrStop stops cleanly), or the server stays unreachable past
// MaxConsecutiveFailures (ErrUnavailable). Disconnects, EOFs, stalls,
// and detected gaps all reconnect and resume from the last processed
// sequence.
func (rc *ResilientClient) Run(ctx context.Context, fn func(ev consensus.Event) error) error {
	failures := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		c, err := DialResume(rc.addr, rc.LastSeq(), rc.opts.DialTimeout)
		if err != nil {
			failures++
			if rc.opts.MaxConsecutiveFailures > 0 && failures >= rc.opts.MaxConsecutiveFailures {
				return fmt.Errorf("%w: %d consecutive failed connects, last: %v",
					ErrUnavailable, failures, err)
			}
			backoff := rc.nextBackoff(failures)
			rc.logf("netstream: connect to %s failed (attempt %d): %v; retrying in %v",
				rc.addr, failures, err, backoff)
			if !rc.sleep(ctx, backoff) {
				return ctx.Err()
			}
			continue
		}
		failures = 0
		c.readTimeout = rc.opts.ReadTimeout
		c.stallAfter = rc.opts.StallTimeout
		rc.mu.Lock()
		rc.stats.Connects++
		if rc.stats.Connects > 1 {
			rc.stats.Reconnects++
			rc.logf("netstream: reconnected to %s, resuming after seq %d", rc.addr, rc.lastSeq)
		}
		rc.mu.Unlock()

		err = c.EventsContext(ctx, func(ev consensus.Event) error { return rc.observe(ev, fn) })
		rc.mu.Lock()
		rc.stats.BadFrames += c.BadFrames()
		stopped := rc.stopped
		rc.mu.Unlock()
		c.Close()

		switch {
		case stopped:
			return nil
		case ctx.Err() != nil:
			return ctx.Err()
		case err == nil:
			// EOF: the server hung up (shutdown or restart). Reconnect
			// and resume; a gone-for-good server ends the run via
			// MaxConsecutiveFailures.
		case errors.Is(err, errRepair):
			rc.logf("netstream: sequence gap after %d; reconnecting to repair from the replay ring", rc.LastSeq())
		case errors.Is(err, ErrRead):
			rc.logf("netstream: stream broke: %v; reconnecting", err)
		default:
			// Callback error: not ours to retry.
			return err
		}
	}
}

// nextBackoff returns the delay before reconnect attempt `attempt`
// (1-based): the exponential base min(InitialBackoff·2^(attempt−1),
// MaxBackoff) jittered uniformly down into [base/2, base]. The jitter
// spreads a fleet of subscribers that lost the same server at the same
// instant, so their reconnects don't thundering-herd the sim; the
// result is deterministic per JitterSeed and NEVER exceeds MaxBackoff.
func (rc *ResilientClient) nextBackoff(attempt int) time.Duration {
	base, limit := rc.opts.InitialBackoff, rc.opts.MaxBackoff
	for i := 1; i < attempt && base < limit; i++ {
		if base > limit/2 { // doubling again would pass (or overflow past) the cap
			base = limit
			break
		}
		base *= 2
	}
	base = min(base, limit)
	rc.mu.Lock()
	d := base/2 + time.Duration(rc.rng.Int63n(int64(base/2)+1))
	rc.mu.Unlock()
	return min(d, limit)
}

// sleep waits for d, returning false if the context is cancelled first.
func (rc *ResilientClient) sleep(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// observe applies sequence bookkeeping — dedup, gap detection and
// repair, resume cursor — before handing the event to fn.
func (rc *ResilientClient) observe(ev consensus.Event, fn func(consensus.Event) error) error {
	rc.mu.Lock()
	if seq := ev.StreamSeq; seq != 0 {
		if seq <= rc.lastSeq {
			rc.stats.Duplicates++
			rc.mu.Unlock()
			return nil
		}
		// A stream starts at sequence 1, so a client that has processed
		// nothing is owed 1 first: the server can drop a new
		// subscriber's oldest queued frames before its writer sends one.
		if seq > rc.lastSeq+1 {
			if rc.repairedAt != rc.lastSeq {
				// First sight of this gap: reconnect and ask the server
				// to replay from lastSeq. The cursor stays put so the
				// replay can fill the hole.
				rc.repairedAt = rc.lastSeq
				rc.repairTries = 1
				rc.stats.Gaps++
				rc.mu.Unlock()
				return errRepair
			}
			if rc.repairTries < maxGapRepairs {
				// The repair replay itself lost the frame (it rides the
				// same degraded transport); try again.
				rc.repairTries++
				rc.mu.Unlock()
				return errRepair
			}
			// Repeated repairs came back and the hole is still there:
			// the ring no longer holds the range. Accept the loss.
			rc.stats.Missed += seq - rc.lastSeq - 1
		}
		rc.lastSeq = seq
		rc.stats.LastSeq = seq
	}
	rc.stats.Events++
	rc.mu.Unlock()
	err := fn(ev)
	if errors.Is(err, ErrStop) {
		rc.mu.Lock()
		rc.stopped = true
		rc.mu.Unlock()
	}
	return err
}
