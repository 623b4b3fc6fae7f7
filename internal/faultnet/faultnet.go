// Package faultnet injects deterministic faults into network
// connections and stored files, for chaos-testing the collection
// pipeline. The paper's §IV measurement rests on a collection server
// staying subscribed to a validation stream for two-week windows;
// faultnet reproduces, under a fixed seed, the faults such a window
// sees — added latency, mid-frame disconnects, silently truncated
// writes, and bit corruption — so tests can prove the pipeline's
// reports are identical with and without them.
//
// Wrap a server's listener with Wrap to degrade every byte written
// through its connections. The file helpers (FlipBitAt, FlipRandomBit,
// TruncateTail) apply the same corruption model to on-disk segment
// files.
package faultnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Config selects the faults to inject. Rates are per Write call and
// mutually exclusive (one fault at most per write, picked in the order
// corrupt, drop, truncate); their sum must not exceed 1.
type Config struct {
	// Seed drives all randomness; the same seed over the same write
	// sequence injects the same faults.
	Seed int64
	// CorruptRate is the probability of flipping one random bit of the
	// written data.
	CorruptRate float64
	// DropRate is the probability of closing the connection after
	// writing only a prefix — a mid-frame disconnect.
	DropRate float64
	// TruncateRate is the probability of silently writing only a
	// prefix while reporting complete success.
	TruncateRate float64
	// Latency is a fixed delay added to every write.
	Latency time.Duration
}

// Stats counts injected faults across all connections of a Listener
// (or one wrapped Conn).
type Stats struct {
	Writes    uint64
	Corrupted uint64
	Dropped   uint64
	Truncated uint64
}

// FaultRate is the fraction of writes that had a fault injected.
func (s Stats) FaultRate() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Corrupted+s.Dropped+s.Truncated) / float64(s.Writes)
}

func (s Stats) String() string {
	return fmt.Sprintf("writes=%d corrupted=%d dropped=%d truncated=%d (%.1f%% faulty)",
		s.Writes, s.Corrupted, s.Dropped, s.Truncated, 100*s.FaultRate())
}

// counters is the shared tally wrapped connections report into.
type counters struct {
	writes, corrupted, dropped, truncated atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Writes:    c.writes.Load(),
		Corrupted: c.corrupted.Load(),
		Dropped:   c.dropped.Load(),
		Truncated: c.truncated.Load(),
	}
}

// Listener wraps a net.Listener so every accepted connection injects
// faults on writes. Each connection gets its own deterministic RNG
// derived from Config.Seed and the accept index.
type Listener struct {
	net.Listener
	cfg   Config
	next  atomic.Int64
	stats counters
}

// Wrap degrades every connection accepted from ln according to cfg.
func Wrap(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg}
}

// Accept waits for the next connection and wraps it.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	idx := l.next.Add(1)
	return newConn(conn, l.cfg, l.cfg.Seed+idx*7919, &l.stats), nil
}

// Stats reports the faults injected so far across all connections.
func (l *Listener) Stats() Stats { return l.stats.snapshot() }

// ErrInjected is the error surfaced by an injected disconnect.
var ErrInjected = errors.New("faultnet: injected disconnect")

// Conn wraps a net.Conn, injecting faults into Write. Reads pass
// through untouched (the remote side's faulty writes are what this end
// reads).
type Conn struct {
	net.Conn
	cfg   Config
	mu    sync.Mutex
	rng   *rand.Rand
	tally *counters // shared with the Listener that accepted the conn
}

func newConn(conn net.Conn, cfg Config, seed int64, tally *counters) *Conn {
	return &Conn{Conn: conn, cfg: cfg, rng: rand.New(rand.NewSource(seed)), tally: tally}
}

// Write injects at most one fault, then forwards to the wrapped
// connection.
func (c *Conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	roll := c.rng.Float64()
	var bit int
	if len(p) > 0 {
		bit = c.rng.Intn(len(p) * 8)
	}
	c.mu.Unlock()
	c.tally.writes.Add(1)
	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	if len(p) == 0 {
		return c.Conn.Write(p)
	}
	switch {
	case roll < c.cfg.CorruptRate:
		c.tally.corrupted.Add(1)
		corrupted := make([]byte, len(p))
		copy(corrupted, p)
		corrupted[bit/8] ^= 1 << (bit % 8)
		return c.Conn.Write(corrupted)
	case roll < c.cfg.CorruptRate+c.cfg.DropRate:
		c.tally.dropped.Add(1)
		_, _ = c.Conn.Write(p[:len(p)/2])
		c.Conn.Close()
		return len(p) / 2, ErrInjected
	case roll < c.cfg.CorruptRate+c.cfg.DropRate+c.cfg.TruncateRate:
		c.tally.truncated.Add(1)
		if _, err := c.Conn.Write(p[:len(p)/2]); err != nil {
			return 0, err
		}
		// Report full success: the loss is silent, exactly like a
		// crashed peer whose kernel acked but never delivered.
		return len(p), nil
	default:
		return c.Conn.Write(p)
	}
}

// FlipBitAt flips one bit of the file at path: bit `bit` (0–7) of the
// byte at offset off.
func FlipBitAt(path string, off int64, bit uint) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("faultnet: open %s: %w", path, err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return fmt.Errorf("faultnet: read %s@%d: %w", path, off, err)
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		return fmt.Errorf("faultnet: write %s@%d: %w", path, off, err)
	}
	return nil
}

// FlipRandomBit flips one deterministically-chosen bit of the file and
// returns its position.
func FlipRandomBit(path string, seed int64) (off int64, bit uint, err error) {
	info, err := os.Stat(path)
	if err != nil {
		return 0, 0, fmt.Errorf("faultnet: stat %s: %w", path, err)
	}
	if info.Size() == 0 {
		return 0, 0, fmt.Errorf("faultnet: %s is empty", path)
	}
	rng := rand.New(rand.NewSource(seed))
	off = rng.Int63n(info.Size())
	bit = uint(rng.Intn(8))
	return off, bit, FlipBitAt(path, off, bit)
}

// TruncateTail removes the last n bytes of the file — a mid-write
// crash.
func TruncateTail(path string, n int64) error {
	info, err := os.Stat(path)
	if err != nil {
		return fmt.Errorf("faultnet: stat %s: %w", path, err)
	}
	size := info.Size() - n
	if size < 0 {
		size = 0
	}
	if err := os.Truncate(path, size); err != nil {
		return fmt.Errorf("faultnet: truncate %s: %w", path, err)
	}
	return nil
}
