// Package netstream carries the validation stream over TCP as
// newline-delimited, checksummed JSON frames. It reproduces the paper's
// data-collection setup: "we needed to collect real-time information on
// the consensus rounds and the validation process in the system. We did
// so by setting up a Ripple server that made use of the Ripple's
// validation stream."
//
// A Server attached to a consensus.Network publishes every validation
// and ledger-close event to all connected subscribers; a Client is the
// collection server that consumes them. The paper's collection windows
// span two weeks, so the transport is built to survive the faults such
// a window sees in practice:
//
//   - Every published event carries a monotonically increasing stream
//     sequence number; the server keeps a bounded replay ring so a
//     subscriber that reconnects can resume from the last sequence it
//     saw (wire handshake: the client's first line is a JSON hello
//     {"resume_after": N}).
//   - Each wire frame is "crc32hex SP json LF"; a corrupted or
//     truncated frame fails its checksum and is skipped (and counted),
//     never parsed into a bogus event. The JSON is what json.Marshal
//     makes of a consensus.Event, but on the hot path neither side calls
//     encoding/json: wire.go writes that text directly (appendFrame) and
//     reads it back with a strict parser for exactly that text, behind
//     the same checksum. Whatever the parser declines (other key order,
//     whitespace, escapes, a foreign producer) json.Unmarshal decodes as
//     before, so the set of accepted frames is the one it defines.
//   - What a peer can make either side buffer is bounded: a hello line
//     by maxHelloBytes, a frame by MaxFrameBytes.
//   - Each subscriber owns a bounded queue drained by its own writer
//     goroutine, so one slow or stalled peer cannot delay Publish or
//     other subscribers. Overflow drops the oldest queued frame and is
//     counted per subscriber; the dropped range surfaces client-side as
//     a sequence gap, which a ResilientClient repairs from the ring.
package netstream

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ripplestudy/internal/consensus"
)

// Defaults for server tunables; override with Options.
const (
	DefaultReplayRing   = 8192
	DefaultQueueSize    = 1024
	DefaultWriteTimeout = 5 * time.Second
	DefaultHelloTimeout = 10 * time.Second
)

// maxHelloBytes caps the hello line, so a peer that never sends a
// newline cannot make the server buffer for the whole hello timeout.
const maxHelloBytes = 1024

// hello is the first line a subscriber sends after connecting.
type hello struct {
	// ResumeAfter asks the server to replay buffered events with a
	// stream sequence strictly greater than this value (0 = from the
	// oldest the ring still holds).
	ResumeAfter uint64 `json:"resume_after"`
}

// frame is one encoded wire line plus the sequence it carries.
type frame struct {
	seq  uint64
	line []byte
}

// subscriber is one connected consumer with its own bounded queue and
// writer goroutine.
type subscriber struct {
	conn net.Conn
	// replay holds the ring snapshot owed to this subscriber; it is
	// written before any live frame and owned solely by the writer.
	replay []frame
	ch     chan frame

	replayed   atomic.Bool // replay fully written
	dropped    uint64      // frames dropped from ch (guarded by Server.mu)
	registered time.Time
}

// SubscriberStats describes one live subscriber.
type SubscriberStats struct {
	RemoteAddr string
	// Dropped counts frames evicted from this subscriber's queue
	// because it could not keep up.
	Dropped uint64
	// Queued is the current queue depth.
	Queued int
}

// ServerStats aggregates a server's lifetime counters.
type ServerStats struct {
	// Published counts events accepted by Publish.
	Published uint64
	// Replayed counts frames scheduled for resume replays.
	Replayed uint64
	// Dropped counts frames dropped across all subscriber queues
	// (including subscribers since evicted).
	Dropped uint64
	// Evicted counts subscribers removed after write failures.
	Evicted uint64
	// Served counts subscribers that completed the handshake.
	Served uint64
	// Subscribers is the current subscriber count.
	Subscribers int
	// LastSeq is the highest stream sequence published.
	LastSeq uint64
}

// Option configures a Server.
type Option func(*Server)

// WithReplayRing sets how many recent frames the server retains for
// resume replays.
func WithReplayRing(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.ringCap = n
		}
	}
}

// WithQueueSize bounds each subscriber's live-frame queue.
func WithQueueSize(n int) Option {
	return func(s *Server) {
		if n > 0 {
			s.queueCap = n
		}
	}
}

// WithWriteTimeout bounds each write to a subscriber connection; a
// stalled peer is evicted when it trips.
func WithWriteTimeout(d time.Duration) Option {
	return func(s *Server) {
		if d > 0 {
			s.writeTimeout = d
		}
	}
}

// WithListenerWrapper installs a wrapper around the TCP listener —
// the hook faultnet uses to inject faults into every subscriber
// connection.
func WithListenerWrapper(wrap func(net.Listener) net.Listener) Option {
	return func(s *Server) { s.wrapListener = wrap }
}

// Server publishes consensus events to TCP subscribers.
type Server struct {
	ln           net.Listener
	wrapListener func(net.Listener) net.Listener

	ringCap      int
	queueCap     int
	writeTimeout time.Duration
	helloTimeout time.Duration

	mu        sync.Mutex
	subs      map[*subscriber]struct{}
	pending   map[net.Conn]struct{} // conns mid-handshake
	closed    bool
	seq       uint64
	ring      []frame
	ringStart int
	ringLen   int
	stats     ServerStats
	enc       []byte    // Publish's encode scratch; frames are exact-size copies
	nodes     nodeTexts // Publish's node-key text memo

	wg sync.WaitGroup
}

// Serve starts a server listening on address (use "127.0.0.1:0" for an
// ephemeral port).
func Serve(address string, opts ...Option) (*Server, error) {
	s := &Server{
		ringCap:      DefaultReplayRing,
		queueCap:     DefaultQueueSize,
		writeTimeout: DefaultWriteTimeout,
		helloTimeout: DefaultHelloTimeout,
		subs:         make(map[*subscriber]struct{}),
		pending:      make(map[net.Conn]struct{}),
	}
	for _, opt := range opts {
		opt(s)
	}
	ln, err := net.Listen("tcp", address)
	if err != nil {
		return nil, fmt.Errorf("netstream: listen: %w", err)
	}
	if s.wrapListener != nil {
		ln = s.wrapListener(ln)
	}
	s.ln = ln
	s.ring = make([]frame, s.ringCap)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.pending[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handshake(conn)
	}
}

// handshake reads the subscriber's hello line (at most maxHelloBytes; a
// longer one is hung up on), snapshots the replay it is owed, registers
// it, and starts its writer.
func (s *Server) handshake(conn net.Conn) {
	defer s.wg.Done()
	_ = conn.SetReadDeadline(time.Now().Add(s.helloTimeout))
	var h hello
	line, err := bufio.NewReaderSize(conn, maxHelloBytes).ReadSlice('\n')
	if err != nil || json.Unmarshal(line, &h) != nil {
		s.mu.Lock()
		delete(s.pending, conn)
		s.mu.Unlock()
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})

	s.mu.Lock()
	delete(s.pending, conn)
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return
	}
	sub := &subscriber{
		conn:       conn,
		replay:     s.ringAfterLocked(h.ResumeAfter),
		ch:         make(chan frame, s.queueCap),
		registered: time.Now(),
	}
	s.stats.Replayed += uint64(len(sub.replay))
	s.stats.Served++
	s.subs[sub] = struct{}{}
	s.wg.Add(1)
	s.mu.Unlock()
	go s.writeLoop(sub)
}

// ringAfterLocked snapshots buffered frames with seq > after, oldest
// first. Caller holds s.mu.
func (s *Server) ringAfterLocked(after uint64) []frame {
	// Sized once, for the whole ring: this runs under s.mu, where a
	// long resume used to regrow its result a dozen times. Publish takes
	// caller-assigned sequences in any order, so it stays a scan.
	out := make([]frame, 0, s.ringLen)
	for i := 0; i < s.ringLen; i++ {
		if f := s.ring[(s.ringStart+i)%s.ringCap]; f.seq > after {
			out = append(out, f)
		}
	}
	return out
}

// ringAppendLocked adds a frame to the replay ring, evicting the oldest
// when full. Caller holds s.mu.
func (s *Server) ringAppendLocked(f frame) {
	if s.ringLen < s.ringCap {
		s.ring[(s.ringStart+s.ringLen)%s.ringCap] = f
		s.ringLen++
		return
	}
	s.ring[s.ringStart] = f
	s.ringStart = (s.ringStart + 1) % s.ringCap
}

// deadlineWriter arms the write deadline when bytes actually leave for
// the socket, which under a bufio.Writer is once per buffer, not once
// per frame.
type deadlineWriter struct {
	conn    net.Conn
	timeout time.Duration
}

func (w deadlineWriter) Write(p []byte) (int, error) {
	_ = w.conn.SetWriteDeadline(time.Now().Add(w.timeout))
	return w.conn.Write(p)
}

// writeLoop drains one subscriber's replay and queue, flushing whenever
// the queue runs empty. A failed or timed-out write evicts the
// subscriber without affecting anyone else.
func (s *Server) writeLoop(sub *subscriber) {
	defer s.wg.Done()
	bw := bufio.NewWriterSize(deadlineWriter{sub.conn, s.writeTimeout}, 1<<15)
	write := func(f frame) bool {
		_, err := bw.Write(f.line)
		return err == nil
	}
	fail := func() {
		sub.conn.Close()
		s.mu.Lock()
		if _, ok := s.subs[sub]; ok {
			delete(s.subs, sub)
			s.stats.Evicted++
		}
		s.mu.Unlock()
	}
	for _, f := range sub.replay {
		if !write(f) {
			sub.replayed.Store(true)
			fail()
			return
		}
	}
	sub.replay = nil
	if err := bw.Flush(); err != nil {
		sub.replayed.Store(true)
		fail()
		return
	}
	sub.replayed.Store(true)
	for {
		f, ok := <-sub.ch
		if !ok {
			// Server shutdown: the channel was closed after draining
			// publishes; flush what remains and hang up.
			_ = bw.Flush()
			sub.conn.Close()
			return
		}
		if !write(f) {
			fail()
			return
		}
		if len(sub.ch) == 0 {
			if err := bw.Flush(); err != nil {
				fail()
				return
			}
		}
	}
}

// Publish sends the event to every connected subscriber. It never
// blocks on a slow subscriber: each subscriber has a bounded queue and
// overflow drops that subscriber's oldest queued frame (counted in its
// SubscriberStats). Events with StreamSeq zero are assigned the next
// server sequence. Safe for concurrent use.
func (s *Server) Publish(ev consensus.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	if ev.StreamSeq == 0 {
		s.seq++
		ev.StreamSeq = s.seq
	} else if ev.StreamSeq > s.seq {
		s.seq = ev.StreamSeq
	}
	var err error
	if s.enc, err = appendFrame(s.enc[:0], &ev, s.nodes.text(ev.Node)); err != nil {
		// Only a time RFC 3339 cannot express; nothing here makes one.
		return
	}
	f := frame{seq: ev.StreamSeq, line: bytes.Clone(s.enc)}
	s.ringAppendLocked(f)
	s.stats.Published++
	s.stats.LastSeq = s.seq
	for sub := range s.subs {
		select {
		case sub.ch <- f:
			continue
		default:
		}
		// Queue full: drop the oldest queued frame to make room. The
		// subscriber sees the loss as a sequence gap it can repair.
		select {
		case <-sub.ch:
			sub.dropped++
			s.stats.Dropped++
		default:
		}
		select {
		case sub.ch <- f:
		default:
			sub.dropped++
			s.stats.Dropped++
		}
	}
}

// queuesDrainedLocked reports whether every subscriber has finished its
// replay and emptied its queue. Caller holds s.mu.
func (s *Server) queuesDrainedLocked() bool {
	for sub := range s.subs {
		if !sub.replayed.Load() || len(sub.ch) > 0 {
			return false
		}
	}
	return true
}

// Flush waits (bounded) until every subscriber's queue has drained;
// writers flush their buffers whenever their queue runs empty. Kept for
// API compatibility with the blocking-writer implementation.
func (s *Server) Flush() {
	deadline := time.Now().Add(2 * time.Second)
	for {
		s.mu.Lock()
		drained := s.queuesDrainedLocked()
		s.mu.Unlock()
		if drained || time.Now().After(deadline) {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// NumSubscribers reports the current subscriber count.
func (s *Server) NumSubscribers() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.subs)
}

// Stats returns the server's aggregate counters.
func (s *Server) Stats() ServerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Subscribers = len(s.subs)
	return st
}

// Subscribers returns per-subscriber queue statistics.
func (s *Server) Subscribers() []SubscriberStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SubscriberStats, 0, len(s.subs))
	for sub := range s.subs {
		out = append(out, SubscriberStats{
			RemoteAddr: sub.conn.RemoteAddr().String(),
			Dropped:    sub.dropped,
			Queued:     len(sub.ch),
		})
	}
	return out
}

// Close stops accepting, drains subscriber queues, and closes all
// connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	for sub := range s.subs {
		// Writers drain the remaining buffered frames from a closed
		// channel before seeing it closed, then flush and hang up.
		close(sub.ch)
		delete(s.subs, sub)
	}
	for conn := range s.pending {
		conn.Close()
		delete(s.pending, conn)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	s.wg.Wait()
	return err
}

// Client consumes a validation stream. One goroutine at a time may run
// Events or EventsContext.
type Client struct {
	conn net.Conn
	r    *bufio.Reader
	dec  decoder

	// readTimeout bounds each read; on expiry the read is retried
	// (after a context check) rather than failed, so it acts as the
	// cancellation poll interval.
	readTimeout time.Duration
	// stallAfter, when nonzero, fails the stream with ErrStalled if no
	// complete frame arrives for that long.
	stallAfter time.Duration
	// lastFrame is when the socket was first read after the latest
	// complete frame: the start of the current wait, which is what the
	// stall window measures. gotFrame marks it due for a refresh.
	lastFrame time.Time
	gotFrame  bool

	badFrames atomic.Uint64
}

// socketReader sits under the Client's bufio.Reader, so the deadline is
// armed and the clock read once per socket read, not once per frame.
type socketReader struct{ c *Client }

func (r socketReader) Read(p []byte) (int, error) {
	now := time.Now()
	if r.c.gotFrame {
		r.c.lastFrame, r.c.gotFrame = now, false
	}
	if r.c.readTimeout > 0 {
		_ = r.c.conn.SetReadDeadline(now.Add(r.c.readTimeout))
	}
	return r.c.conn.Read(p)
}

// DialResume connects and asks the server to replay buffered events
// with stream sequence greater than resumeAfter (0 replays everything
// the ring still holds). A zero timeout means no dial timeout.
func DialResume(address string, resumeAfter uint64, timeout time.Duration) (*Client, error) {
	conn, err := net.DialTimeout("tcp", address, timeout)
	if err != nil {
		return nil, fmt.Errorf("netstream: dial: %w", err)
	}
	h, _ := json.Marshal(hello{ResumeAfter: resumeAfter})
	h = append(h, '\n')
	if timeout > 0 {
		_ = conn.SetWriteDeadline(time.Now().Add(timeout))
	}
	if _, err := conn.Write(h); err != nil {
		conn.Close()
		return nil, fmt.Errorf("netstream: hello: %w", err)
	}
	_ = conn.SetWriteDeadline(time.Time{})
	c := &Client{conn: conn}
	c.r = bufio.NewReaderSize(socketReader{c}, 1<<15)
	return c, nil
}

// MaxFrameBytes caps one wire line, far above the largest close a ledger
// page can make. A Client counts a longer line as one bad frame, holds
// none of it, and is back in step at its newline.
const MaxFrameBytes = 16 << 20

// ErrStop can be returned from an Events callback to stop consumption
// without error.
var ErrStop = errors.New("netstream: stop")

// ErrRead marks transport-level read failures, as opposed to callback
// errors; a ResilientClient reconnects on it.
var ErrRead = errors.New("netstream: read")

// ErrStalled reports that the stream delivered no complete frame
// within the configured stall window.
var ErrStalled = fmt.Errorf("%w: stream stalled", ErrRead)

// BadFrames returns how many malformed, corrupted, or truncated frames
// the client has skipped.
func (c *Client) BadFrames() uint64 { return c.badFrames.Load() }

// Events reads events until the stream closes or fn returns an error.
// Returning ErrStop stops cleanly. Corrupt frames are skipped and
// counted in BadFrames rather than aborting the stream.
func (c *Client) Events(fn func(consensus.Event) error) error {
	return c.EventsContext(context.Background(), fn)
}

// EventsContext is Events with cancellation and per-read deadlines:
// the context is checked at least every readTimeout (when configured),
// and a nonzero stall window fails the stream with ErrStalled when no
// frame completes in time.
func (c *Client) EventsContext(ctx context.Context, fn func(consensus.Event) error) error {
	var pending []byte // a line's earlier pieces
	skipping := false  // inside a line already counted as over MaxFrameBytes
	c.gotFrame = true  // the stall window opens at the first read
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		line, err := c.r.ReadSlice('\n')
		switch {
		case skipping:
			line, skipping = nil, err != nil
		case len(pending)+len(line) > MaxFrameBytes:
			c.badFrames.Add(1)
			line, pending, skipping = nil, nil, err != nil
		case len(pending) > 0 || err != nil:
			// A piece: the line outgrew the buffer, or a read timed out
			// or failed inside it.
			pending = append(pending, line...)
			line = pending
		}
		if err == nil {
			pending = pending[:0]
			if line == nil {
				continue
			}
			ev, ok := c.dec.decode(line)
			if !ok {
				c.badFrames.Add(1)
				continue
			}
			c.gotFrame = true
			if ferr := fn(ev); ferr != nil {
				if errors.Is(ferr, ErrStop) {
					return nil
				}
				return ferr
			}
			continue
		}
		if errors.Is(err, bufio.ErrBufferFull) {
			continue
		}
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			if c.stallAfter > 0 && time.Since(c.lastFrame) > c.stallAfter {
				return ErrStalled
			}
			continue
		}
		if len(pending) > 0 {
			// Truncated final line (mid-frame disconnect).
			c.badFrames.Add(1)
		}
		if errors.Is(err, io.EOF) {
			return nil
		}
		return fmt.Errorf("%w: %v", ErrRead, err)
	}
}

// Close closes the connection.
func (c *Client) Close() error { return c.conn.Close() }
