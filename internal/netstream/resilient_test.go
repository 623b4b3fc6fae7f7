package netstream

import (
	"context"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripplestudy/internal/consensus"
)

func testOptions() ResilientOptions {
	return ResilientOptions{
		InitialBackoff:         2 * time.Millisecond,
		MaxBackoff:             50 * time.Millisecond,
		DialTimeout:            500 * time.Millisecond,
		ReadTimeout:            25 * time.Millisecond,
		MaxConsecutiveFailures: 2000,
	}
}

// collectSeqs accumulates stream sequences thread-safely.
type collectSeqs struct {
	mu   sync.Mutex
	seqs []uint64
}

func (c *collectSeqs) add(ev consensus.Event) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seqs = append(c.seqs, ev.StreamSeq)
	return nil
}

func (c *collectSeqs) snapshot() []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]uint64(nil), c.seqs...)
}

func waitLastSeq(t *testing.T, rc *ResilientClient, want uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for rc.LastSeq() < want {
		if time.Now().After(deadline) {
			t.Fatalf("client stuck at seq %d, want %d", rc.LastSeq(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestResilientClientResumesAcrossServerRestart kills the server
// mid-stream, restarts it on the same address, and checks the client
// reconnects and loses nothing.
func TestResilientClientResumesAcrossServerRestart(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()

	rc := NewResilientClient(addr, testOptions())
	var got collectSeqs
	runErr := make(chan error, 1)
	go func() {
		runErr <- rc.Run(context.Background(), func(ev consensus.Event) error {
			if err := got.add(ev); err != nil {
				return err
			}
			if ev.StreamSeq == 80 {
				return ErrStop
			}
			return nil
		})
	}()
	waitSubscribers(t, srv, 1)
	for i := uint64(1); i <= 40; i++ {
		srv.Publish(testEvent(i))
	}
	waitLastSeq(t, rc, 40)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart on the same address. The network's stream sequences keep
	// rising across the restart (a live consensus network assigns them,
	// not the server), so publish 41.. with explicit sequences.
	var srv2 *Server
	for attempt := 0; ; attempt++ {
		srv2, err = Serve(addr)
		if err == nil {
			break
		}
		if attempt > 100 {
			t.Fatalf("rebinding %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()
	for i := uint64(41); i <= 80; i++ {
		ev := testEvent(i)
		ev.StreamSeq = i
		srv2.Publish(ev)
	}

	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	seqs := got.snapshot()
	if len(seqs) != 80 {
		t.Fatalf("collected %d events, want 80", len(seqs))
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, seq, i+1)
		}
	}
	st := rc.Stats()
	if st.Reconnects == 0 {
		t.Error("expected at least one reconnect across the restart")
	}
	if st.Missed != 0 || st.Gaps != 0 {
		t.Errorf("lossless restart reported gaps=%d missed=%d", st.Gaps, st.Missed)
	}
}

// TestResilientClientReportsUnrecoverableGap: when the replay ring
// cannot fill a hole, the client repairs once, then accepts and counts
// the loss instead of looping.
func TestResilientClientReportsUnrecoverableGap(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc := NewResilientClient(srv.Addr(), testOptions())
	var got collectSeqs
	runErr := make(chan error, 1)
	go func() {
		runErr <- rc.Run(context.Background(), func(ev consensus.Event) error {
			if err := got.add(ev); err != nil {
				return err
			}
			if ev.StreamSeq == 16 {
				return ErrStop
			}
			return nil
		})
	}()
	waitSubscribers(t, srv, 1)
	for i := uint64(1); i <= 10; i++ {
		srv.Publish(testEvent(i))
	}
	waitLastSeq(t, rc, 10)
	// Sequences 11–14 never exist anywhere: an unrecoverable gap.
	ev := testEvent(15)
	ev.StreamSeq = 15
	srv.Publish(ev)
	waitLastSeq(t, rc, 15)
	ev = testEvent(16)
	ev.StreamSeq = 16
	srv.Publish(ev)
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	st := rc.Stats()
	if st.Gaps != 1 {
		t.Errorf("Gaps = %d, want 1", st.Gaps)
	}
	if st.Missed != 4 {
		t.Errorf("Missed = %d, want 4", st.Missed)
	}
	if st.Reconnects == 0 {
		t.Error("gap repair should have reconnected at least once")
	}
	if n := len(got.snapshot()); n != 12 {
		t.Errorf("collected %d events, want 12 (1–10, 15, 16)", n)
	}
}

// swallowFirstWrite is a listener whose first connection silently
// loses its first write: it reports success, delivers nothing, and
// closes swallowed.
type swallowFirstWrite struct {
	net.Listener
	accepted  atomic.Int32
	swallowed chan struct{}
}

func (l *swallowFirstWrite) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil || l.accepted.Add(1) > 1 {
		return conn, err
	}
	return &swallowConn{Conn: conn, swallowed: l.swallowed}, nil
}

type swallowConn struct {
	net.Conn
	once      sync.Once
	swallowed chan struct{}
}

func (c *swallowConn) Write(p []byte) (int, error) {
	lost := false
	c.once.Do(func() { lost = true })
	if lost {
		close(c.swallowed)
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// TestResilientClientRepairsLostFirstFrames: a stream starts at
// sequence 1, so a client whose first connection never delivers the
// first frames (here a lost first write; on a loaded box, the server
// dropping a new subscriber's oldest queued frames before its writer
// sends one) must repair them from the ring, not start at the first
// frame it happens to receive.
func TestResilientClientRepairsLostFirstFrames(t *testing.T) {
	wrap := &swallowFirstWrite{swallowed: make(chan struct{})}
	srv, err := Serve("127.0.0.1:0", WithListenerWrapper(func(ln net.Listener) net.Listener {
		wrap.Listener = ln
		return wrap
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	rc := NewResilientClient(srv.Addr(), testOptions())
	var got collectSeqs
	runErr := make(chan error, 1)
	go func() {
		runErr <- rc.Run(context.Background(), func(ev consensus.Event) error {
			if err := got.add(ev); err != nil {
				return err
			}
			if ev.StreamSeq == 10 {
				return ErrStop
			}
			return nil
		})
	}()
	waitSubscribers(t, srv, 1)
	srv.Publish(testEvent(1))
	select {
	case <-wrap.swallowed:
	case <-time.After(10 * time.Second):
		t.Fatal("the first write never happened")
	}
	for i := uint64(2); i <= 10; i++ {
		srv.Publish(testEvent(i))
	}
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	seqs := got.snapshot()
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("collected %v, want 1–10 in order", seqs)
		}
	}
	if len(seqs) != 10 {
		t.Fatalf("collected %v, want 1–10", seqs)
	}
	if st := rc.Stats(); st.Gaps != 1 || st.Missed != 0 || st.Reconnects == 0 {
		t.Errorf("stats %+v, want one repaired gap, a reconnect and nothing missed", st)
	}
}

// TestResilientClientCountsEvictedHeadAsMissed: a client that joins
// after the ring has evicted the stream's first events repairs a
// bounded number of times, then counts them as lost and goes on.
func TestResilientClientCountsEvictedHeadAsMissed(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", WithReplayRing(4))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for i := uint64(1); i <= 10; i++ {
		srv.Publish(testEvent(i))
	}

	rc := NewResilientClient(srv.Addr(), testOptions())
	var got collectSeqs
	err = rc.Run(context.Background(), func(ev consensus.Event) error {
		if err := got.add(ev); err != nil {
			return err
		}
		if ev.StreamSeq == 10 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if seqs := got.snapshot(); len(seqs) != 4 || seqs[0] != 7 {
		t.Errorf("collected %v, want 7–10", seqs)
	}
	if st := rc.Stats(); st.Gaps != 1 || st.Missed != 6 || st.Reconnects != maxGapRepairs {
		t.Errorf("stats %+v, want one gap, 6 missed, %d repair reconnects", st, maxGapRepairs)
	}
}

// TestResilientClientGivesUpWhenUnreachable bounds the retry loop.
func TestResilientClientGivesUpWhenUnreachable(t *testing.T) {
	opts := testOptions()
	opts.MaxConsecutiveFailures = 3
	// An address nothing listens on: a freshly closed ephemeral port.
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	srv.Close()

	rc := NewResilientClient(addr, opts)
	err = rc.Run(context.Background(), func(consensus.Event) error { return nil })
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Run = %v, want ErrUnavailable", err)
	}
}

// TestResilientClientHonorsContext: cancellation ends Run promptly even
// while blocked reading an idle stream.
func TestResilientClientHonorsContext(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rc := NewResilientClient(srv.Addr(), testOptions())
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() {
		runErr <- rc.Run(ctx, func(consensus.Event) error { return nil })
	}()
	waitSubscribers(t, srv, 1)
	cancel()
	select {
	case err := <-runErr:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after cancellation")
	}
}

// TestResilientClientStallTimeout reconnects away from a connection
// that stops delivering frames.
func TestResilientClientStallTimeout(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	opts := testOptions()
	opts.StallTimeout = 100 * time.Millisecond
	rc := NewResilientClient(srv.Addr(), opts)
	runErr := make(chan error, 1)
	go func() {
		runErr <- rc.Run(context.Background(), func(ev consensus.Event) error {
			if ev.StreamSeq == 2 {
				return ErrStop
			}
			return nil
		})
	}()
	waitSubscribers(t, srv, 1)
	srv.Publish(testEvent(1))
	// Publish nothing for a while: the client should cycle connections
	// (stall → reconnect → resume) without losing its place, and still
	// receive the next event when it comes.
	time.Sleep(400 * time.Millisecond)
	srv.Publish(testEvent(2))
	if err := <-runErr; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st := rc.Stats(); st.Reconnects == 0 {
		t.Error("expected stall-driven reconnects")
	} else if st.LastSeq != 2 {
		t.Errorf("LastSeq = %d, want 2", st.LastSeq)
	}
}
