package netstream

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"ripplestudy/internal/consensus"
)

// TestClientSkipsBadFrames proves one corrupt line no longer kills the
// collection: the client skips it, counts it, and keeps reading.
func TestClientSkipsBadFrames(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := bufio.NewReader(conn).ReadBytes('\n'); err != nil {
			return // hello
		}
		good1, _ := encodeFrame(testEvent(1))
		good2, _ := encodeFrame(testEvent(2))
		corrupt := make([]byte, len(good2))
		copy(corrupt, good2)
		corrupt[len(corrupt)/2] ^= 0x20 // flip a bit mid-JSON: CRC must catch it
		conn.Write(good1)
		conn.Write([]byte("not a frame at all\n"))
		conn.Write(corrupt)
		conn.Write(good2)
		conn.Write(good1[:len(good1)/2]) // truncated final frame, then EOF
	}()

	c, err := DialResume(ln.Addr().String(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []uint64
	if err := c.Events(func(ev consensus.Event) error {
		got = append(got, ev.Seq)
		return nil
	}); err != nil {
		t.Fatalf("Events: %v", err)
	}
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("events = %v, want [1 2]", got)
	}
	if bad := c.BadFrames(); bad != 3 {
		t.Errorf("BadFrames = %d, want 3 (garbage, corrupt, truncated)", bad)
	}
}

// TestStalledSubscriberDoesNotBlockPublish is the regression test for
// the global-mutex Publish: a peer that never reads must not delay
// publishes to healthy subscribers.
func TestStalledSubscriberDoesNotBlockPublish(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithQueueSize(64), WithWriteTimeout(300*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// The stalled peer: completes the handshake, then never reads.
	stalled, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer stalled.Close()
	if _, err := stalled.Write([]byte(`{"resume_after":0}` + "\n")); err != nil {
		t.Fatal(err)
	}

	healthy, err := DialResume(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer healthy.Close()
	waitSubscribers(t, s, 2)

	var lastSeen atomic.Uint64
	go func() {
		_ = healthy.Events(func(ev consensus.Event) error {
			lastSeen.Store(ev.StreamSeq)
			return nil
		})
	}()

	const n = 20000
	events := make([]consensus.Event, n)
	for i := range events {
		events[i] = testEvent(uint64(i%50) + 1)
		events[i].StreamSeq = uint64(i) + 1
	}
	start := time.Now()
	for _, ev := range events {
		s.Publish(ev)
	}
	elapsed := time.Since(start)
	// ~6MB of frames against a peer that reads nothing: with the old
	// blocking Publish this would sit on TCP backpressure for the whole
	// socket buffer; with per-subscriber queues it is pure enqueueing.
	if elapsed > 5*time.Second {
		t.Fatalf("publishing %d events took %v with a stalled subscriber", n, elapsed)
	}

	// The healthy subscriber still receives the stream tail (drop-oldest
	// keeps the newest frames).
	deadline := time.Now().Add(10 * time.Second)
	for lastSeen.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("healthy subscriber stuck at seq %d of %d", lastSeen.Load(), n)
		}
		time.Sleep(time.Millisecond)
	}

	// Keep publishing until the stalled peer's socket backs up into the
	// write deadline and it gets evicted; the healthy subscriber keeps
	// consuming the whole time.
	deadline = time.Now().Add(30 * time.Second)
	filler := testEvent(1)
	seq := uint64(n)
	for s.NumSubscribers() > 1 {
		if time.Now().After(deadline) {
			t.Fatal("stalled subscriber never evicted")
		}
		seq++
		filler.StreamSeq = seq
		s.Publish(filler)
	}
	if st := s.Stats(); st.Dropped == 0 {
		t.Error("expected dropped frames for the stalled subscriber")
	}
}

// TestResumeReplay checks the server's replay ring: a client that
// resumes after sequence N receives everything newer, once.
func TestResumeReplay(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(1); i <= 30; i++ {
		s.Publish(testEvent(i))
	}
	c, err := DialResume(s.Addr(), 10, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []uint64
	err = c.Events(func(ev consensus.Event) error {
		got = append(got, ev.StreamSeq)
		if len(got) == 20 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, seq := range got {
		if seq != uint64(11+i) {
			t.Fatalf("replay[%d] = seq %d, want %d (full: %v)", i, seq, 11+i, got)
		}
	}
}

// TestReplayRingBounded: resuming from before the ring's floor replays
// only what is retained.
func TestReplayRingBounded(t *testing.T) {
	s, err := Serve("127.0.0.1:0", WithReplayRing(16))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := uint64(1); i <= 40; i++ {
		s.Publish(testEvent(i))
	}
	c, err := DialResume(s.Addr(), 0, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var got []uint64
	err = c.Events(func(ev consensus.Event) error {
		got = append(got, ev.StreamSeq)
		if len(got) == 16 {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 25 || got[len(got)-1] != 40 {
		t.Errorf("ring replayed %d..%d, want 25..40", got[0], got[len(got)-1])
	}
}
