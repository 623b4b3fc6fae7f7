package netstream

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

func testEvent(seq uint64) consensus.Event {
	kp := addr.KeyPairFromSeed(seq)
	h := ledger.SHA512Half([]byte{byte(seq)})
	return consensus.Event{
		Kind:       consensus.EventValidation,
		Seq:        seq,
		LedgerHash: h,
		Node:       kp.NodeID(),
		Signature:  kp.Sign(h[:]),
		Time:       time.Date(2015, 12, 1, 0, 0, int(seq), 0, time.UTC),
	}
}

// waitSubscribers polls until the server sees n subscribers.
func waitSubscribers(t *testing.T, s *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for s.NumSubscribers() < n {
		if time.Now().After(deadline) {
			t.Fatalf("subscribers = %d, want %d", s.NumSubscribers(), n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPublishSubscribe(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c, err := DialResume(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)

	const n = 50
	go func() {
		for i := uint64(1); i <= n; i++ {
			s.Publish(testEvent(i))
		}
		s.Flush()
	}()

	var got []consensus.Event
	err = c.Events(func(ev consensus.Event) error {
		got = append(got, ev)
		if len(got) == n {
			return ErrStop
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("received %d events, want %d", len(got), n)
	}
	// Events survive the JSON round trip intact, signatures included.
	for i, ev := range got {
		want := testEvent(uint64(i + 1))
		if ev.Seq != want.Seq || ev.LedgerHash != want.LedgerHash || ev.Node != want.Node {
			t.Fatalf("event %d mangled: %+v", i, ev)
		}
		if !addr.Verify(ev.Node.PublicKey(), ev.LedgerHash[:], ev.Signature) {
			t.Fatalf("event %d signature broken in transit", i)
		}
		if !ev.Time.Equal(want.Time) {
			t.Fatalf("event %d time mangled: %v", i, ev.Time)
		}
	}
}

func TestMultipleSubscribers(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const subs = 3
	const n = 20
	var wg sync.WaitGroup
	counts := make([]int, subs)
	for i := 0; i < subs; i++ {
		c, err := DialResume(s.Addr(), 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			_ = c.Events(func(consensus.Event) error {
				counts[i]++
				if counts[i] == n {
					return ErrStop
				}
				return nil
			})
		}(i, c)
	}
	waitSubscribers(t, s, subs)
	for i := uint64(1); i <= n; i++ {
		s.Publish(testEvent(i))
	}
	s.Flush()
	wg.Wait()
	for i, got := range counts {
		if got != n {
			t.Errorf("subscriber %d received %d, want %d", i, got, n)
		}
	}
}

func TestClientSeesEOFOnServerClose(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := DialResume(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	s.Publish(testEvent(1))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	n := 0
	if err := c.Events(func(consensus.Event) error { n++; return nil }); err != nil {
		t.Fatalf("Events after close: %v", err)
	}
	if n != 1 {
		t.Errorf("received %d events before EOF, want 1", n)
	}
}

func TestDeadSubscriberDropped(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialResume(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	waitSubscribers(t, s, 1)
	c.Close()
	// Publishing into the closed connection eventually errors and the
	// subscriber is evicted. TCP buffering may absorb several writes
	// first.
	deadline := time.Now().Add(2 * time.Second)
	for s.NumSubscribers() > 0 {
		s.Publish(testEvent(1))
		s.Flush()
		if time.Now().After(deadline) {
			t.Fatal("dead subscriber never evicted")
		}
	}
}

func TestCallbackErrorPropagates(t *testing.T) {
	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := DialResume(s.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	waitSubscribers(t, s, 1)
	s.Publish(testEvent(1))
	s.Flush()
	boom := errors.New("boom")
	if err := c.Events(func(consensus.Event) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("err = %v, want boom", err)
	}
}
