package serve

import (
	"sync"
	"testing"
)

// TestViewWorkerShedAccounting pins the load-shedding ledger at the
// worker level: with a gated apply and concurrent non-blocking offerers,
// every offered update must end up either applied (and sealed by the
// shutdown publish) or counted as dropped — sealed + dropped == offered,
// with no update lost or double-counted — and no byte left in flight.
// Run under -race in CI.
func TestViewWorkerShedAccounting(t *testing.T) {
	// Each view has one writer goroutine.
	t.Run("workers=1", func(t *testing.T) {
		release := make(chan struct{})
		first := make(chan struct{})
		var once sync.Once
		w := newViewWorker(viewConfig{name: "test", queue: 2, batch: 4,
			apply: func(*update) {
				once.Do(func() { close(first) })
				<-release
			},
			publish: func(uint64) {},
			size:    func(*update) int64 { return 3 }})

		w.offer(update{}) // the view blocks in apply
		<-first

		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if i%10 == 0 {
						b := getUpdateBatch()
						for j := 0; j < 3; j++ {
							b = append(b, update{})
						}
						if !w.offerBatch(b) {
							putUpdateBatch(b)
						}
					} else {
						w.offer(update{})
					}
				}
			}()
		}
		wg.Wait()
		close(release)
		w.close()

		offered, applied, dropped, sealed := w.offered.Load(), w.applied.Load(), w.dropped.Load(), w.sealed.Load()
		if dropped == 0 {
			t.Fatal("no updates dropped with a gated worker and concurrent offerers")
		}
		if applied+dropped != offered {
			t.Fatalf("applied %d + dropped %d != offered %d", applied, dropped, offered)
		}
		if sealed != applied {
			t.Fatalf("sealed %d != applied %d after shutdown seal", sealed, applied)
		}
		if w.lag() != 0 {
			t.Fatalf("lag %d after close, want 0", w.lag())
		}
		if n := w.inflightBytes.Load(); n != 0 {
			t.Fatalf("%d bytes in flight after close, want 0", n)
		}
	})
}

// TestNonBlockingServiceShedsAndDegrades drives a NonBlocking service
// with a one-batch inbox per view until the page views shed real load,
// checking along the way that /healthz status is coupled exactly to the
// drop counter — "ok" iff zero drops — and afterwards that every view's
// ledger balances: sealed + dropped == offered, with no byte in flight
// after the Drain or after Close.
func TestNonBlockingServiceShedsAndDegrades(t *testing.T) {
	// Each view has one writer goroutine.
	t.Run("workers=1", func(t *testing.T) {
		pages := genPages(t, 1500, 53)
		s := NewService(Options{NonBlocking: true, QueueSize: 1, PublishBatch: 1})
		defer s.Close()

		if h := s.Health(); h.Status != "ok" || h.DroppedEvents != 0 {
			t.Fatalf("fresh service health = %+v, want ok with 0 drops", h)
		}

		// PublishBatch 1 makes the fingerprint view clone tables per
		// update, so with single-slot inboxes the producer outruns it
		// quickly.
		dropped := uint64(0)
		for round := 0; round < 20 && dropped == 0; round++ {
			for _, p := range pages {
				if err := s.IngestPage(p); err != nil {
					t.Fatal(err)
				}
				h := s.Health()
				if (h.DroppedEvents > 0) != (h.Status == "degraded") {
					t.Fatalf("status %q decoupled from drop counter %d", h.Status, h.DroppedEvents)
				}
				if h.DroppedEvents > 0 {
					dropped = h.DroppedEvents
					break
				}
			}
		}
		if dropped == 0 {
			t.Fatal("no drops after 20 rounds through single-slot inboxes")
		}

		drain(t, s)
		for _, w := range s.views {
			offered, droppedW, sealed := w.offered.Load(), w.dropped.Load(), w.sealed.Load()
			if sealed+droppedW != offered {
				t.Fatalf("view %s: sealed %d + dropped %d != offered %d", w.name, sealed, droppedW, offered)
			}
			if w.applied.Load()+droppedW != offered {
				t.Fatalf("view %s: applied %d + dropped %d != offered %d", w.name, w.applied.Load(), droppedW, offered)
			}
		}
		if h := s.Health(); h.Status != "degraded" {
			t.Fatalf("health after shedding = %q, want degraded", h.Status)
		}
		s.Close()
		checkNoInflightBytes(t, s)
	})
}
