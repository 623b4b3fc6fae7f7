package serve

import (
	"strings"
	"testing"
	"time"

	"ripplestudy/internal/telemetry"
)

// TestViewWorkerDryWaitFollowsSealCost pins the ring-dry wait rule on a
// bare view worker whose publish has a fixed cost: on dry rings the
// sealer waits as long as the previous seal took. With a cheap publish,
// updates offered 5 ms apart each get their own epoch. With a 30 ms
// publish, two updates offered 3 ms apart after a seal land in one
// epoch, because the second arrives while the sealer is still waiting
// (a fixed sub-millisecond wait seals the first one alone). Updates
// that keep arriving faster than a seal takes join the pending seal
// instead of postponing it, so a steady stream still publishes. While
// a Drain waits, dry rings seal with no wait at all.
func TestViewWorkerDryWaitFollowsSealCost(t *testing.T) {
	start := func(cost time.Duration) (*viewWorker, chan struct{}) {
		sealed := make(chan struct{}, 1)
		return newViewWorker(viewConfig{name: "test", queue: 16, batch: 1 << 20, block: true,
			apply:   func(int, update) {},
			publish: func(uint64) { time.Sleep(cost) },
			notify: func() {
				select {
				case sealed <- struct{}{}:
				default:
				}
			}}), sealed
	}
	waitSealed := func(t *testing.T, w *viewWorker, sealed <-chan struct{}, n uint64) {
		t.Helper()
		timeout := time.After(10 * time.Second)
		for w.sealed.Load() != n {
			select {
			case <-sealed:
			case <-timeout:
				t.Fatalf("%d of %d updates sealed after 10 s", w.sealed.Load(), n)
			}
		}
	}

	t.Run("cheap", func(t *testing.T) {
		w, sealed := start(0)
		defer w.close()
		const n = 4
		for i := 0; i < n; i++ {
			if i > 0 {
				time.Sleep(5 * time.Millisecond)
			}
			w.offer(update{})
		}
		waitSealed(t, w, sealed, n)
		if got := w.epoch.Load(); got != n {
			t.Fatalf("%d updates 5 ms apart published %d epochs, want %d", n, got, n)
		}
	})

	t.Run("dear", func(t *testing.T) {
		const cost = 30 * time.Millisecond
		w, sealed := start(cost)
		defer w.close()
		w.offer(update{})
		waitSealed(t, w, sealed, 1) // the wait is now one 30 ms seal's
		w.offer(update{})
		time.Sleep(3 * time.Millisecond)
		w.offer(update{})
		waitSealed(t, w, sealed, 3)
		if got := w.epoch.Load() - 1; got != 1 {
			t.Fatalf("two updates 3 ms apart after a %v seal published %d epochs, want 1", cost, got)
		}
	})

	t.Run("steady", func(t *testing.T) {
		w, sealed := start(30 * time.Millisecond)
		defer w.close()
		w.offer(update{})
		waitSealed(t, w, sealed, 1) // the wait is now one 30 ms seal's
		for i := 0; i < 50; i++ {   // 150 ms of updates 3 ms apart
			w.offer(update{})
			time.Sleep(3 * time.Millisecond)
		}
		if got := w.epoch.Load() - 1; got < 1 {
			t.Fatalf("150 ms of updates 3 ms apart after a 30 ms seal published %d epochs before the stream paused, want at least 1", got)
		}
	})

	t.Run("draining", func(t *testing.T) {
		w, sealed := start(30 * time.Millisecond)
		defer w.close()
		w.draining.Add(1)
		w.offer(update{})
		waitSealed(t, w, sealed, 1)
		var b strings.Builder
		telemetry.NewWriter(&b).Histogram("dry_wait", "", &w.dryWait)
		if n := metricValue(t, b.String(), "dry_wait_count"); n != 0 {
			t.Fatalf("sealed under a Drain after %v dry waits, want no wait:\n%s", n, b.String())
		}
	})
}
