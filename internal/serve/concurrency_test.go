package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

// TestConcurrentQueriesDuringIngest hammers every query surface —
// snapshot accessors and the HTTP API — while a consensus stream and a
// page backfill ingest concurrently, then differentially checks the
// final views. Run under -race this is the data-race proof for the
// single-writer/epoch-snapshot design.
func TestConcurrentQueriesDuringIngest(t *testing.T) {
	const rounds = 80
	spec := consensus.December2015(rounds)
	pages := genPages(t, 600, 31)

	s := NewService(Options{PublishBatch: 4, QueueSize: 64})
	defer s.Close()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var queries atomic.Uint64
	var wg sync.WaitGroup
	endpoints := []string{"/healthz", "/metrics", "/v1/validators", "/v1/deanon", "/v1/ecosystem", "/v1/deanon/lookup?row=0&amount=5&currency=USD"}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; ; j++ {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(srv.URL + endpoints[(i+j)%len(endpoints)])
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query %s: status %d", endpoints[(i+j)%len(endpoints)], resp.StatusCode)
					return
				}
				queries.Add(1)
			}
		}(i)
	}
	// Snapshot accessors race-check the atomic pointers directly; also
	// assert epochs never move backwards.
	wg.Add(1)
	go func() {
		defer wg.Done()
		var lastTally, lastFP, lastEco uint64
		for {
			select {
			case <-stop:
				return
			default:
			}
			if e := s.Tally().Epoch; e < lastTally {
				t.Errorf("tally epoch went backwards: %d -> %d", lastTally, e)
				return
			} else {
				lastTally = e
			}
			if e := s.Fingerprints().Epoch; e < lastFP {
				t.Errorf("fingerprint epoch went backwards: %d -> %d", lastFP, e)
				return
			} else {
				lastFP = e
			}
			if e := s.Ecosystem().Epoch; e < lastEco {
				t.Errorf("ecosystem epoch went backwards: %d -> %d", lastEco, e)
				return
			} else {
				lastEco = e
			}
		}
	}()

	// Ingest: a live consensus stream and a page backfill, concurrently.
	var ingest sync.WaitGroup
	ingest.Add(2)
	net := consensus.NewNetwork(consensus.Config{Seed: 5, StartTime: spec.Start, StreamPages: true}, spec.Specs)
	var streamed []*ledger.Page // validated pages only; written from the net.Run goroutine
	net.Subscribe(func(ev consensus.Event) {
		if ev.Kind == consensus.EventLedgerClosed && len(ev.PageData) > 0 {
			if p, _, err := ledger.DecodePageInto(ev.PageData, new(ledger.PageArena)); err == nil {
				streamed = append(streamed, p)
			}
		}
		if err := s.IngestEvent(ev); err != nil {
			t.Errorf("ingest event: %v", err)
		}
	})
	go func() {
		defer ingest.Done()
		if _, err := net.Run(rounds, nil); err != nil {
			t.Errorf("consensus: %v", err)
		}
	}()
	go func() {
		defer ingest.Done()
		for _, p := range pages {
			if err := s.IngestPage(p); err != nil {
				t.Errorf("ingest page: %v", err)
				return
			}
		}
	}()
	ingest.Wait()
	drain(t, s)
	close(stop)
	wg.Wait()

	if queries.Load() == 0 {
		t.Fatal("no queries completed")
	}

	// Differential check: the final views equal batch over everything
	// that was ingested (backfilled pages + validated streamed pages).
	combined := append([]*ledger.Page(nil), pages...)
	combined = append(combined, streamed...)
	study, col := batchViews(t, combined)
	checkAgainstBatch(t, s, study, col, combined)
}

// TestGracefulCloseFlushesPartialIngest checks Close drains queued
// updates and publishes a final epoch covering everything offered, and
// that queries still work afterwards while further ingest is refused.
func TestGracefulCloseFlushesPartialIngest(t *testing.T) {
	pages := genPages(t, 400, 3)
	s := NewService(Options{PublishBatch: 1 << 20, QueueSize: len(pages) + 8})
	// Huge PublishBatch: nothing publishes until the inbox runs dry or
	// the service closes, so Close itself must flush.
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	study, col := batchViews(t, pages)
	checkAgainstBatch(t, s, study, col, pages)
	if err := s.IngestPage(pages[0]); err != ErrClosed {
		t.Fatalf("ingest after close: got %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

// TestDropModeCountsAndDegrades pins the load-shedding path: with a
// blocked worker and a full inbox, offers drop, are counted, and flip
// /healthz to degraded.
func TestDropModeCountsAndDegrades(t *testing.T) {
	release := make(chan struct{})
	first := make(chan struct{})
	var once sync.Once
	w := newViewWorker(viewConfig{name: "test", queue: 1, batch: 1,
		apply: func(*update) {
			once.Do(func() { close(first) })
			<-release
		},
		publish: func(uint64) {}})
	w.offer(update{}) // worker picks this up and blocks in apply
	<-first
	w.offer(update{}) // fills the 1-slot inbox
	dropped := 0
	for i := 0; i < 8; i++ {
		if !w.offer(update{}) {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatal("no offers dropped with a blocked worker and full inbox")
	}
	if got := w.dropped.Load(); got != uint64(dropped) {
		t.Fatalf("dropped counter %d, want %d", got, dropped)
	}
	close(release)
	w.close()

	s := NewService(Options{})
	defer s.Close()
	s.views[0].dropped.Add(1) // simulate a shed update
	h := s.Health()
	if h.Status != "degraded" || h.DroppedEvents != 1 {
		t.Fatalf("health = %+v, want degraded with 1 drop", h)
	}
}

// TestAdmissionLimiter pins the 503 shed path: with every slot held and
// a tiny grace period, a query is rejected and counted.
func TestAdmissionLimiter(t *testing.T) {
	s := NewService(Options{MaxConcurrent: 1, AdmitWait: 10 * time.Millisecond})
	defer s.Close()
	s.admit <- struct{}{} // hold the only slot
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/v1/validators", nil)
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if s.rejected.Load() != 1 {
		t.Fatalf("rejected counter %d, want 1", s.rejected.Load())
	}
	<-s.admit

	// Slot free again: the same query succeeds.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/validators", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d after slot freed, want 200", rec.Code)
	}
}

// TestUndecodablePagePayloadQuarantined checks a corrupt page payload
// degrades to a metadata-only close event: the tally still advances,
// the drop is counted, and nothing crashes.
func TestUndecodablePagePayloadQuarantined(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	node := addr.KeyPairFromSeed(1).NodeID()
	ev := consensus.Event{
		Kind:       consensus.EventLedgerClosed,
		LedgerHash: [32]byte{1},
		Node:       node,
		Seq:        7,
		PageData:   []byte{0xff, 0xfe, 0xfd},
	}
	if err := s.IngestEvent(ev); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	h := s.Health()
	if h.DroppedEvents != 1 {
		t.Fatalf("dropped %d, want 1 (undecodable payload)", h.DroppedEvents)
	}
	if s.Tally().Rounds != 1 {
		t.Fatalf("rounds %d, want 1 — the close event itself must survive", s.Tally().Rounds)
	}
	if s.Fingerprints().Payments != 0 {
		t.Fatal("corrupt payload leaked into the fingerprint view")
	}
}

// TestHealthzJSONShape decodes /healthz and spot-checks the wiring.
func TestHealthzJSONShape(t *testing.T) {
	pages := genPages(t, 200, 41)
	s := NewService(Options{})
	defer s.Close()
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var h HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.IngestedPages != uint64(len(pages)) || len(h.Views) != 3 {
		t.Fatalf("healthz = %+v", h)
	}
	// A view has no shard fan-out to report.
	var raw struct {
		Views []map[string]any `json:"views"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, v := range raw.Views {
		if _, ok := v["shards"]; ok {
			t.Fatalf("healthz view %v still reports shards", v["name"])
		}
	}
	for _, v := range h.Views[1:] { // page views
		if v.Epoch == 0 || v.AppliedSeq == 0 {
			t.Fatalf("view %s never advanced: %+v", v.Name, v)
		}
	}
}

// drainCtx is a helper variant returning the error for cancellation
// tests.
func drainCtx(s *Service, d time.Duration) error {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	defer cancel()
	return s.Drain(ctx)
}

// TestDrainHonoursContext checks Drain gives up when a view can't catch
// up in time.
func TestDrainHonoursContext(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	// Phantom offers that will never be applied: drain cannot finish.
	s.tallyW.offered.Add(5)
	if err := drainCtx(s, 50*time.Millisecond); err == nil {
		t.Fatal("drain returned nil with outstanding offers")
	}
}
