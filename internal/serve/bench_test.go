package serve

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
)

// benchService returns a warm service with a small history ingested,
// plus a feature vector from a real payment for lookup benchmarks.
func benchService(b *testing.B) (*Service, []*ledger.Page, deanon.Features) {
	b.Helper()
	pages := genPages(b, 3000, 37)
	s := NewService(Options{})
	b.Cleanup(s.Close)
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			b.Fatal(err)
		}
	}
	drain(b, s)
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				return s, pages, f
			}
		}
	}
	b.Fatal("no observable payment")
	return nil, nil, deanon.Features{}
}

// BenchmarkServeIngestPage measures the full ingest fan-out: offer to
// every page view, applied and periodically published by the workers.
func BenchmarkServeIngestPage(b *testing.B) {
	pages := genPages(b, 3000, 37)
	s := NewService(Options{})
	b.Cleanup(s.Close)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.IngestPage(pages[i%len(pages)]); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	drain(b, s)
}

// BenchmarkServeLookup measures the O(1) point query against a sealed
// snapshot — the latency a /v1/deanon/lookup request pays after parsing.
func BenchmarkServeLookup(b *testing.B) {
	s, _, feat := benchService(b)
	snap := s.Fingerprints()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := snap.Lookup(i%len(snap.Rows), feat); !ok {
			b.Fatal("lookup rejected")
		}
	}
}

// BenchmarkServeHTTPValidators measures a cached snapshot endpoint
// end-to-end through the handler (admission, cache, write).
func BenchmarkServeHTTPValidators(b *testing.B) {
	s, _, _ := benchService(b)
	h := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/validators", nil))
		if rec.Code != 200 {
			b.Fatalf("status %d", rec.Code)
		}
	}
}

// BenchmarkServeIngestThroughput measures end-to-end backfill speed —
// store → raw payload scan → projection → batched fan-out → sealed
// snapshots — and reports payments/s, the number the ROADMAP's
// line-rate streaming item tracks.
func BenchmarkServeIngestThroughput(b *testing.B) {
	pages := genPages(b, 20000, 37)
	payments := 0
	for _, p := range pages {
		for i := range p.Txs {
			if p.Txs[i].Type == ledger.TxPayment && p.Metas[i].Result.Succeeded() {
				payments++
			}
		}
	}
	dir := filepath.Join(b.TempDir(), "store")
	st, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(1<<22))
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pages {
		if err := st.Append(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	if st, err = ledgerstore.Open(dir); err != nil {
		b.Fatal(err)
	}
	defer st.Close()

	// Sweep the pipeline fan-out: 1 is the single-writer baseline, the
	// fixed points let archives from different machines compare like for
	// like, and GOMAXPROCS is the full-machine configuration. Dedup keeps
	// the archived sub-benchmark names distinct on any core count.
	sweep := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, workers := range sweep {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				s := NewService(Options{PipelineWorkers: workers})
				if err := s.BackfillStore(context.Background(), st, workers); err != nil {
					b.Fatal(err)
				}
				drain(b, s)
				if got := s.Fingerprints().Payments; got != payments {
					b.Fatalf("ingested %d payments, want %d", got, payments)
				}
				s.Close()
			}
			elapsed := time.Since(start).Seconds()
			b.ReportMetric(float64(payments*b.N)/elapsed, "payments/s")
			b.ReportMetric(float64(len(pages)*b.N)/elapsed, "pages/s")
		})
	}
}

// BenchmarkServeSnapshotPublish measures one copy-on-publish seal of the
// fingerprint view — the cost amortized across PublishBatch updates.
// "dirty" re-observes a page before each seal (every changed shard is
// deep-copied); "clean" seals an unchanged study (clones shared, no
// copying) — the inbox-dry republish fast path.
func BenchmarkServeSnapshotPublish(b *testing.B) {
	pages := genPages(b, 3000, 37)
	st := newFingerprintState(1, 1)
	defer st.close()
	proj := newProjector(st.plan())
	recs := make([]*pageRecord, len(pages))
	for i, p := range pages {
		recs[i] = new(pageRecord)
		proj.fromPage(p, recs[i])
		st.apply(0, recs[i])
	}
	b.Run("dirty", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			st.apply(0, recs[i%len(recs)])
			if snap := st.snapshot(uint64(i), 1); snap == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
	b.Run("clean", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if snap := st.snapshot(uint64(i), 1); snap == nil {
				b.Fatal("nil snapshot")
			}
		}
	})
}
