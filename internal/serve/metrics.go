package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"ripplestudy/internal/txq"
)

// endpointMetrics aggregates one endpoint's query counters.
type endpointMetrics struct {
	latency *txq.LatencyRing
	mu      sync.Mutex
	hits    uint64
}

// metricsSet is the registry behind /metrics: per-endpoint latency plus
// whatever gauges the service reports at scrape time.
type metricsSet struct {
	window int

	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
}

func newMetricsSet(window int) *metricsSet {
	return &metricsSet{window: window, endpoints: make(map[string]*endpointMetrics)}
}

func (m *metricsSet) endpoint(name string) *endpointMetrics {
	m.mu.Lock()
	defer m.mu.Unlock()
	e := m.endpoints[name]
	if e == nil {
		e = &endpointMetrics{latency: txq.NewLatencyRing(m.window)}
		m.endpoints[name] = e
	}
	return e
}

func (e *endpointMetrics) recordCacheHit() {
	e.mu.Lock()
	e.hits++
	e.mu.Unlock()
}

func (e *endpointMetrics) cacheHitCount() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.hits
}

// names returns the registered endpoint names, sorted for stable
// scrape output.
func (m *metricsSet) names() []string {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// writeMetrics renders the service's state in Prometheus text
// exposition format.
func (s *Service) writeMetrics(w io.Writer) {
	h := s.Health()
	fmt.Fprintf(w, "# HELP serve_ingested_events_total Stream events accepted by the ingester.\n")
	fmt.Fprintf(w, "serve_ingested_events_total %d\n", h.IngestedEvents)
	fmt.Fprintf(w, "# HELP serve_ingested_pages_total Sealed ledger pages ingested (stream + backfill).\n")
	fmt.Fprintf(w, "serve_ingested_pages_total %d\n", h.IngestedPages)
	fmt.Fprintf(w, "# HELP serve_ingested_payments_total Successful payments projected at ingest; rate() gives live payments/s throughput.\n")
	fmt.Fprintf(w, "serve_ingested_payments_total %d\n", h.IngestedPayments)
	fmt.Fprintf(w, "# HELP serve_ingest_batches_total Update batches fanned out to the page views.\n")
	fmt.Fprintf(w, "serve_ingest_batches_total %d\n", s.ingestBatches.Load())
	fmt.Fprintf(w, "# HELP serve_ingest_batch_pages_total Pages carried by those batches; divide by serve_ingest_batches_total for the mean batch size.\n")
	fmt.Fprintf(w, "serve_ingest_batch_pages_total %d\n", s.ingestBatchPages.Load())
	fmt.Fprintf(w, "# HELP serve_fingerprint_shards Single-writer count shards behind the fingerprint view.\n")
	fmt.Fprintf(w, "serve_fingerprint_shards %d\n", s.fpState.shards())
	fmt.Fprintf(w, "# HELP serve_pipeline_workers Apply workers (state shards and rings) per view pipeline.\n")
	fmt.Fprintf(w, "serve_pipeline_workers %d\n", s.opts.PipelineWorkers)
	fmt.Fprintf(w, "# HELP serve_dropped_events_total Events lost: undecodable page payloads plus view-queue overflow drops.\n")
	fmt.Fprintf(w, "serve_dropped_events_total %d\n", h.DroppedEvents)
	fmt.Fprintf(w, "# HELP serve_stream_last_seq Highest stream sequence seen from the network.\n")
	fmt.Fprintf(w, "serve_stream_last_seq %d\n", h.StreamLastSeq)
	fmt.Fprintf(w, "# HELP serve_ingest_idle_seconds Time since the last ingested event.\n")
	fmt.Fprintf(w, "serve_ingest_idle_seconds %.3f\n", h.IngestIdle.Seconds())

	fmt.Fprintf(w, "# HELP serve_view_epoch Snapshot epoch of each materialized view.\n")
	for _, v := range h.Views {
		fmt.Fprintf(w, "serve_view_epoch{view=%q} %d\n", v.Name, v.Epoch)
	}
	fmt.Fprintf(w, "# HELP serve_view_applied_seq Highest ledger sequence applied to each view.\n")
	for _, v := range h.Views {
		fmt.Fprintf(w, "serve_view_applied_seq{view=%q} %d\n", v.Name, v.AppliedSeq)
	}
	fmt.Fprintf(w, "# HELP serve_view_applied_events_total Updates applied to each view.\n")
	for _, v := range h.Views {
		fmt.Fprintf(w, "serve_view_applied_events_total{view=%q} %d\n", v.Name, v.AppliedEvents)
	}
	fmt.Fprintf(w, "# HELP serve_view_ingest_lag_events Updates offered to the view but not yet applied.\n")
	for _, v := range h.Views {
		fmt.Fprintf(w, "serve_view_ingest_lag_events{view=%q} %d\n", v.Name, v.Lag)
	}
	fmt.Fprintf(w, "# HELP serve_view_dropped_events_total Updates dropped at the view inbox (non-blocking mode).\n")
	for _, v := range h.Views {
		fmt.Fprintf(w, "serve_view_dropped_events_total{view=%q} %d\n", v.Name, v.Dropped)
	}
	fmt.Fprintf(w, "# HELP serve_view_seals_total Snapshot publishes per view.\n")
	for _, vw := range s.views {
		fmt.Fprintf(w, "serve_view_seals_total{view=%q} %d\n", vw.name, vw.seals.Load())
	}
	fmt.Fprintf(w, "# HELP serve_view_merge_seconds_total Time each view has spent in shard merge and snapshot build, summed over its publishes; divide its rate by serve_view_seals_total's for the mean merge.\n")
	for _, vw := range s.views {
		fmt.Fprintf(w, "serve_view_merge_seconds_total{view=%q} %.9f\n", vw.name, time.Duration(vw.mergeTotal.Load()).Seconds())
	}
	fmt.Fprintf(w, "# HELP serve_view_last_seal_seconds Duration of each view's most recent snapshot publish (the full barrier: pause, merge, release).\n")
	for _, vw := range s.views {
		fmt.Fprintf(w, "serve_view_last_seal_seconds{view=%q} %.6f\n", vw.name, time.Duration(vw.sealNanos.Load()).Seconds())
	}
	fmt.Fprintf(w, "# HELP serve_view_last_merge_seconds Duration of each view's most recent shard merge and snapshot build alone.\n")
	for _, vw := range s.views {
		fmt.Fprintf(w, "serve_view_last_merge_seconds{view=%q} %.6f\n", vw.name, time.Duration(vw.mergeNanos.Load()).Seconds())
	}
	fmt.Fprintf(w, "# HELP serve_view_shard_queue_depth Update batches queued in each view shard's ring.\n")
	for _, vw := range s.views {
		for i, d := range vw.shardDepths() {
			fmt.Fprintf(w, "serve_view_shard_queue_depth{view=%q,shard=\"%d\"} %d\n", vw.name, i, d)
		}
	}

	fmt.Fprintf(w, "# HELP serve_http_inflight In-flight HTTP requests.\n")
	fmt.Fprintf(w, "serve_http_inflight %d\n", s.inflight.Load())
	fmt.Fprintf(w, "# HELP serve_http_rejected_total Requests shed by the admission limiter.\n")
	fmt.Fprintf(w, "serve_http_rejected_total %d\n", s.rejected.Load())

	fmt.Fprintf(w, "# HELP serve_query_total Queries served per endpoint.\n")
	fmt.Fprintf(w, "# HELP serve_query_cache_hits_total Responses served from the epoch-keyed cache.\n")
	fmt.Fprintf(w, "# HELP serve_query_latency_seconds Windowed query latency quantiles per endpoint.\n")
	for _, name := range s.metrics.names() {
		e := s.metrics.endpoint(name)
		p50, p99, count := e.latency.Quantiles()
		fmt.Fprintf(w, "serve_query_total{endpoint=%q} %d\n", name, count)
		fmt.Fprintf(w, "serve_query_cache_hits_total{endpoint=%q} %d\n", name, e.cacheHitCount())
		fmt.Fprintf(w, "serve_query_latency_seconds{endpoint=%q,quantile=\"0.5\"} %.6f\n", name, p50.Seconds())
		fmt.Fprintf(w, "serve_query_latency_seconds{endpoint=%q,quantile=\"0.99\"} %.6f\n", name, p99.Seconds())
	}

	if s.fd != nil {
		s.fd.WriteMetrics(w)
	}
}
