package serve

import (
	"io"
	"sync/atomic"

	"ripplestudy/internal/telemetry"
)

// The query endpoints, indexing Service.endpoints. The front door's come
// last: a service without one mounts, and exports, only the others.
const (
	epValidators = iota
	epDeanon
	epLookup
	epEcosystem
	epPathFind
	epSubmit
	epTxStatus
	numEndpoints
	numQueryEndpoints = epPathFind
)

// endpoint is one query endpoint's request metrics, recorded without a
// lock or a lookup.
type endpoint struct {
	name    string
	latency telemetry.Histogram
	hits    atomic.Uint64 // responses replayed from the epoch-keyed cache
}

// writeMetrics renders the service's state, and the attached front
// door's, in Prometheus text exposition format.
func (s *Service) writeMetrics(out io.Writer) {
	w := telemetry.NewWriter(out)
	h := s.Health()
	w.Counter("serve_ingested_events_total", "Stream events accepted by the ingester.", h.IngestedEvents)
	w.Counter("serve_ingested_pages_total", "Sealed ledger pages ingested (stream + backfill).", h.IngestedPages)
	w.Counter("serve_ingested_payments_total", "Successful payments projected at ingest; rate() gives live payments/s throughput.", h.IngestedPayments)
	w.Counter("serve_ingest_batches_total", "Update batches fanned out to the page views.", s.ingestBatches.Load())
	w.Counter("serve_ingest_batch_pages_total", "Pages carried by those batches; divide by serve_ingest_batches_total for the mean batch size.", s.ingestBatchPages.Load())
	w.Gauge("serve_fingerprint_shards", "Single-writer count shards behind the fingerprint view.", float64(s.fpState.shards()))
	w.Gauge("serve_fingerprint_count_bytes", "Bytes of the current fingerprint snapshot's count tables (keys and counts, each table at its full size).", float64(s.Fingerprints().CountBytes()))
	w.Counter("serve_dropped_events_total", "Events lost: undecodable page payloads plus view-queue overflow drops.", h.DroppedEvents)
	w.Gauge("serve_stream_last_seq", "Highest stream sequence seen from the network.", float64(h.StreamLastSeq))
	w.Gauge("serve_ingest_idle_seconds", "Time since the last ingested event.", h.IngestIdle.Seconds())

	for _, v := range h.Views {
		w.Gauge("serve_view_epoch", "Snapshot epoch of each materialized view.", float64(v.Epoch), "view", v.Name)
	}
	for _, v := range h.Views {
		w.Gauge("serve_view_applied_seq", "Highest ledger sequence applied to each view.", float64(v.AppliedSeq), "view", v.Name)
	}
	for _, v := range h.Views {
		w.Counter("serve_view_applied_events_total", "Updates applied to each view.", v.AppliedEvents, "view", v.Name)
	}
	for _, v := range h.Views {
		w.Gauge("serve_view_ingest_lag_events", "Updates offered to the view but not yet applied.", float64(v.Lag), "view", v.Name)
	}
	for _, vw := range s.views {
		if vw.size != nil {
			w.Gauge("serve_view_inflight_bytes", "Bytes of record parts offered to each page view and not yet applied or dropped.", float64(vw.inflightBytes.Load()), "view", vw.name)
		}
	}
	for _, v := range h.Views {
		w.Counter("serve_view_dropped_events_total", "Updates dropped at the view inbox (non-blocking mode).", v.Dropped, "view", v.Name)
	}
	for _, vw := range s.views {
		w.Histogram("serve_view_seal_duration_seconds", "Snapshot publishes per view, each timed from the start to the end of the snapshot build.", &vw.sealDur, "view", vw.name)
	}
	for _, vw := range s.views {
		w.Histogram("serve_view_dry_wait_seconds", "Waits on a dry inbox for a publish to fall due, as long as the view's previous seal took after the inbox first ran dry; one observation per wait, ended by the seal, by new work or by a Drain.", &vw.dryWait, "view", vw.name)
	}
	for _, vw := range s.views {
		// A channel length read is racy by nature: the gauge is an
		// instantaneous load indicator, not accounting.
		w.Gauge("serve_view_queue_depth", "Update batches queued in each view's inbox.", float64(len(vw.in)), "view", vw.name)
	}

	w.Gauge("serve_http_inflight", "In-flight HTTP requests.", float64(s.inflight.Load()))
	w.Counter("serve_http_rejected_total", "Requests shed by the admission limiter.", s.rejected.Load())
	eps := s.endpoints[:]
	if s.fd == nil {
		eps = eps[:numQueryEndpoints] // the front door's are not mounted
	}
	for i := range eps {
		w.Histogram("serve_query_duration_seconds", "Query latency per endpoint, admission to response.", &eps[i].latency, "endpoint", eps[i].name)
	}
	for i := range eps {
		w.Counter("serve_query_cache_hits_total", "Responses served from the epoch-keyed cache.", eps[i].hits.Load(), "endpoint", eps[i].name)
	}

	if s.fd != nil {
		s.fd.WriteMetrics(w)
	}
}
