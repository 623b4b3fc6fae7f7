package txq

import (
	"sync/atomic"

	"ripplestudy/internal/telemetry"
)

// metrics holds the front door's counters and latency histograms.
// Counters are atomics because Submit (many goroutines), the applier,
// and the /metrics scraper all touch them.
type metrics struct {
	offered   atomic.Uint64 // Submit calls
	shed      atomic.Uint64 // dropped by admission control
	rejected  atomic.Uint64 // malformed / duplicate / closed
	applied   atomic.Uint64 // resolved by the applier
	succeeded atomic.Uint64 // resolved with ResultSuccess

	batches atomic.Uint64

	quote  telemetry.Histogram // PathFind, call to answer
	submit telemetry.Histogram // admission to resolution
}

// WriteMetrics adds the front door's families to a scrape. The serve
// layer calls it after its own families, on the same Writer.
func (fd *FrontDoor) WriteMetrics(w *telemetry.Writer) {
	st := fd.StatsNow()
	w.Gauge("txq_depth", "Admitted transactions not yet applied.", float64(st.Depth))
	w.Gauge("txq_depth_limit", "Admission bound on queued transactions.", float64(fd.opts.QueueDepth))
	w.Counter("txq_offered_total", "Submissions offered to admission control.", st.Offered)
	w.Counter("txq_shed_total", "Submissions dropped by admission control (queue full).", st.Shed)
	w.Counter("txq_rejected_total", "Submissions rejected before queueing (malformed, duplicate sequence, closed).", st.Rejected)
	w.Counter("txq_applied_total", "Transactions applied by the batch applier.", st.Applied)
	w.Counter("txq_succeeded_total", "Applied transactions that succeeded.", st.Succeeded)
	w.Counter("txq_batches_total", "Batches committed by the applier.", st.Batches)
	w.Gauge("txq_epoch", "Trust-graph epoch (advances once per batch that mutated state).", float64(st.Epoch))
	w.Gauge("txq_plan_cache_entries", "Live quote-cache entries.", float64(st.CacheSize))
	w.Counter("txq_plan_cache_hits_total", "Quotes served from the read-set-invalidated cache.", st.CacheHits)
	w.Counter("txq_plan_cache_misses_total", "Quotes computed fresh (includes stale drops).", st.CacheMisses)
	w.Counter("txq_plan_cache_stale_total", "Cache entries dropped because their read set was mutated.", st.CacheStale)
	w.Counter("txq_plan_cache_evicted_total", "Cache entries evicted by capacity.", st.CacheEvicted)
	w.Histogram("txq_quote_duration_seconds", "path_find quote latency.", &fd.met.quote)
	w.Histogram("txq_submit_to_applied_seconds", "Submission latency from admission to applied.", &fd.met.submit)
}
