package txq

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// metrics holds the front door's counters and latency rings. Counters
// are atomics because Submit (many goroutines), the applier, and the
// /metrics scraper all touch them.
type metrics struct {
	offered   atomic.Uint64 // Submit calls
	submitted atomic.Uint64 // admitted into the queue
	shed      atomic.Uint64 // dropped by admission control
	rejected  atomic.Uint64 // malformed / duplicate / closed
	applied   atomic.Uint64 // resolved by the applier
	succeeded atomic.Uint64 // resolved with ResultSuccess

	batches atomic.Uint64

	quoteLat  *LatencyRing
	submitLat *LatencyRing
}

func (m *metrics) init(window int) {
	m.quoteLat = NewLatencyRing(window)
	m.submitLat = NewLatencyRing(window)
}

// LatencyRing keeps a sliding window of durations and answers p50/p99
// on scrape; the recording path is O(1) and allocation-free after
// warm-up. The serve package's per-endpoint request latencies use it
// too.
type LatencyRing struct {
	mu      sync.Mutex
	samples []time.Duration
	next    int
	filled  bool
	count   uint64
}

// NewLatencyRing sizes the window (at least 16 samples).
func NewLatencyRing(window int) *LatencyRing {
	if window < 16 {
		window = 16
	}
	return &LatencyRing{samples: make([]time.Duration, window)}
}

// Record adds one sample, evicting the oldest once the window is full.
func (r *LatencyRing) Record(d time.Duration) {
	r.mu.Lock()
	r.samples[r.next] = d
	r.next++
	if r.next == len(r.samples) {
		r.next = 0
		r.filled = true
	}
	r.count++
	r.mu.Unlock()
}

// Quantiles returns the windowed p50/p99 and the lifetime count. Zero
// durations are returned when nothing was recorded.
func (r *LatencyRing) Quantiles() (p50, p99 time.Duration, count uint64) {
	r.mu.Lock()
	n := r.next
	if r.filled {
		n = len(r.samples)
	}
	window := make([]time.Duration, n)
	copy(window, r.samples[:n])
	count = r.count
	r.mu.Unlock()
	if n == 0 {
		return 0, 0, count
	}
	sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
	return window[(n-1)*50/100], window[(n-1)*99/100], count
}

// QuoteLatency returns the windowed quote p50/p99 and lifetime count.
func (fd *FrontDoor) QuoteLatency() (p50, p99 time.Duration, count uint64) {
	return fd.met.quoteLat.Quantiles()
}

// SubmitLatency returns the windowed submit-to-applied p50/p99 and
// lifetime count.
func (fd *FrontDoor) SubmitLatency() (p50, p99 time.Duration, count uint64) {
	return fd.met.submitLat.Quantiles()
}

// WriteMetrics renders the front door's state in Prometheus text
// exposition format. The serve layer appends this to its own scrape
// output.
func (fd *FrontDoor) WriteMetrics(w io.Writer) {
	st := fd.StatsNow()
	fmt.Fprintf(w, "# HELP txq_depth Admitted transactions not yet applied.\n")
	fmt.Fprintf(w, "txq_depth %d\n", st.Depth)
	fmt.Fprintf(w, "# HELP txq_depth_limit Admission bound on queued transactions.\n")
	fmt.Fprintf(w, "txq_depth_limit %d\n", fd.opts.QueueDepth)
	fmt.Fprintf(w, "# HELP txq_offered_total Submissions offered to admission control.\n")
	fmt.Fprintf(w, "txq_offered_total %d\n", st.Offered)
	fmt.Fprintf(w, "# HELP txq_shed_total Submissions dropped by admission control (queue full).\n")
	fmt.Fprintf(w, "txq_shed_total %d\n", st.Shed)
	fmt.Fprintf(w, "# HELP txq_rejected_total Submissions rejected before queueing (malformed, duplicate sequence, closed).\n")
	fmt.Fprintf(w, "txq_rejected_total %d\n", st.Rejected)
	fmt.Fprintf(w, "# HELP txq_applied_total Transactions applied by the batch applier.\n")
	fmt.Fprintf(w, "txq_applied_total %d\n", st.Applied)
	fmt.Fprintf(w, "# HELP txq_succeeded_total Applied transactions that succeeded.\n")
	fmt.Fprintf(w, "txq_succeeded_total %d\n", st.Succeeded)
	fmt.Fprintf(w, "# HELP txq_batches_total Batches committed by the applier.\n")
	fmt.Fprintf(w, "txq_batches_total %d\n", st.Batches)
	fmt.Fprintf(w, "# HELP txq_epoch Trust-graph epoch (advances once per batch that mutated state).\n")
	fmt.Fprintf(w, "txq_epoch %d\n", st.Epoch)
	fmt.Fprintf(w, "# HELP txq_plan_cache_entries Live quote-cache entries.\n")
	fmt.Fprintf(w, "txq_plan_cache_entries %d\n", st.CacheSize)
	fmt.Fprintf(w, "# HELP txq_plan_cache_hits_total Quotes served from the read-set-invalidated cache.\n")
	fmt.Fprintf(w, "txq_plan_cache_hits_total %d\n", st.CacheHits)
	fmt.Fprintf(w, "# HELP txq_plan_cache_misses_total Quotes computed fresh (includes stale drops).\n")
	fmt.Fprintf(w, "txq_plan_cache_misses_total %d\n", st.CacheMisses)
	fmt.Fprintf(w, "# HELP txq_plan_cache_stale_total Cache entries dropped because their read set was mutated.\n")
	fmt.Fprintf(w, "txq_plan_cache_stale_total %d\n", st.CacheStale)
	fmt.Fprintf(w, "# HELP txq_plan_cache_evicted_total Cache entries evicted by capacity.\n")
	fmt.Fprintf(w, "txq_plan_cache_evicted_total %d\n", st.CacheEvicted)

	qp50, qp99, qn := fd.met.quoteLat.Quantiles()
	fmt.Fprintf(w, "# HELP txq_quote_total path_find quotes served.\n")
	fmt.Fprintf(w, "txq_quote_total %d\n", qn)
	fmt.Fprintf(w, "# HELP txq_quote_latency_seconds Windowed quote latency quantiles.\n")
	fmt.Fprintf(w, "txq_quote_latency_seconds{quantile=\"0.5\"} %.6f\n", qp50.Seconds())
	fmt.Fprintf(w, "txq_quote_latency_seconds{quantile=\"0.99\"} %.6f\n", qp99.Seconds())
	sp50, sp99, sn := fd.met.submitLat.Quantiles()
	fmt.Fprintf(w, "# HELP txq_submit_total Submissions resolved end to end.\n")
	fmt.Fprintf(w, "txq_submit_total %d\n", sn)
	fmt.Fprintf(w, "# HELP txq_submit_latency_seconds Windowed submit-to-applied latency quantiles.\n")
	fmt.Fprintf(w, "txq_submit_latency_seconds{quantile=\"0.5\"} %.6f\n", sp50.Seconds())
	fmt.Fprintf(w, "txq_submit_latency_seconds{quantile=\"0.99\"} %.6f\n", sp99.Seconds())
}
