// Package telemetry is the metrics spine of the serving layer: a
// fixed-bucket latency histogram and a writer for the Prometheus text
// exposition format.
package telemetry

import (
	"io"
	"math/bits"
	"strconv"
	"sync/atomic"
	"time"
)

// Bucket i of a Histogram holds the durations d with 2^(7+i-1) < d ≤
// 2^(7+i) ns; the first starts at 0 and the last is +Inf, above 2^35 ns.
// 2^7 ns sits below a cached quote, 2^35 ns (≈ 34 s) above any wait the
// front door allows.
const (
	minExp     = 7
	maxExp     = 35
	numBuckets = maxExp - minExp + 2
)

// bound is the upper bound of finite bucket i.
func bound(i int) time.Duration { return time.Duration(1) << (minExp + i) }

// leText holds each bucket's le label: its bound in seconds, then +Inf.
var leText = func() (t [numBuckets]string) {
	for i := range numBuckets - 1 {
		t[i] = strconv.FormatFloat(bound(i).Seconds(), 'f', -1, 64)
	}
	t[numBuckets-1] = "+Inf"
	return t
}()

// Histogram counts durations in fixed power-of-two buckets. The zero
// value is ready to use, and every method is safe for concurrent use;
// Observe takes no lock and allocates nothing.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	sum    atomic.Int64 // nanoseconds
}

// Observe records one duration. A negative one (a clock stepping back)
// counts as zero.
func (h *Histogram) Observe(d time.Duration) {
	d = max(d, 0)
	h.counts[bucketOf(d)].Add(1)
	h.sum.Add(int64(d))
}

// bucketOf is the index of the first bucket whose bound is at least d.
func bucketOf(d time.Duration) int {
	if d <= 1<<minExp {
		return 0
	}
	// bits.Len64(d-1) is the smallest e with d ≤ 2^e.
	return min(bits.Len64(uint64(d-1)), maxExp+1) - minExp
}

// snapshot loads every bucket once. count is their total, so within one
// snapshot the +Inf bucket always equals the count.
func (h *Histogram) snapshot() (counts [numBuckets]uint64, count uint64) {
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
		count += counts[i]
	}
	return counts, count
}

// Quantile estimates the q-quantile (0 < q ≤ 1) the way Prometheus's
// histogram_quantile does: it finds the bucket holding rank q·count and
// interpolates linearly inside it, the first bucket starting at 0. A
// rank in the +Inf bucket answers the top finite bound; an empty
// histogram answers 0.
func (h *Histogram) Quantile(q float64) time.Duration {
	counts, n := h.snapshot()
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	var below uint64
	for i, c := range counts {
		if c == 0 || float64(below+c) < rank {
			below += c
			continue
		}
		if i == numBuckets-1 {
			break
		}
		var lo time.Duration
		if i > 0 {
			lo = bound(i - 1)
		}
		return lo + time.Duration(float64(bound(i)-lo)*(rank-float64(below))/float64(c))
	}
	return bound(numBuckets - 2)
}

// Writer renders metric families in the Prometheus text exposition
// format. Each call writes one sample (a histogram's whole series); the
// first sample of a family also writes its # HELP and # TYPE lines, so
// all samples of a family must be written one after another. Labels are
// name, value pairs. Write errors are dropped: a scrape that fails to
// reach its client has nobody to report to.
type Writer struct {
	w      io.Writer
	family string
	buf    []byte
}

// NewWriter returns a Writer that writes to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Counter writes one sample of a counter family.
func (w *Writer) Counter(name, help string, v uint64, labels ...string) {
	w.begin(name, help, "counter")
	w.sample(name, labels, strconv.FormatUint(v, 10))
}

// Gauge writes one sample of a gauge family.
func (w *Writer) Gauge(name, help string, v float64, labels ...string) {
	w.begin(name, help, "gauge")
	w.sample(name, labels, strconv.FormatFloat(v, 'f', -1, 64))
}

// Histogram writes one series of a histogram family in seconds: its
// cumulative _bucket samples, _sum and _count.
func (w *Writer) Histogram(name, help string, h *Histogram, labels ...string) {
	w.begin(name, help, "histogram")
	counts, n := h.snapshot()
	bucket, le := name+"_bucket", append(labels[:len(labels):len(labels)], "le", "")
	var cum uint64
	for i, c := range counts {
		cum += c
		le[len(le)-1] = leText[i]
		w.sample(bucket, le, strconv.FormatUint(cum, 10))
	}
	w.sample(name+"_sum", labels, strconv.FormatFloat(time.Duration(h.sum.Load()).Seconds(), 'f', -1, 64))
	w.sample(name+"_count", labels, strconv.FormatUint(n, 10))
}

// begin writes the family's header lines unless the previous sample
// already belonged to it.
func (w *Writer) begin(name, help, typ string) {
	if name != w.family {
		w.family = name
		io.WriteString(w.w, "# HELP "+name+" "+help+"\n# TYPE "+name+" "+typ+"\n")
	}
}

// sample writes one sample line.
func (w *Writer) sample(name string, labels []string, value string) {
	b := append(w.buf[:0], name...)
	sep := byte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		b = append(append(b, sep), labels[i]...)
		b = strconv.AppendQuote(append(b, '='), labels[i+1])
		sep = ','
	}
	if sep == ',' {
		b = append(b, '}')
	}
	b = append(append(append(b, ' '), value...), '\n')
	w.w.Write(b)
	w.buf = b
}
