package main

import (
	"crypto/sha512"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"sync"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 < p ≤ 100) of an ascending
// slice by the nearest-rank rule: the smallest sample with at least p %
// of the samples at or below it. Nearest rank never interpolates, so a
// reported latency is always one that was actually observed.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	return sorted[rankOf(p, len(sorted))-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n
// samples.
func rankOf(p float64, n int) int {
	// The epsilon keeps 99.9 % of 10000 at 9990: 99.9 is not a binary
	// fraction, and the product lands a hair above the integer.
	return min(max(int(math.Ceil(p*float64(n)/100-1e-9)), 1), n)
}

// tailPercentile is the sample-count rule: the highest of p50/p90/p99/
// p99.9 that still has at least ten samples beyond it. Anything higher
// is one or two outliers, not a percentile.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if n-rankOf(p, n) >= 10 {
			best = p
		}
	}
	return best
}

// median sorts a copy and returns its 50th percentile.
func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

// latencies summarises one op's samples in milliseconds.
type latencies struct {
	n             int
	p50, p90, p99 float64
}

func summarise(samples []time.Duration) latencies {
	ms := make([]float64, len(samples))
	for i, d := range samples {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	return summariseMS(ms)
}

// summariseMS is summarise for samples already in milliseconds.
func summariseMS(samples []float64) latencies {
	ms := append([]float64(nil), samples...)
	sort.Float64s(ms)
	return latencies{n: len(ms), p50: percentile(ms, 50), p90: percentile(ms, 90), p99: percentile(ms, 99)}
}

// clock is what the open-loop scheduler needs from time, so a test can
// drive it with a fake.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time { return time.Now() }

// Sleep blocks the calling thread in nanosleep(2) instead of parking the
// goroutine on a runtime timer: an idle Go scheduler rounds timer waits
// up to whole milliseconds, which would make every generator a
// millisecond late before the system under test has done anything.
func (wallClock) Sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(d.Nanoseconds())
	for {
		var rem syscall.Timespec
		if err := syscall.Nanosleep(&ts, &rem); err != syscall.EINTR {
			return
		}
		ts = rem
	}
}

// schedTick is the release granularity of every open-loop generator.
const schedTick = time.Millisecond

// pace is an open-loop schedule: rate operations per second released in
// groups on schedTick boundaries for the given duration. release is
// called once per tick that has operations due, with the tick's due time
// (what every latency of that tick is measured from) and the number of
// operations to issue. A generator that falls behind does not skip work:
// it issues the overdue ticks back to back, and the returned lateness
// (one entry per released tick, actual release − due) shows by how much.
func pace(c clock, rate float64, d time.Duration, release func(due time.Time, n int)) []time.Duration {
	start := c.Now()
	ticks := int(d / schedTick)
	late := make([]time.Duration, 0, ticks)
	perTick := rate * schedTick.Seconds()
	issued := 0
	for k := 0; k < ticks; k++ {
		due := start.Add(time.Duration(k) * schedTick)
		if wait := due.Sub(c.Now()); wait > 0 {
			c.Sleep(wait)
		}
		// Cumulative rounding keeps the long-run rate exact for rates
		// that are not a whole number of operations per tick.
		n := int(perTick*float64(k+1)) - issued
		if n == 0 {
			continue
		}
		issued += n
		late = append(late, c.Now().Sub(due))
		release(due, n)
	}
	return late
}

// checkSchedule records how late an open-loop generator ran and marks
// the run invalid when it could not hold its schedule: a generator whose
// median release is more than one tick late is no longer an open loop.
// The p99 is reported (harness.sched_late_p99_ms) but not a validity
// rule: on a machine whose cores the generator shares with the system
// under test, one garbage collection or seal barrier delays a release by
// several ticks, and every latency is timed from the due time, so that
// delay is inside the reported latency, not hidden by it.
func (o *outcome) checkSchedule(who string, late []time.Duration) {
	l := summarise(late)
	o.infof("harness.sched_late (%s) p50=%.4f p90=%.4f p99=%.4f ms over %d ticks", who, l.p50, l.p90, l.p99, l.n)
	o.layer["harness.sched_late_p99_ms"] = l.p99
	if tick := float64(schedTick) / float64(time.Millisecond); l.p50 > tick {
		o.invalid = fmt.Sprintf("%s ran %.3f ms late at the median, more than one %v tick", who, l.p50, schedTick)
	}
}

// span is one timed call from the harness into a package.
type span struct {
	Name   string `json:"name"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Pass   int    `json:"pass"`
	Start  int64  `json:"start_ns"` // since tracer creation
	End    int64  `json:"end_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced run executes the same workload code without the bookkeeping.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its id.
func (t *tracer) begin(name string, parent, pass int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, ID: len(t.spans) + 1, Parent: parent, Pass: pass, Start: now})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// call wraps fn in a span.
func (t *tracer) call(name string, parent, pass int, fn func() error) error {
	id := t.begin(name, parent, pass)
	err := fn()
	t.end(id)
	return err
}

// selfTimes returns, per span id, the span's duration minus the part of
// it covered by its direct children (children may overlap each other,
// so the cover is the union of their intervals clipped to the parent).
func selfTimes(spans []span) map[int]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self := make(map[int]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// unattributedShare is the share of the root spans' time that no child
// span covers: time the harness spent outside any package call.
func unattributedShare(spans []span) float64 {
	self := selfTimes(spans)
	var total, own int64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.End - s.Start
			own += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return float64(own) / float64(total)
}

// writeTrace dumps the spans with their self times.
func writeTrace(path string, workload string, spans []span) error {
	self := selfTimes(spans)
	type outSpan struct {
		span
		Self int64 `json:"self_ns"`
	}
	out := struct {
		Workload string    `json:"workload"`
		Spans    []outSpan `json:"spans"`
	}{Workload: workload}
	for _, s := range spans {
		out.Spans = append(out.Spans, outSpan{s, self[s.ID]})
	}
	body, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, body, 0o644)
}

// serveHTTP puts h behind a loopback listener and returns a client that
// keeps one connection to it alive (every loop here has one caller),
// and the function that stops both.
func serveHTTP(h http.Handler) (base string, client *http.Client, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, nil, err
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	return "http://" + ln.Addr().String(), client, func() {
		client.CloseIdleConnections()
		srv.Close()
	}, nil
}

// discard reads a response body to its end and closes it, so the
// keep-alive connection can carry the next request.
func discard(resp *http.Response) (int64, error) {
	n, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return n, err
}

// cpuNow is the process's user+system CPU time so far.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is ru_maxrss (kilobytes on Linux) in megabytes.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// The machines this benchmark runs on are shared. A virtual CPU's
// hardware thread has a sibling that other tenants use, and while they
// do, everything here runs up to twice as slow: for a few milliseconds
// or for minutes, which moved identical code a third from one run to the
// next. The speedometer measures that from inside the run. Every
// speedEvery it times speedBlocks dependent SHA-512 blocks: pure
// arithmetic on 64 bytes, so the reading depends on how fast the core
// executes and on nothing the code under test leaves in the caches.
// Every timed window is divided by its own slowdown, the mean of the
// readings taken while it was open over speedNominal, so a reported
// second is a second of a machine on which the kernel takes exactly
// speedNominal. A change to the code under test moves the calibrated
// figures as it moves the raw ones; the neighbours move only the raw
// ones, which are printed beside them. NOISE.md has the measurements
// behind the choice of kernel and of one factor per window.
const (
	speedEvery   = 4 * time.Millisecond
	speedBlocks  = 80
	speedNominal = 25 * time.Microsecond // speedBlocks on the machine the benchmark was written on, when quiet
	// A reading above speedCeiling is the thread losing its CPU in the
	// middle of the kernel, not a slower core; it counts as the ceiling.
	speedCeiling = 4 * speedNominal
)

type speedometer struct {
	mu   sync.Mutex
	at   speedMark
	stop chan struct{}
	done chan struct{}
}

// speedMark is a point in the speedometer's history: the sum and count
// of the readings before it.
type speedMark struct {
	sum time.Duration
	n   int
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

func (s *speedometer) loop() {
	defer close(s.done)
	tick := time.NewTicker(speedEvery)
	defer tick.Stop()
	var h [sha512.Size]byte
	for {
		select {
		case <-s.stop:
			return
		case <-tick.C:
		}
		t0 := time.Now()
		for i := 0; i < speedBlocks; i++ {
			h = sha512.Sum512(h[:])
		}
		d := min(time.Since(t0), speedCeiling)
		s.mu.Lock()
		s.at.sum += d
		s.at.n++
		s.mu.Unlock()
	}
}

// close stops the sampling goroutine and waits for it.
func (s *speedometer) close() {
	close(s.stop)
	<-s.done
}

// mark is the present point of the history. A nil speedometer (the
// harness tests) has no history and never calibrates.
func (s *speedometer) mark() speedMark {
	if s == nil {
		return speedMark{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.at
}

// slowdown is how much slower than nominal the machine ran since the
// mark; a stretch too short for a reading takes the whole history's.
func (s *speedometer) slowdown(since speedMark) float64 {
	now := s.mark()
	if now.n == since.n {
		since = speedMark{}
	}
	if now.n == 0 {
		return 1
	}
	return (now.sum - since.sum).Seconds() / float64(now.n-since.n) / speedNominal.Seconds()
}

// recorder turns a run's timed windows into its metrics. A window is a
// stretch of the run with its own slowdown; it may complete work
// (begin/end), observe op latencies (op), or both. The run reports the
// median window rate, the median window CPU cost and the percentiles of
// the pooled latencies, each window's figures divided by its slowdown.
type recorder struct {
	speed  *speedometer
	opened speedMark // where the current window began

	// The current window; its ops are rawOps[len(ops):].
	work      float64
	wall, cpu time.Duration

	// Closed windows: calibrated figures, and the raw ones beside them.
	rates, cpus, ops          []float64 // ops in milliseconds
	rawRates, rawCPUs, rawOps []float64
	slows                     []float64

	totalWork float64
	allocs    uint64
	numGC     uint32
	pauseNS   uint64

	w0  time.Time
	c0  time.Duration
	ms0 runtime.MemStats
}

func newRecorder(s *speedometer) *recorder { return &recorder{speed: s, opened: s.mark()} }

// begin starts a timed stretch of work inside the current window.
func (r *recorder) begin() {
	runtime.ReadMemStats(&r.ms0)
	r.c0 = cpuNow()
	r.w0 = time.Now()
}

// end closes the stretch begin opened and credits it with work units.
func (r *recorder) end(work float64) {
	r.wall += time.Since(r.w0)
	r.cpu += cpuNow() - r.c0
	r.work += work
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.allocs += ms.TotalAlloc - r.ms0.TotalAlloc
	r.numGC += ms.NumGC - r.ms0.NumGC
	r.pauseNS += ms.PauseTotalNs - r.ms0.PauseTotalNs
}

// op records one op latency.
func (r *recorder) op(d time.Duration) {
	r.rawOps = append(r.rawOps, float64(d)/float64(time.Millisecond))
}

// closeWindow files the current window under its slowdown and opens the
// next one.
func (r *recorder) closeWindow() {
	slow := r.speed.slowdown(r.opened)
	r.opened = r.speed.mark()
	r.slows = append(r.slows, slow)
	for _, ms := range r.rawOps[len(r.ops):] {
		r.ops = append(r.ops, ms/slow)
	}
	if r.work > 0 {
		rate, cpu := r.work/r.wall.Seconds(), float64(r.cpu.Nanoseconds())/1e3/r.work
		r.rawRates, r.rawCPUs = append(r.rawRates, rate), append(r.rawCPUs, cpu)
		r.rates, r.cpus = append(r.rates, rate*slow), append(r.cpus, cpu/slow)
		r.totalWork += r.work
	}
	r.work, r.wall, r.cpu = 0, 0, 0
}

// finish writes the run's metrics into out.
func (r *recorder) finish(out *outcome) {
	if len(r.rates) == 0 || len(r.ops) == 0 {
		out.failf("the run closed %d work windows and observed %d ops", len(r.rates), len(r.ops))
		return
	}
	out.workPerS = median(r.rates)
	out.cpuUSPerWork = median(r.cpus)
	out.op = summariseMS(r.ops)
	out.infof("calibration: machine slowdown %.3f at the median of %d windows (least %.3f, most %.3f); uncalibrated: work_per_s %.4f, op_p50_ms %.4f, cpu_us_per_work %.4f",
		median(r.slows), len(r.slows), slices.Min(r.slows), slices.Max(r.slows), median(r.rawRates), summariseMS(r.rawOps).p50, median(r.rawCPUs))
	out.layer["harness.machine_slowdown"] = median(r.slows)
	out.layer["harness.op_p90_ms"] = out.op.p90
	out.layer["harness.op_p99_ms"] = out.op.p99
	out.layer["go.alloc_bytes_per_work"] = float64(r.allocs) / r.totalWork
	out.layer["go.num_gc"] = float64(r.numGC)
	out.layer["go.gc_pause_total_ms"] = float64(r.pauseNS) / 1e6
}

// outcome is what one workload run hands back to main.
type outcome struct {
	// workPerS and cpuUSPerWork are computed by the workload because the
	// work unit differs; op holds the workload's op latency samples.
	workPerS     float64
	cpuUSPerWork float64
	op           latencies
	attempted    int
	failed       int
	// invalid carries the reason a run must not report (an open-loop
	// generator ran late); failures carry oracle mismatches.
	invalid  string
	failures []string
	// layer holds workload-derived per-layer values (traced runs).
	layer map[string]float64
	// info lines are printed in the run's header block.
	info []string
}

func (o *outcome) failf(format string, args ...any) {
	o.failed++
	if len(o.failures) < 20 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// merge folds the counts of an earlier measurement of the same run into
// o; the metrics stay o's own.
func (o *outcome) merge(earlier *outcome) {
	o.attempted += earlier.attempted
	o.failed += earlier.failed
	o.failures = append(o.failures, earlier.failures...)
	if o.invalid == "" {
		o.invalid = earlier.invalid
	}
}

func (o *outcome) infof(format string, args ...any) {
	o.info = append(o.info, fmt.Sprintf(format, args...))
}
