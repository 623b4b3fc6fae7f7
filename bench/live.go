package main

import (
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/serve"
)

const (
	liveCloseRate    = 800 // paced closes per second
	liveQueryRate    = 200 // paced queries per second beside the ingest
	liveSampleEvery  = 250 * time.Microsecond
	liveWindow       = 500 * time.Millisecond // paced stretch that is one window
	liveMinCatchUps  = 2
	liveWarmCatchUps = 1
)

var liveFollowOpts = netstream.ResilientOptions{ReadTimeout: 100 * time.Millisecond}

// liveRef is the slow-path reference for a prefix of the streamed pages.
type liveRef struct {
	tally monitor.Report
	rows  []deanon.RowResult
}

// liveFollow drives the read chain the other way round: tiny batches over
// TCP, seals on the clock, reads beside writes.
type liveFollow struct {
	pages    int // pages streamed; the paced phase covers at most all of them
	payments int // sized so the history has at least that many pages

	rc     *runCtx
	fix    *fixture
	events []consensus.Event
	ref    liveRef

	ring *netstream.Server // holds every event, for the catch-up passes
}

func (l *liveFollow) header() string {
	return fmt.Sprintf("digest=%s pages=%d payments=%d events=%d", l.fix.digest, l.fix.npages, l.fix.payments, len(l.events))
}

func (l *liveFollow) prepare(rc *runCtx) error {
	l.rc = rc
	fix, err := buildFixture(fixtureOpts{payments: l.payments, seed: rc.seed, keepPages: true, maxPages: l.pages})
	if err != nil {
		return err
	}
	if fix.npages < l.pages {
		return fmt.Errorf("history has %d pages, need %d", fix.npages, l.pages)
	}
	l.fix = fix
	l.events = streamEvents(fix.pages)
	l.ref = liveReference(fix.pages, l.events)

	if l.ring, err = netstream.Serve("127.0.0.1:0", netstream.WithReplayRing(len(l.events))); err != nil {
		return err
	}
	for _, ev := range l.events {
		l.ring.Publish(ev)
	}
	for i := 0; i < liveWarmCatchUps; i++ {
		warm := &outcome{}
		if err := l.catchUp(warm, nil, -1-i, &recorder{}); err != nil {
			return err
		}
		if warm.failed > 0 {
			return fmt.Errorf("warm-up catch-up failed its oracle: %v", warm.failures)
		}
	}
	return nil
}

// liveReference feeds the events to a monitor.Collector and the pages to
// the sequential map-based fingerprint study.
func liveReference(pages []*ledger.Page, events []consensus.Event) liveRef {
	col := monitor.NewCollector()
	for _, ev := range events {
		col.Record(ev)
	}
	study := deanon.NewStudy(deanon.Figure3Rows)
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				study.Observe(f)
			}
		}
	}
	return liveRef{tally: col.Report("live"), rows: study.Results()}
}

// check compares a drained service with the reference for its input.
func (l *liveFollow) check(out *outcome, svc *serve.Service, cs netstream.ClientStats, ref liveRef, what string) {
	if got := svc.Tally().Report("live"); !reflect.DeepEqual(got, ref.tally) {
		out.failf("%s: tally differs from monitor.Collector (rounds %d vs %d)", what, got.Rounds, ref.tally.Rounds)
	}
	if got := svc.Fingerprints().Rows; !reflect.DeepEqual(got, ref.rows) {
		out.failf("%s: fingerprint rows differ from the batch study", what)
	}
	if d := svc.Health().DroppedEvents; d != 0 {
		out.failf("%s: %d dropped events", what, d)
	}
	if cs.Reconnects != 0 || cs.Missed != 0 {
		out.failf("%s: %d reconnects, %d missed events", what, cs.Reconnects, cs.Missed)
	}
}

// follow starts svc.Follow on addr and returns a function that stops it
// and hands back the client's counters.
func follow(svc *serve.Service, addr string) (stop func() (netstream.ClientStats, error)) {
	ctx, cancel := context.WithCancel(context.Background())
	var cs netstream.ClientStats
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		cs, err = svc.Follow(ctx, addr, liveFollowOpts)
	}()
	return func() (netstream.ClientStats, error) {
		cancel()
		<-done
		return cs, err
	}
}

// catchUp is one catch-up pass, and one window: a fresh service follows
// the whole ring from sequence 0 and drains. The pass ends when every
// event is sealed; stopping the client is outside the timing.
func (l *liveFollow) catchUp(out *outcome, tr *tracer, pass int, rec *recorder) error {
	runtime.GC()
	root := tr.begin("catch_up", 0, pass)
	rec.begin()
	svc := serve.NewService(l.rc.serveOptions())
	defer svc.Close()
	id := tr.begin("serve.Follow", root, pass)
	stop := follow(svc, l.ring.Addr())
	total := uint64(len(l.events))
	deadline := time.Now().Add(2 * time.Minute)
	for svc.Health().IngestedEvents < total {
		if time.Now().After(deadline) {
			stop()
			return fmt.Errorf("catch-up stalled at %d of %d events", svc.Health().IngestedEvents, total)
		}
		time.Sleep(time.Millisecond)
	}
	tr.end(id)
	err := tr.call("serve.Drain", root, pass, func() error { return svc.Drain(context.Background()) })
	rec.end(float64(total))
	tr.end(root)
	cs, ferr := stop()
	if err == nil {
		err = ferr
	}
	if err != nil {
		return err
	}
	out.attempted++
	l.check(out, svc, cs, l.ref, fmt.Sprintf("catch-up %d", pass))
	return nil
}

// pacedResult is what the paced phase measured beside the visible lags,
// which go straight to the recorder.
type pacedResult struct {
	late      []time.Duration
	queries   []time.Duration
	rejected  int
	epochs    uint64
	pagesSent int
	// dropped and reconnects are oracle-checked to be zero; the counts
	// are kept for the per-layer table.
	dropped    uint64
	reconnects uint64
}

// liveQueryPaths are what the paced query client asks for.
var liveQueryPaths = []string{"/v1/deanon", "/v1/ecosystem", "/v1/validators", "/v1/deanon/lookup?row=0&amount=5&currency=USD"}

// paced streams closes at liveCloseRate on schedTick boundaries to a
// following service while a sampler watches the sealed snapshots and a
// paced client queries beside the ingest. The phase runs in windows of
// liveWindow: after each, the generator waits for the window's last page
// to become visible and the recorder closes the window.
func (l *liveFollow) paced(out *outcome, tr *tracer, rec *recorder, d time.Duration) (*pacedResult, error) {
	// The subscriber queue holds the whole phase. At the default 1024
	// frames (140 ms of this stream) a host that takes the CPU away for
	// longer makes the generator release the overdue ticks in one burst,
	// the queue overflows, the follower repairs the gap by reconnecting
	// and the zero-reconnects oracle fails a run in which nothing was wrong.
	srv, err := netstream.Serve("127.0.0.1:0", netstream.WithReplayRing(len(l.events)), netstream.WithQueueSize(len(l.events)))
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	svc := serve.NewService(l.rc.serveOptions())
	defer svc.Close()
	base, client, stopHTTP, err := serveHTTP(svc.Handler())
	if err != nil {
		return nil, err
	}
	defer stopHTTP()

	root := tr.begin("paced", 0, 0)
	fid := tr.begin("serve.Follow", root, 0)
	stop := follow(svc, srv.Addr())
	for deadline := time.Now().Add(10 * time.Second); srv.NumSubscribers() == 0; {
		if time.Now().After(deadline) {
			stop()
			return nil, fmt.Errorf("follower never subscribed")
		}
		time.Sleep(time.Millisecond)
	}

	pages := min(int(d.Seconds()*liveCloseRate), len(l.fix.pages))
	res := &pacedResult{}
	due := make([]atomic.Int64, pages) // unix nanos, set before the page's close is published
	lags := make([]time.Duration, pages)
	var visible atomic.Int64 // pages whose lag the sampler has written
	epoch0 := svc.Fingerprints().Epoch

	// Sampler: a page is visible once all three sealed snapshots cover it.
	halt := make(chan struct{})
	sampled := make(chan struct{})
	go func() {
		defer close(sampled)
		for next := 0; next < pages; {
			select {
			case <-halt:
				return
			default:
			}
			vis := min(svc.Tally().AppliedSeq, svc.Fingerprints().AppliedSeq, svc.Ecosystem().AppliedSeq)
			now := time.Now().UnixNano()
			for next < pages && due[next].Load() != 0 && l.fix.pages[next].Header.Sequence <= vis {
				lags[next] = time.Duration(now - due[next].Load())
				next++
				visible.Store(int64(next))
			}
			wallClock{}.Sleep(liveSampleEvery)
		}
	}()

	rng := rand.New(rand.NewSource(l.rc.seed))
	sent := 0
	for sent < pages {
		first := sent
		window := time.Duration(min(pages-sent, int(liveWindow.Seconds()*liveCloseRate))) * time.Second / liveCloseRate
		// Query client: open loop on one keep-alive connection.
		queried := make(chan struct{})
		go func() {
			defer close(queried)
			pace(wallClock{}, liveQueryRate, window, func(dueAt time.Time, n int) {
				for i := 0; i < n; i++ {
					resp, err := client.Get(base + liveQueryPaths[rng.Intn(len(liveQueryPaths))])
					if err != nil {
						res.rejected++
						continue
					}
					if _, err := discard(resp); err != nil || resp.StatusCode != http.StatusOK {
						res.rejected++
						continue
					}
					res.queries = append(res.queries, time.Since(dueAt))
				}
			})
		}()
		// Generator: every tick releases the closes due, each preceded by
		// its validations.
		late := pace(wallClock{}, liveCloseRate, window, func(dueAt time.Time, n int) {
			for i := 0; i < n && sent < pages; i++ {
				due[sent].Store(dueAt.UnixNano())
				for _, ev := range l.events[sent*(validatorsPerPage+1) : (sent+1)*(validatorsPerPage+1)] {
					srv.Publish(ev)
				}
				sent++
			}
		})
		res.late = append(res.late, late...)
		<-queried
		for deadline := time.Now().Add(30 * time.Second); visible.Load() < int64(sent) && time.Now().Before(deadline); {
			wallClock{}.Sleep(liveSampleEvery)
		}
		seen := int(visible.Load())
		// The first window is warm-up (new connection, first seals, heap
		// growth: its lags are several times the steady ones); it is
		// streamed and checked like the others but not reported.
		if first > 0 {
			for _, lag := range lags[first:min(seen, sent)] {
				rec.op(lag)
			}
		}
		out.attempted += sent - first
		if seen < sent {
			out.failed += sent - seen
			out.failures = append(out.failures, fmt.Sprintf("paced: %d pages never became visible", sent-seen))
			break
		}
		rec.closeWindow()
	}
	res.pagesSent = sent
	tr.end(fid)
	derr := tr.call("serve.Drain", root, 0, func() error { return svc.Drain(context.Background()) })
	close(halt)
	<-sampled
	tr.end(root)
	cs, ferr := stop()
	if derr != nil {
		return nil, derr
	}
	if ferr != nil {
		return nil, ferr
	}
	res.epochs = svc.Fingerprints().Epoch - epoch0
	res.dropped = svc.Health().DroppedEvents
	res.reconnects = uint64(cs.Reconnects)

	ref := l.ref
	if sent < len(l.fix.pages) {
		ref = liveReference(l.fix.pages[:sent], l.events[:sent*(validatorsPerPage+1)])
	}
	l.check(out, svc, cs, ref, "paced phase")
	return res, nil
}

func (l *liveFollow) measure(budget time.Duration, tr *tracer) *outcome {
	out := &outcome{layer: map[string]float64{}}
	rec := newRecorder(l.rc.speed)
	res, err := l.paced(out, tr, rec, budget/2)
	if err != nil {
		out.failf("paced phase: %v", err)
		return out
	}
	out.checkSchedule("close generator", res.late)

	passes := 0
	for start := time.Now(); passes < liveMinCatchUps || time.Since(start) < budget/2; passes++ {
		if err := l.catchUp(out, tr, passes, rec); err != nil {
			out.failf("catch-up %d: %v", passes, err)
			return out
		}
		rec.closeWindow()
	}
	rec.finish(out)

	q := summarise(res.queries)
	out.infof("paced: %d closes at %d/s (%d events) in windows of %v, %d queries at %d/s; catch-up: %d passes of %d events",
		res.pagesSent, liveCloseRate, res.pagesSent*(validatorsPerPage+1), liveWindow, len(res.queries), liveQueryRate, passes, len(l.events))
	out.layer["serve.live_query_p50_us"] = q.p50 * 1000
	out.layer["serve.live_query_p99_us"] = q.p99 * 1000
	out.layer["serve.epochs_per_pass"] = float64(res.epochs)
	out.layer["serve.rejected_share"] = float64(res.rejected) / float64(max(res.rejected+len(res.queries), 1))
	out.layer["serve.dropped_events"] = float64(res.dropped)
	out.layer["netstream.reconnects"] = float64(res.reconnects)
	return out
}

func (l *liveFollow) close() {
	if l.ring != nil {
		l.ring.Close()
	}
}
