package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/core"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/nodestore"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/serve"
	"ripplestudy/internal/shamap"
	"ripplestudy/internal/txq"
)

// perLayer is the probe table: every per-layer metric of BENCHMARK.json,
// in the order the traced run prints them. A layer is a package; a probe
// is a public call of that package timed from here.
var perLayer = []metricDef{
	{"synth.generate_payments_per_s", "1/s", "higher"},

	{"ledgerstore.append_pages_per_s", "1/s", "higher"},
	{"ledgerstore.payloads_scan_mb_per_s", "MB/s", "higher"},
	{"ledgerstore.scan_payments_per_s", "1/s", "higher"},
	{"ledgerstore.pages_range_pages_per_s", "1/s", "higher"},
	{"ledgerstore.bytes_per_payment", "count", "lower"},
	{"ledgerstore.checkpoint_write_ms", "ms", "lower"},
	{"ledgerstore.checkpoint_open_ms", "ms", "lower"},
	{"ledgerstore.checkpoint_bytes_per_page", "count", "lower"},

	{"ledger.scan_payments_ns_per_payment", "ns", "lower"},
	{"ledger.decode_page_ns", "ns", "lower"},

	{"deanon.fingerprint_ns_per_payment", "ns", "lower"},
	{"deanon.sharded_inc_payments_per_s", "1/s", "higher"},
	{"deanon.seal_ms", "ms", "lower"},
	{"deanon.parallel_study_payments_per_s", "1/s", "higher"},
	{"deanon.lookup_ns", "ns", "lower"},
	{"deanon.count_bytes_per_payment", "count", "lower"},

	{"analysis.collect_ns_per_page", "ns", "lower"},
	{"analysis.merge_cloned_ms", "ms", "lower"},

	{"serve.ingest_pages_payments_per_s", "1/s", "higher"},
	{"serve.ingest_event_events_per_s", "1/s", "higher"},
	{"serve.drain_ms", "ms", "lower"},
	{"serve.epochs_per_pass", "count", "lower"},
	{"serve.query_lookup_p50_us", "us", "lower"},
	{"serve.query_deanon_p50_us", "us", "lower"},
	{"serve.query_ecosystem_p50_us", "us", "lower"},
	{"serve.query_validators_p50_us", "us", "lower"},
	{"serve.render_miss_us", "us", "lower"},
	{"serve.live_query_p50_us", "us", "lower"},
	{"serve.live_query_p99_us", "us", "lower"},
	{"serve.rejected_share", "ratio", "lower"},
	{"serve.dropped_events", "count", "lower"},

	{"netstream.publish_events_per_s", "1/s", "higher"},
	{"netstream.wire_events_per_s", "1/s", "higher"},
	{"netstream.bytes_per_event", "count", "lower"},
	{"netstream.reconnects", "count", "lower"},

	{"monitor.record_ns_per_event", "ns", "lower"},

	{"replay.build_tx_per_s", "1/s", "higher"},
	{"replay.build_ckpt_overhead_share", "ratio", "lower"},
	{"replay.run_seq_s", "s", "lower"},
	{"replay.run_parallel_s", "s", "lower"},
	{"replay.parallel_over_seq", "ratio", "lower"},
	{"replay.replan_share", "ratio", "lower"},
	{"replay.resume_tail_pages", "count", "lower"},

	{"payment.apply_xrp_ns", "ns", "lower"},
	{"payment.apply_iou_us", "us", "lower"},
	{"payment.seal_state_ms", "ms", "lower"},
	{"payment.restore_engine_ms", "ms", "lower"},
	{"payment.clone_ms", "ms", "lower"},

	{"pathfind.find_us", "us", "lower"},
	{"pathfind.find_dry_us", "us", "lower"},
	{"orderbook.quote_ns", "ns", "lower"},

	{"shamap.seal_us_per_changed_leaf", "us", "lower"},
	{"shamap.write_new_nodes_per_s", "1/s", "higher"},
	{"shamap.load_ms", "ms", "lower"},
	{"shamap.leaves", "count", "lower"},

	{"nodestore.file_put_mb_per_s", "MB/s", "higher"},
	{"nodestore.open_verify_ms", "ms", "lower"},
	{"nodestore.get_ns", "ns", "lower"},

	{"txq.submit_admit_us", "us", "lower"},
	{"txq.quote_cold_us", "us", "lower"},
	{"txq.quote_cached_ns", "ns", "lower"},
	{"txq.quote_live_p50_us", "us", "lower"},
	{"txq.cache_hit_share", "ratio", "higher"},
	{"txq.replan_share", "ratio", "lower"},
	{"txq.batch_size_mean", "count", "higher"},
	{"txq.shed_share", "ratio", "lower"},
	{"txq.succeeded_share", "ratio", "higher"},

	{"core.figure3_w1_payments_per_s", "1/s", "higher"},
	{"core.figure3_wmax_payments_per_s", "1/s", "higher"},
	{"core.figure4to6_payments_per_s", "1/s", "higher"},
	{"core.table2_s", "s", "lower"},

	{"harness.sched_late_p99_ms", "ms", "lower"},
	{"harness.op_p90_ms", "ms", "lower"},
	{"harness.op_p99_ms", "ms", "lower"},
	{"harness.machine_slowdown", "ratio", "lower"},
	{"harness.unattributed_share", "ratio", "lower"},
	{"harness.trace_overhead_share", "ratio", "lower"},
	{"go.alloc_bytes_per_work", "count", "lower"},
	{"go.num_gc", "count", "lower"},
	{"go.gc_pause_total_ms", "ms", "lower"},
}

const (
	probePayments = 12_000
	probeMinTime  = 60 * time.Millisecond // a rate probe repeats until it has run this long
	probeSamples  = 9                     // a latency probe takes the median of this many calls
)

// repeat runs fn until probeMinTime has passed and returns the mean time
// of one call.
func repeat(fn func() error) (time.Duration, error) {
	start := time.Now()
	n := 0
	for time.Since(start) < probeMinTime {
		if err := fn(); err != nil {
			return 0, err
		}
		n++
	}
	return time.Since(start) / time.Duration(n), nil
}

// sample calls fn probeSamples times and returns the median time in
// milliseconds.
func sample(fn func() error) (float64, error) {
	ds := make([]time.Duration, 0, probeSamples)
	for i := 0; i < probeSamples; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return summarise(ds).p50, nil
}

// per is n units per second of d.
func per(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

// nsEach is d spread over n units, in nanoseconds.
func nsEach(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }

// probeEnv is the small fixture every layer probe runs on, in the forms
// the layers consume it.
type probeEnv struct {
	rc       *runCtx
	layer    map[string]float64
	fix      *fixture // pages in memory and in a store on disk
	payloads [][]byte // canonical page encodings
	bytes    int
	feats    []deanon.Features
	events   []consensus.Event
	tuples   []iouTuple
	last     uint64
	snap     uint64
}

// runProbes fills the per-layer table from outside the packages: every
// layer's public calls on one small fixture made from the run's seed,
// then short runs of the other workloads for the figures only a running
// pipeline has. The workload's own traced measurement overrides those.
func runProbes(rc *runCtx) (map[string]float64, error) {
	e := &probeEnv{rc: rc, layer: map[string]float64{}}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"fixture", e.fixture},
		{"ledgerstore", e.ledgerstore},
		{"ledger", e.ledger},
		{"deanon", e.deanon},
		{"analysis", e.analysis},
		{"serve", e.serve},
		{"netstream", e.netstream},
		{"monitor", e.monitor},
		{"replay", e.replay},
		{"state tree", e.stateTree},
		{"payment", e.payment},
		{"shamap", e.shamap},
		{"txq", e.txq},
		{"core", e.core},
		{"pipelines", e.pipelines},
	}
	for _, s := range steps {
		runtime.GC()
		if err := s.fn(); err != nil {
			return nil, fmt.Errorf("%s probe: %w", s.name, err)
		}
	}
	e.fix.close()
	return e.layer, nil
}

// fixture generates the probe history (synth), writes it to a store
// (ledgerstore.Append) and derives the in-memory forms.
func (e *probeEnv) fixture() error {
	t0 := time.Now()
	fix, err := buildFixture(fixtureOpts{payments: probePayments, seed: e.rc.seed, keepPages: true})
	if err != nil {
		return err
	}
	e.layer["synth.generate_payments_per_s"] = per(fix.res.Stats.PaymentsOK+fix.res.Stats.PaymentsFailed, time.Since(t0))
	e.fix = fix
	fix.storeDir = filepath.Join(e.rc.dir, "store")

	t0 = time.Now()
	st, err := ledgerstore.Create(fix.storeDir)
	if err != nil {
		return err
	}
	for _, p := range fix.pages {
		if err := st.Append(p); err != nil {
			return err
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	e.layer["ledgerstore.append_pages_per_s"] = per(len(fix.pages), time.Since(t0))
	if fix.store, err = ledgerstore.Open(fix.storeDir); err != nil {
		return err
	}
	if _, err := fix.store.SegmentRanges(); err != nil {
		return err
	}
	stats, err := fix.store.Stats()
	if err != nil {
		return err
	}
	e.layer["ledgerstore.bytes_per_payment"] = float64(stats.Bytes) / float64(fix.payments)

	for _, p := range fix.pages {
		enc := p.Encode(nil)
		e.payloads = append(e.payloads, enc)
		e.bytes += len(enc)
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				e.feats = append(e.feats, f)
			}
		}
	}
	e.events = streamEvents(fix.pages)
	e.tuples = viableTuples(fix.res, submitTuples)
	if len(e.tuples) == 0 {
		return errors.New("no viable IOU tuples in the probe economy")
	}
	e.last = fix.lastSeq()
	e.snap = max(uint64(float64(e.last)*replaySnapshot), 1)
	return nil
}

func (e *probeEnv) ledgerstore() error {
	ctx := context.Background()
	store := e.fix.store
	d, err := repeat(func() error {
		return store.PayloadsParallel(ctx, e.rc.workers, func(int, []byte) error { return nil })
	})
	if err != nil {
		return err
	}
	e.layer["ledgerstore.payloads_scan_mb_per_s"] = float64(e.bytes) / 1e6 / d.Seconds()
	if d, err = repeat(func() error {
		return store.ScanPayments(ctx, e.rc.workers, func(int, *ledger.PaymentView) error { return nil })
	}); err != nil {
		return err
	}
	e.layer["ledgerstore.scan_payments_per_s"] = per(e.fix.payments, d)
	if d, err = repeat(func() error {
		return store.PagesRangeRecycled(1, e.last, func(_ *ledger.Page, release func()) error { release(); return nil })
	}); err != nil {
		return err
	}
	e.layer["ledgerstore.pages_range_pages_per_s"] = per(e.fix.npages, d)
	return nil
}

func (e *probeEnv) ledger() error {
	d, err := repeat(func() error {
		for _, payload := range e.payloads {
			if _, err := ledger.ScanPayments(payload, func(*ledger.PaymentView) error { return nil }); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layer["ledger.scan_payments_ns_per_payment"] = nsEach(d, e.fix.payments)
	var arena ledger.PageArena
	if d, err = repeat(func() error {
		for _, payload := range e.payloads {
			if _, _, err := ledger.DecodePageInto(payload, &arena); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.layer["ledger.decode_page_ns"] = nsEach(d, len(e.payloads))
	return nil
}

func (e *probeEnv) deanon() error {
	plan := deanon.NewFingerprintPlan(deanon.Figure3Rows)
	rows := plan.Rows()
	fps := make([]deanon.Fingerprint, 0, rows*len(e.feats))
	d, _ := repeat(func() error {
		fps = fps[:0]
		var enc deanon.FeatureEnc
		for i := range e.feats {
			deanon.EncodeFeaturesTo(&enc, &e.feats[i])
			fps = enc.AppendFingerprints(plan, fps)
		}
		return nil
	})
	e.layer["deanon.fingerprint_ns_per_payment"] = nsEach(d, len(e.feats))

	bits := deanon.DefaultShardBits()
	d, _ = repeat(func() error {
		study := deanon.NewShardedIncStudy(deanon.Figure3Rows, bits)
		for i := 0; i < len(fps); i += rows {
			study.ObserveFingerprints(fps[i : i+rows])
		}
		study.Seal()
		study.Close()
		return nil
	})
	e.layer["deanon.sharded_inc_payments_per_s"] = per(len(e.feats), d)

	// Seal cadence: one seal per 1 % of the fixture, as a live view
	// publishing while it ingests.
	study := deanon.NewShardedIncStudy(deanon.Figure3Rows, bits)
	step := max(len(e.feats)/100, 1)
	var seals []time.Duration
	for i := 0; i < len(e.feats); i++ {
		study.ObserveFingerprints(fps[i*rows : (i+1)*rows])
		if (i+1)%step == 0 {
			t0 := time.Now()
			study.Seal()
			seals = append(seals, time.Since(t0))
		}
	}
	study.Close()
	e.layer["deanon.seal_ms"] = summarise(seals).p50

	d, _ = repeat(func() error {
		ps := deanon.NewParallelStudy(deanon.Figure3Rows, bits)
		fd := ps.Feeder()
		for _, f := range e.feats {
			fd.Observe(f)
		}
		ps.Results()
		ps.Close()
		return nil
	})
	e.layer["deanon.parallel_study_payments_per_s"] = per(len(e.feats), d)
	return nil
}

func (e *probeEnv) analysis() error {
	d, err := repeat(func() error {
		c := analysis.NewCollector()
		for _, p := range e.fix.pages {
			if err := c.Page(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layer["analysis.collect_ns_per_page"] = nsEach(d, len(e.fix.pages))

	halves := [2]*analysis.Collector{analysis.NewCollector(), analysis.NewCollector()}
	for i, p := range e.fix.pages {
		if err := halves[i%2].Page(p); err != nil {
			return err
		}
	}
	ms, _ := sample(func() error {
		dst := analysis.NewCollector()
		dst.MergeCloned(halves[0])
		dst.MergeCloned(halves[1])
		return nil
	})
	e.layer["analysis.merge_cloned_ms"] = ms
	return nil
}

func (e *probeEnv) serve() error {
	ctx := context.Background()
	// Page ingest without a store, and the drain that ends it.
	var drains []time.Duration
	d, err := repeat(func() error {
		svc := serve.NewService(e.rc.serveOptions())
		defer svc.Close()
		if err := svc.IngestPages(e.fix.pages); err != nil {
			return err
		}
		t0 := time.Now()
		err := svc.Drain(ctx)
		drains = append(drains, time.Since(t0))
		return err
	})
	if err != nil {
		return err
	}
	e.layer["serve.ingest_pages_payments_per_s"] = per(e.fix.payments, d)
	e.layer["serve.drain_ms"] = summarise(drains).p50

	// Event ingest in process, no TCP.
	if d, err = repeat(func() error {
		svc := serve.NewService(e.rc.serveOptions())
		defer svc.Close()
		for _, ev := range e.events {
			if err := svc.IngestEvent(ev); err != nil {
				return err
			}
		}
		return svc.Drain(ctx)
	}); err != nil {
		return err
	}
	e.layer["serve.ingest_event_events_per_s"] = per(len(e.events), d)

	// Queries against one sealed service: the snapshot lookup itself,
	// each endpoint over loopback HTTP, and the first request after an
	// epoch change, which has to render instead of serving the cache.
	svc := serve.NewService(e.rc.serveOptions())
	defer svc.Close()
	held := len(e.fix.pages) * 9 / 10
	if err := svc.IngestPages(e.fix.pages[:held]); err != nil {
		return err
	}
	if err := svc.Drain(ctx); err != nil {
		return err
	}
	snap := svc.Fingerprints()
	e.layer["serve.epochs_per_pass"] = float64(snap.Epoch)
	e.layer["deanon.count_bytes_per_payment"] = float64(snap.CountBytes()) / float64(max(snap.Payments, 1))
	d, _ = repeat(func() error {
		for i := range e.feats {
			snap.Lookup(i%len(deanon.Figure3Rows), e.feats[i])
		}
		return nil
	})
	e.layer["deanon.lookup_ns"] = nsEach(d, len(e.feats))

	base, client, stop, err := serveHTTP(svc.Handler())
	if err != nil {
		return err
	}
	defer stop()
	get := func(path string) (time.Duration, error) {
		t0 := time.Now()
		resp, err := client.Get(base + path)
		if err != nil {
			return 0, err
		}
		_, err = discard(resp)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
		return time.Since(t0), err
	}
	for kind, path := range map[string]string{
		"lookup":     "/v1/deanon/lookup?row=0&amount=5&currency=USD",
		"deanon":     "/v1/deanon",
		"ecosystem":  "/v1/ecosystem",
		"validators": "/v1/validators",
	} {
		var ds []time.Duration
		for i := 0; i < 300; i++ {
			d, err := get(path)
			if err != nil {
				return err
			}
			ds = append(ds, d)
		}
		e.layer["serve.query_"+kind+"_p50_us"] = summarise(ds).p50 * 1000
	}
	var misses []time.Duration
	for _, p := range e.fix.pages[held:] {
		if len(misses) == 4*probeSamples {
			break
		}
		if err := svc.IngestPage(p); err != nil {
			return err
		}
		if err := svc.Drain(ctx); err != nil {
			return err
		}
		d, err := get("/v1/deanon")
		if err != nil {
			return err
		}
		misses = append(misses, d)
	}
	e.layer["serve.render_miss_us"] = summarise(misses).p50 * 1000
	return nil
}

// countingListener counts the bytes its connections write, so the
// stream's bytes per event are measured on the wire.
type countingListener struct {
	net.Listener
	written *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{c, l.written}, nil
}

type countingConn struct {
	net.Conn
	written *atomic.Int64
}

func (c countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written.Add(int64(n))
	return n, err
}

func (e *probeEnv) netstream() error {
	var written atomic.Int64
	t0 := time.Now()
	srv, err := netstream.Serve("127.0.0.1:0", netstream.WithReplayRing(len(e.events)),
		netstream.WithListenerWrapper(func(ln net.Listener) net.Listener { return countingListener{ln, &written} }))
	if err != nil {
		return err
	}
	defer srv.Close()
	for _, ev := range e.events {
		srv.Publish(ev)
	}
	e.layer["netstream.publish_events_per_s"] = per(len(e.events), time.Since(t0))

	// A raw client replays the whole ring over loopback and discards it.
	d, err := repeat(func() error {
		c, err := netstream.DialResume(srv.Addr(), 0, 5*time.Second)
		if err != nil {
			return err
		}
		defer c.Close()
		n := 0
		return c.Events(func(consensus.Event) error {
			if n++; n == len(e.events) {
				return netstream.ErrStop
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	e.layer["netstream.wire_events_per_s"] = per(len(e.events), d)
	replays := float64(srv.Stats().Replayed) / float64(len(e.events))
	e.layer["netstream.bytes_per_event"] = float64(written.Load()) / replays / float64(len(e.events))
	return nil
}

func (e *probeEnv) monitor() error {
	d, _ := repeat(func() error {
		col := monitor.NewCollector()
		for _, ev := range e.events {
			col.Record(ev)
		}
		return nil
	})
	e.layer["monitor.record_ns_per_event"] = nsEach(d, len(e.events))
	return nil
}

func (e *probeEnv) replay() error {
	store := e.fix.store
	ckDir := store.CheckpointDir()
	cold := replay.BuildOptions{DisableResume: true}

	t0 := time.Now()
	if _, err := replay.BuildStateOpts(store, e.last, cold); err != nil {
		return err
	}
	plain := time.Since(t0)
	e.layer["replay.build_tx_per_s"] = per(e.fix.txs, plain)

	every := max(uint64(float64(e.fix.npages)/(replayCheckpoints+0.5)), 1)
	t0 = time.Now()
	if _, err := replay.BuildStateOpts(store, e.last, replay.BuildOptions{DisableResume: true, CheckpointEvery: every}); err != nil {
		return err
	}
	e.layer["replay.build_ckpt_overhead_share"] = (time.Since(t0) - plain).Seconds() / plain.Seconds()

	// The sidecar that build left behind: what opening it costs, how
	// large it is, and how long a tail a restart would replay.
	metas, err := ledgerstore.ListCheckpoints(ckDir)
	if err != nil {
		return err
	}
	if len(metas) == 0 {
		return errors.New("checkpointed build wrote no checkpoints")
	}
	var nodeBytes int64
	for _, m := range metas {
		nodeBytes += m.NodesBytes
	}
	e.layer["ledgerstore.checkpoint_bytes_per_page"] = float64(nodeBytes) / float64(e.fix.npages)
	tail := 0
	for _, seq := range e.fix.pageSeqs {
		if seq > metas[len(metas)-1].Seq {
			tail++
		}
	}
	e.layer["replay.resume_tail_pages"] = float64(tail)
	ms, err := sample(func() error {
		ms, err := ledgerstore.ListCheckpoints(ckDir)
		if err != nil {
			return err
		}
		_, err = ledgerstore.OpenCheckpointNodes(ckDir, ms)
		return err
	})
	if err != nil {
		return err
	}
	e.layer["ledgerstore.checkpoint_open_ms"] = ms

	t0 = time.Now()
	if _, err := replay.RunOpts(store, e.snap, cold); err != nil {
		return err
	}
	seq := time.Since(t0)
	t0 = time.Now()
	res, err := replay.RunParallelOpts(store, e.snap, e.rc.workers, cold)
	if err != nil {
		return err
	}
	par := time.Since(t0)
	e.layer["replay.run_seq_s"] = seq.Seconds()
	e.layer["replay.run_parallel_s"] = par.Seconds()
	e.layer["replay.parallel_over_seq"] = par.Seconds() / seq.Seconds()
	e.layer["replay.replan_share"] = share(uint64(res.Stats.Conflicts), uint64(res.Stats.Conflicts+res.Stats.PlannedAhead))
	return os.RemoveAll(ckDir)
}

// hashedNode is one content-addressed record as a state tree emits it.
type hashedNode struct {
	h    ledger.Hash
	data []byte
}

// stateTree walks the checkpoint path by hand: replay the history on an
// engine with a state tree, sealing sixteen times on the way, write the
// whole tree as one checkpoint, open it, load it with hash verification
// and restore an engine from it. The nodestore probes reuse the nodes.
func (e *probeEnv) stateTree() error {
	eng := payment.NewEngine(payment.WithStateTree())
	step := max(len(e.fix.pages)/16, 1)
	var seals []time.Duration
	var root ledger.Hash
	for i, p := range e.fix.pages {
		for _, tx := range p.Txs {
			if _, err := eng.Apply(tx); err != nil {
				return err
			}
		}
		if (i+1)%step == 0 || i == len(e.fix.pages)-1 {
			t0 := time.Now()
			r, err := eng.SealState()
			if err != nil {
				return err
			}
			seals = append(seals, time.Since(t0))
			root = r
		}
	}
	e.layer["payment.seal_state_ms"] = summarise(seals).p50

	dir := filepath.Join(e.rc.dir, "tree-checkpoint")
	meta := &ledgerstore.CheckpointMeta{
		Seq: e.last, Root: root, StateDigest: eng.StateDigest(),
		TotalDrops: eng.TotalDrops(), FeesDestroyed: int64(eng.FeesDestroyed()),
	}
	var nodes []hashedNode
	t0 := time.Now()
	err := ledgerstore.WriteCheckpoint(dir, meta, func(put func(ledger.Hash, []byte) error) (int, error) {
		return eng.WriteNewStateNodes(func(h ledger.Hash, data []byte) error {
			nodes = append(nodes, hashedNode{h, append([]byte(nil), data...)})
			return put(h, data)
		})
	})
	if err != nil {
		return err
	}
	e.layer["ledgerstore.checkpoint_write_ms"] = float64(time.Since(t0).Microseconds()) / 1000

	getter, err := ledgerstore.OpenCheckpointNodes(dir, []ledgerstore.CheckpointMeta{*meta})
	if err != nil {
		return err
	}
	var tree *shamap.Tree
	ms, err := sample(func() error {
		tree, err = shamap.Load(root, getter.Get)
		return err
	})
	if err != nil {
		return err
	}
	e.layer["shamap.load_ms"] = ms
	e.layer["shamap.leaves"] = float64(tree.Len())

	// RestoreEngine adopts the tree, so each sample restores from a
	// freshly loaded one; only the restore is timed.
	var restores []time.Duration
	for i := 0; i < probeSamples; i++ {
		tr, err := shamap.Load(root, getter.Get)
		if err != nil {
			return err
		}
		t0 := time.Now()
		restored, err := payment.RestoreEngine(tr, payment.RestoreScalars{
			TotalDrops: meta.TotalDrops, FeesDestroyed: amount.Drops(meta.FeesDestroyed), StateDigest: meta.StateDigest,
		})
		if err != nil {
			return err
		}
		restores = append(restores, time.Since(t0))
		if restored.StateDigest() != eng.StateDigest() {
			return errors.New("restored engine has another digest")
		}
	}
	e.layer["payment.restore_engine_ms"] = summarise(restores).p50
	return e.nodestore(nodes)
}

func (e *probeEnv) nodestore(nodes []hashedNode) error {
	path := filepath.Join(e.rc.dir, "probe.nodes")
	bytes := 0
	t0 := time.Now()
	fw, err := nodestore.CreateFile(path)
	if err != nil {
		return err
	}
	for _, n := range nodes {
		if err := fw.Put(n.h, n.data); err != nil {
			fw.Close()
			return err
		}
		bytes += len(n.data)
	}
	if err := fw.Close(); err != nil {
		return err
	}
	e.layer["nodestore.file_put_mb_per_s"] = float64(bytes) / 1e6 / time.Since(t0).Seconds()

	var fs *nodestore.FileStore
	ms, err := sample(func() error {
		fs, err = nodestore.OpenFile(path)
		return err
	})
	if err != nil {
		return err
	}
	e.layer["nodestore.open_verify_ms"] = ms
	d, err := repeat(func() error {
		for _, n := range nodes {
			if _, err := fs.Get(n.h); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layer["nodestore.get_ns"] = nsEach(d, len(nodes))
	return nil
}

func (e *probeEnv) payment() error {
	src := e.fix.res.Engine
	ms, _ := sample(func() error { src.Clone(); return nil })
	e.layer["payment.clone_ms"] = ms

	eng := src.Clone()
	from, to := addr.KeyPairFromSeed(1000).AccountID(), addr.KeyPairFromSeed(99).AccountID()
	eng.Fund(from, 1<<40)
	eng.Fund(to, 1_000_000)
	const batch = 1000
	d, err := repeat(func() error {
		for i := 0; i < batch; i++ {
			tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Sequence: eng.NextSequence(from), Fee: payment.BaseFee, Destination: to, Amount: submitXRPPayment}
			if _, err := eng.Apply(tx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	e.layer["payment.apply_xrp_ns"] = nsEach(d, batch)

	flip := false
	if d, err = repeat(func() error {
		for _, tu := range e.tuples {
			a, b := tu.a, tu.b
			if flip {
				a, b = b, a
			}
			tx := &ledger.Tx{Type: ledger.TxPayment, Account: a, Sequence: eng.NextSequence(a), Fee: payment.BaseFee, Destination: b, Amount: amount.New(tu.cur, submitIOUAmount)}
			if _, err := eng.Apply(tx); err != nil {
				return err
			}
		}
		flip = !flip
		return nil
	}); err != nil {
		return err
	}
	e.layer["payment.apply_iou_us"] = nsEach(d, len(e.tuples)) / 1000

	// Path search where liquidity exists, and where the ablation left
	// none: cross-currency requests after every market maker is gone.
	one := amount.MustParse("1")
	f := pathfind.New(eng.Graph(), eng.Books())
	if d, err = repeat(func() error {
		for _, tu := range e.tuples {
			if _, err := f.FindPayment(tu.a, tu.b, tu.cur, amount.New(tu.cur, one)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.layer["pathfind.find_us"] = nsEach(d, len(e.tuples)) / 1000

	var pair orderbook.Pair
	depth := 0
	eng.Books().Pairs(func(p orderbook.Pair, n int) {
		if n > depth || (n == depth && p.String() < pair.String()) {
			pair, depth = p, n
		}
	})
	if depth == 0 {
		return errors.New("no order book with offers in the probe economy")
	}
	var q orderbook.Quote
	if d, err = repeat(func() error {
		for i := 0; i < batch; i++ {
			if err := eng.Books().QuoteBuyInto(pair, one, &q); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.layer["orderbook.quote_ns"] = nsEach(d, batch)

	// Dry searches: the history's own indirect payments, asked again
	// after the ablation removed every market maker, keeping those for
	// which the search proves there is no path (what Table II mostly does).
	dry := src.Clone()
	dry.RemoveMarketMakers()
	df := pathfind.New(dry.Graph(), dry.Books())
	type dryReq struct {
		from, to addr.AccountID
		cur      amount.Currency
		deliver  amount.Amount
	}
	var reqs []dryReq
	for _, p := range e.fix.pages {
		for _, tx := range p.Txs {
			if tx.Type != ledger.TxPayment || len(reqs) == 4*submitTuples {
				continue
			}
			r := dryReq{tx.Account, tx.Destination, tx.Amount.Currency, tx.Amount}
			if !tx.SendMax.IsZero() {
				r.cur = tx.SendMax.Currency
			}
			if r.cur.IsXRP() && r.deliver.Currency.IsXRP() {
				continue
			}
			if plan, err := df.FindPayment(r.from, r.to, r.cur, r.deliver); plan == nil && errors.Is(err, pathfind.ErrNoPath) {
				reqs = append(reqs, r)
			}
		}
	}
	if len(reqs) == 0 {
		return errors.New("no dry request in the ablated probe economy")
	}
	d, _ = repeat(func() error {
		for _, r := range reqs {
			df.FindPayment(r.from, r.to, r.cur, r.deliver)
		}
		return nil
	})
	e.layer["pathfind.find_dry_us"] = nsEach(d, len(reqs)) / 1000
	return nil
}

func (e *probeEnv) shamap() error {
	const leaves, changed = 20_000, 256
	rng := rand.New(rand.NewSource(e.rc.seed))
	keys := make([]ledger.Hash, leaves)
	for i := range keys {
		rng.Read(keys[i][:])
	}
	value := make([]byte, 64)
	tree := shamap.New()
	for _, k := range keys {
		tree.Set(k, value)
	}
	tree.Seal()
	mem := nodestore.NewMem()
	t0 := time.Now()
	n, err := tree.WriteNew(mem.Put)
	if err != nil {
		return err
	}
	e.layer["shamap.write_new_nodes_per_s"] = per(n, time.Since(t0))

	d, _ := repeat(func() error {
		rng.Read(value)
		for i := 0; i < changed; i++ {
			tree.Set(keys[rng.Intn(leaves)], value)
		}
		tree.Seal()
		return nil
	})
	e.layer["shamap.seal_us_per_changed_leaf"] = nsEach(d, changed) / 1000
	return nil
}

func (e *probeEnv) txq() error {
	one := amount.MustParse("1")
	// CacheSize 1 sends (almost) every quote through a live search.
	cold := txq.New(e.fix.res.Engine.Clone(), txq.Options{CacheSize: 1})
	d, err := repeat(func() error {
		for _, tu := range e.tuples {
			if _, err := cold.PathFind(tu.a, tu.b, tu.cur, amount.New(tu.cur, one)); err != nil {
				return err
			}
		}
		return nil
	})
	cold.Close()
	if err != nil {
		return err
	}
	e.layer["txq.quote_cold_us"] = nsEach(d, len(e.tuples)) / 1000

	warm := txq.New(e.fix.res.Engine.Clone(), txq.Options{})
	defer warm.Close()
	tu := e.tuples[0]
	const batch = 1000
	if d, err = repeat(func() error {
		for i := 0; i < batch; i++ {
			if _, err := warm.PathFind(tu.a, tu.b, tu.cur, amount.New(tu.cur, one)); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	e.layer["txq.quote_cached_ns"] = nsEach(d, batch)
	return nil
}

func (e *probeEnv) core() error {
	ctx := context.Background()
	ds, err := core.OpenDataset(e.fix.storeDir)
	if err != nil {
		return err
	}
	for name, workers := range map[string]int{"w1": 1, "wmax": e.rc.workers} {
		d, err := repeat(func() error {
			_, err := ds.Figure3Parallel(ctx, workers)
			return err
		})
		if err != nil {
			return err
		}
		e.layer["core.figure3_"+name+"_payments_per_s"] = per(e.fix.payments, d)
	}
	// Figures 4 to 6 share one ecosystem scan, made on first use, so each
	// repeat opens the dataset afresh.
	d, err := repeat(func() error {
		ds, err := core.OpenDataset(e.fix.storeDir)
		if err != nil {
			return err
		}
		ds.SetWorkers(e.rc.workers)
		if _, err := ds.Figure4(); err != nil {
			return err
		}
		if _, err := ds.Figure5(); err != nil {
			return err
		}
		_, _, err = ds.Figure6()
		return err
	})
	if err != nil {
		return err
	}
	e.layer["core.figure4to6_payments_per_s"] = per(e.fix.payments, d)

	ds.SetWorkers(e.rc.workers)
	t0 := time.Now()
	if _, err := ds.TableII(replaySnapshot); err != nil {
		return err
	}
	e.layer["core.table2_s"] = time.Since(t0).Seconds()
	return nil
}

// pipelines runs the two open-loop workloads briefly at a quarter of
// their size, for the figures only a running pipeline has (live query
// latency, drops, reconnects, generator lateness, the front door's
// counters). The traced workload's own figures override them.
func (e *probeEnv) pipelines() error {
	minis := []workload{
		&liveFollow{pages: 1200, payments: 2500},
		&submitMixed{payments: 8000, rate: 4000},
	}
	for i, w := range minis {
		rc := *e.rc
		rc.dir = filepath.Join(e.rc.dir, fmt.Sprint("mini", i))
		if err := w.prepare(&rc); err != nil {
			w.close()
			return err
		}
		out := w.measure(3*time.Second, nil)
		w.close()
		if out.failed > 0 {
			return fmt.Errorf("short %T run failed its oracle: %v", w, out.failures)
		}
		for name, v := range out.layer {
			if _, have := e.layer[name]; !have {
				e.layer[name] = v
			}
		}
	}
	return nil
}
