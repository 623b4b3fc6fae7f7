package integration

import (
	"context"
	"math/rand"
	stdnet "net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/faultnet"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/serve"
)

// TestServingLayerOverDegradedStream is the serving-layer end-to-end
// proof: a rippled-sim-style network (pages on the stream, synthetic
// payment traffic) publishes through a fault-injecting TCP listener; a
// serve.Service follows it with the resilient client, and the
// incrementally maintained views must equal batch computations over the
// exact history the network closed — while the HTTP API reports live
// epochs and stream progress.
func TestServingLayerOverDegradedStream(t *testing.T) {
	const rounds = 100
	const seed = 21
	spec := consensus.December2015(rounds)

	labels := make(map[addr.NodeID]string)
	batch := monitor.NewCollector()
	for _, vs := range spec.Specs {
		if vs.Label != "" {
			node := addr.KeyPairFromSeed(vs.Seed).NodeID()
			labels[node] = vs.Label
			batch.SetLabel(node, vs.Label)
		}
	}

	// The degraded transport: same fault profile as the monitor chaos
	// test, now carrying page payloads too.
	fcfg := faultnet.Config{Seed: 17, CorruptRate: 0.10, DropRate: 0.06, TruncateRate: 0.04}
	var fln *faultnet.Listener
	srv, err := netstream.Serve("127.0.0.1:0",
		netstream.WithReplayRing(1<<15),
		netstream.WithQueueSize(256),
		netstream.WithWriteTimeout(2*time.Second),
		netstream.WithListenerWrapper(func(ln stdnet.Listener) stdnet.Listener {
			fln = faultnet.Wrap(ln, fcfg)
			return fln
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	svc := serve.NewService(serve.Options{ValidatorLabels: labels, PublishBatch: 16})
	defer svc.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	var stats netstream.ClientStats
	var followErr error
	go func() {
		defer wg.Done()
		stats, followErr = svc.Follow(ctx, srv.Addr(), netstream.ResilientOptions{
			InitialBackoff:         2 * time.Millisecond,
			MaxBackoff:             50 * time.Millisecond,
			DialTimeout:            time.Second,
			ReadTimeout:            25 * time.Millisecond,
			MaxConsecutiveFailures: 5000,
		})
	}()

	// The network: pages attached to close events, light payment
	// traffic so pages carry de-anonymizable transactions.
	net := consensus.NewNetwork(consensus.Config{
		Seed:        seed,
		StartTime:   spec.Start,
		StreamPages: true,
	}, spec.Specs)
	net.Subscribe(batch.Record)
	// Ground truth for the page views: the pages actually announced as
	// validated (rounds that miss quorum close no page on the stream).
	var validatedPages []*ledger.Page
	var last consensus.Event
	net.Subscribe(func(ev consensus.Event) {
		if ev.Kind == consensus.EventLedgerClosed && len(ev.PageData) > 0 {
			p, _, err := ledger.DecodePageInto(ev.PageData, new(ledger.PageArena))
			if err != nil {
				t.Errorf("streamed page: %v", err)
			} else {
				validatedPages = append(validatedPages, p)
			}
		}
		last = ev
		srv.Publish(ev)
	})

	rng := rand.New(rand.NewSource(seed))
	trafficKey := addr.KeyPairFromSeed(24680)
	net.Engine().Fund(trafficKey.AccountID(), 1_000_000_000_000)
	traffic := func(round int) []*ledger.Tx {
		txs := make([]*ledger.Tx, 0, 2)
		for i := 0; i < 2; i++ {
			tx := &ledger.Tx{
				Type:        ledger.TxPayment,
				Account:     trafficKey.AccountID(),
				Sequence:    net.Engine().NextSequence(trafficKey.AccountID()) + uint32(i),
				Fee:         10,
				Destination: addr.KeyPairFromSeed(uint64(30000 + rng.Intn(40))).AccountID(),
				Amount:      amount.XRPAmount(amount.Drops(1_000_000 + rng.Int63n(10_000_000))),
			}
			tx.Sign(trafficKey)
			txs = append(txs, tx)
		}
		return txs
	}
	if _, err := net.Run(rounds, traffic); err != nil {
		t.Fatal(err)
	}
	final := net.EventsEmitted()

	// Drive the tail home through the faulty transport (gaps are only
	// detected when a newer event arrives), then stop following.
	deadline := time.Now().Add(60 * time.Second)
	for svc.Health().StreamLastSeq < final {
		if time.Now().After(deadline) {
			t.Fatalf("serving layer stuck at stream seq %d of %d", svc.Health().StreamLastSeq, final)
		}
		srv.Publish(last)
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	wg.Wait()
	if followErr != nil {
		t.Fatalf("follow: %v", followErr)
	}
	if stats.Missed != 0 {
		t.Fatalf("stream lost %d events despite replay ring (stats %+v)", stats.Missed, stats)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := svc.Drain(dctx); err != nil {
		t.Fatal(err)
	}

	// Figure 2: incremental tally == batch collector, through the chaos.
	want := batch.Report(spec.Name)
	got := svc.Tally().Report(spec.Name)
	if !reflect.DeepEqual(want.Validators, got.Validators) || want.Rounds != got.Rounds {
		t.Errorf("Fig. 2 diverged across the degraded stream:\nbatch: %+v\nserve: %+v", want, got)
	}

	// Page views: equal batch passes over the validated pages the
	// network announced.
	if len(validatedPages) == 0 {
		t.Fatal("no validated pages streamed")
	}
	study := deanon.NewStudy(deanon.Figure3Rows)
	col := analysis.NewCollector()
	for _, p := range validatedPages {
		for j := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[j], p.Metas[j]); ok {
				study.Observe(f)
			}
		}
		if err := col.Page(p); err != nil {
			t.Fatal(err)
		}
	}
	if study.Payments() == 0 {
		t.Fatal("traffic produced no observable payments")
	}
	fp := svc.Fingerprints()
	if fp.Payments != study.Payments() || !reflect.DeepEqual(fp.Rows, study.Results()) {
		t.Errorf("Fig. 3 diverged: serve %d payments, batch %d", fp.Payments, study.Payments())
	}
	eco := svc.Ecosystem()
	if eco.Payments != col.Payments() || !reflect.DeepEqual(eco.Currencies, col.CurrencyHistogram()) {
		t.Errorf("ecosystem view diverged: %+v", eco)
	}

	// The chaos must actually have happened and been absorbed.
	if fln.Stats().FaultRate() < 0.15 {
		t.Errorf("fault rate %.2f too low to prove anything", fln.Stats().FaultRate())
	}
	if stats.Reconnects == 0 {
		t.Error("no reconnects despite injected disconnects")
	}

	// The HTTP surface reports the live state: epochs advanced, stream
	// sequence tracked, no drops in backpressure mode.
	web := httptest.NewServer(svc.Handler())
	defer web.Close()
	body := httpGet(t, web.URL+"/metrics")
	for _, view := range []string{"fig2_tally", "fig3_fingerprints", "fig4to6_ecosystem"} {
		if v := metricValue(t, body, `serve_view_epoch{view="`+view+`"}`); v == 0 {
			t.Errorf("%s epoch still 0 after ingest", view)
		}
		if v := metricValue(t, body, `serve_view_ingest_lag_events{view="`+view+`"}`); v != 0 {
			t.Errorf("%s lag %v after drain", view, v)
		}
	}
	if v := metricValue(t, body, "serve_stream_last_seq"); v != float64(final) {
		t.Errorf("stream_last_seq %v, want %d", v, final)
	}
	if v := metricValue(t, body, "serve_dropped_events_total"); v != 0 {
		t.Errorf("dropped %v events in backpressure mode", v)
	}
}

func httpGet(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	buf := make([]byte, 32<<10)
	for {
		n, err := resp.Body.Read(buf)
		sb.Write(buf[:n])
		if err != nil {
			break
		}
	}
	return sb.String()
}

// metricValue extracts one Prometheus sample value from text exposition.
func metricValue(t *testing.T, body, name string) float64 {
	t.Helper()
	re := regexp.MustCompile("(?m)^" + regexp.QuoteMeta(name) + " (.+)$")
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("metric %s not found", name)
	}
	v, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}
