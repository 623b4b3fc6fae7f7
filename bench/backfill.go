package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"ripplestudy/internal/analysis"
	"ripplestudy/internal/core"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/serve"
)

const (
	backfillWarmPasses      = 2
	backfillMinPasses       = 5
	backfillSessionsPerPass = 50
	backfillLookups         = 1024 // distinct seeded lookup targets
)

// lookupTarget is one seeded real payment a /v1/deanon/lookup asks about,
// with the reference count the slow path gives for it.
type lookupTarget struct {
	row   int
	path  string // request path with query
	count uint8
}

// backfillScan is the read chain, disk to /v1 response: a fresh service
// backfills the whole store, then a query client reads the sealed views.
type backfillScan struct {
	payments int

	rc  *runCtx
	fix *fixture

	wantRows []deanon.RowResult
	wantCur  []analysis.CurrencyCount
	targets  []lookupTarget

	handler  atomic.Value // http.Handler of the current pass's service
	base     string
	client   *http.Client
	stopHTTP func()
	rng      *rand.Rand
}

func (b *backfillScan) header() string {
	st, _ := b.fix.store.Stats()
	return fmt.Sprintf("digest=%s pages=%d payments=%d events=0 store_bytes=%d segments=%d",
		b.fix.digest, b.fix.npages, b.fix.payments, st.Bytes, st.Segments)
}

func (b *backfillScan) prepare(rc *runCtx) error {
	b.rc = rc
	b.rng = rand.New(rand.NewSource(rc.seed))
	fix, err := buildFixture(fixtureOpts{payments: b.payments, seed: rc.seed, storeDir: filepath.Join(rc.dir, "store")})
	if err != nil {
		return err
	}
	b.fix = fix
	if err := b.reference(); err != nil {
		return err
	}

	// One server for the whole run; every pass installs its own service
	// behind it.
	b.base, b.client, b.stopHTTP, err = serveHTTP(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		b.handler.Load().(http.Handler).ServeHTTP(w, r)
	}))
	if err != nil {
		return err
	}

	for i := 0; i < backfillWarmPasses; i++ {
		warm := &outcome{}
		rec := &recorder{}
		svc, err := b.pass(warm, nil, -1-i, rec)
		if err != nil {
			return err
		}
		b.sessions(warm, rec, map[string][]time.Duration{})
		svc.Close()
		if warm.failed > 0 {
			return fmt.Errorf("warm-up pass failed its oracle: %v", warm.failures)
		}
	}
	return nil
}

// reference computes the oracle from the slow path: sequential Figure 3
// and Figure 4 through core.Dataset, and per-target fingerprint counts
// from a plain map filled by a one-worker scan.
func (b *backfillScan) reference() error {
	ds, err := core.OpenDataset(b.fix.storeDir)
	if err != nil {
		return err
	}
	ds.SetWorkers(1)
	if b.wantRows, err = ds.Figure3(); err != nil {
		return err
	}
	if b.wantCur, err = ds.Figure4(); err != nil {
		return err
	}

	// Seeded targets: every stride-th payment, cycling through the rows.
	stride := max(b.fix.payments/backfillLookups, 1)
	type key struct {
		row int
		fp  deanon.Fingerprint
	}
	counts := map[key]uint8{}
	var feats []deanon.Features
	var keys []key
	n := 0
	err = b.fix.store.ScanPayments(context.Background(), 1, func(_ int, pv *ledger.PaymentView) error {
		if n%stride == 0 && len(feats) < backfillLookups {
			f := featuresOf(pv)
			k := key{row: len(feats) % len(deanon.Figure3Rows)}
			k.fp = deanon.FingerprintOf(f, deanon.Figure3Rows[k.row])
			feats, keys = append(feats, f), append(keys, k)
			counts[k] = 0
		}
		n++
		return nil
	})
	if err != nil {
		return err
	}
	err = b.fix.store.ScanPayments(context.Background(), 1, func(_ int, pv *ledger.PaymentView) error {
		f := featuresOf(pv)
		for row, res := range deanon.Figure3Rows {
			k := key{row, deanon.FingerprintOf(f, res)}
			if c, ok := counts[k]; ok && c < 2 {
				counts[k] = c + 1
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, f := range feats {
		q := url.Values{}
		q.Set("row", strconv.Itoa(keys[i].row))
		q.Set("amount", f.Amount.String())
		q.Set("currency", f.Currency.String())
		q.Set("time", strconv.FormatUint(uint64(f.Time), 10))
		q.Set("dest", f.Destination.String())
		b.targets = append(b.targets, lookupTarget{row: keys[i].row, path: "/v1/deanon/lookup?" + q.Encode(), count: counts[keys[i]]})
	}
	if len(b.targets) == 0 {
		return fmt.Errorf("no lookup targets in the fixture")
	}
	return nil
}

// featuresOf is the fingerprint input of one scanned payment.
func featuresOf(pv *ledger.PaymentView) deanon.Features {
	return deanon.Features{Sender: pv.Sender, Destination: pv.Destination, Currency: pv.Currency, Amount: pv.Amount, Time: pv.Time}
}

// pass runs one backfill pass (NewService → BackfillStore → Drain, all
// inside the recorder's timing), checks the sealed views against the reference
// (outside it) and leaves the service installed behind the HTTP server.
// The caller closes the returned service.
func (b *backfillScan) pass(out *outcome, tr *tracer, pass int, rec *recorder) (*serve.Service, error) {
	runtime.GC()
	ctx := context.Background()
	root := tr.begin("pass", 0, pass)
	rec.begin()
	var svc *serve.Service
	tr.call("serve.NewService", root, pass, func() error {
		svc = serve.NewService(b.rc.serveOptions())
		return nil
	})
	err := tr.call("serve.BackfillStore", root, pass, func() error {
		return svc.BackfillStore(ctx, b.fix.store, b.rc.workers)
	})
	if err == nil {
		err = tr.call("serve.Drain", root, pass, func() error { return svc.Drain(ctx) })
	}
	if err != nil {
		svc.Close()
		return nil, err
	}
	rec.end(float64(b.fix.payments))
	tr.end(root)

	out.attempted++
	b.checkViews(out, svc)
	b.handler.Store(svc.Handler())
	return svc, nil
}

// checkViews compares the sealed views with the sequential reference.
func (b *backfillScan) checkViews(out *outcome, svc *serve.Service) {
	fp := svc.Fingerprints()
	if fp.Payments != b.fix.payments {
		out.failf("fingerprint view holds %d payments, store has %d", fp.Payments, b.fix.payments)
		return
	}
	if len(fp.Rows) != len(b.wantRows) {
		out.failf("fingerprint view has %d rows, Figure 3 has %d", len(fp.Rows), len(b.wantRows))
		return
	}
	for i, r := range fp.Rows {
		if r != b.wantRows[i] {
			out.failf("Figure 3 row %d: served %+v, sequential %+v", i, r, b.wantRows[i])
			return
		}
	}
	eco := svc.Ecosystem()
	if len(eco.Currencies) != len(b.wantCur) {
		out.failf("ecosystem has %d currencies, Figure 4 has %d", len(eco.Currencies), len(b.wantCur))
		return
	}
	for i, c := range eco.Currencies {
		if c != b.wantCur[i] {
			out.failf("Figure 4 bar %d: served %+v, sequential %+v", i, c, b.wantCur[i])
			return
		}
	}
}

// get issues one GET on the keep-alive connection and returns the body
// and the time from sending the request to reading the last byte.
func (b *backfillScan) get(path string) ([]byte, int, time.Duration, error) {
	t0 := time.Now()
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return nil, 0, 0, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return body, resp.StatusCode, time.Since(t0), err
}

// sessionMix is one query session: 14 lookups on seeded real payments
// and two GETs of each snapshot endpoint (70/10/10/10), issued in a
// seeded order on the one keep-alive connection. The session, not the
// single GET, is the workload's op: a loopback GET takes tens of
// microseconds, which is scheduler jitter, while twenty of them are a
// millisecond-scale quantity that repeats.
var sessionMix = []string{
	"lookup", "lookup", "lookup", "lookup", "lookup", "lookup", "lookup",
	"lookup", "lookup", "lookup", "lookup", "lookup", "lookup", "lookup",
	"deanon", "deanon", "ecosystem", "ecosystem", "validators", "validators",
}

// session runs one query session, checks every answer against the
// reference, and returns the time spent inside the GETs.
func (b *backfillScan) session(out *outcome, byKind map[string][]time.Duration) time.Duration {
	var total time.Duration
	for _, i := range b.rng.Perm(len(sessionMix)) {
		kind := sessionMix[i]
		path := "/v1/" + kind
		var tgt lookupTarget
		if kind == "lookup" {
			tgt = b.targets[b.rng.Intn(len(b.targets))]
			path = tgt.path
		}
		body, code, d, err := b.get(path)
		if err != nil || code != http.StatusOK {
			out.failf("GET %s: status %d err %v", path, code, err)
			continue
		}
		total += d
		byKind[kind] = append(byKind[kind], d)
		switch kind {
		case "lookup":
			var lr serve.LookupResult
			if err := json.Unmarshal(body, &lr); err != nil || lr.Count != tgt.count || lr.Row != tgt.row {
				out.failf("lookup %s: got count %d (err %v), reference count %d", path, lr.Count, err, tgt.count)
			}
		case "ecosystem":
			var eco struct {
				Payments   int64                    `json:"payments"`
				Currencies []analysis.CurrencyCount `json:"currencies"`
			}
			if err := json.Unmarshal(body, &eco); err != nil || len(eco.Currencies) != len(b.wantCur) || eco.Payments != int64(b.fix.payments) {
				out.failf("/v1/ecosystem: %d payments in %d currencies (err %v), want %d in %d",
					eco.Payments, len(eco.Currencies), err, b.fix.payments, len(b.wantCur))
			}
		default:
			if !json.Valid(body) {
				out.failf("GET %s: body is not JSON", path)
			}
		}
	}
	return total
}

// sessions runs the pass's query sessions against the installed service
// and records each one's latency in the recorder's current window.
func (b *backfillScan) sessions(out *outcome, rec *recorder, byKind map[string][]time.Duration) {
	for i := 0; i < backfillSessionsPerPass; i++ {
		out.attempted++
		failed := out.failed
		d := b.session(out, byKind)
		if out.failed == failed {
			rec.op(d)
		}
	}
}

func (b *backfillScan) measure(budget time.Duration, tr *tracer) *outcome {
	out := &outcome{layer: map[string]float64{}}
	rec := newRecorder(b.rc.speed)
	byKind := map[string][]time.Duration{}
	start := time.Now()
	passes := 0
	// One window per pass: the backfill and the sessions that query it.
	for ; passes < backfillMinPasses || time.Since(start) < budget; passes++ {
		svc, err := b.pass(out, tr, passes, rec)
		if err != nil {
			out.failf("pass %d: %v", passes, err)
			return out
		}
		b.sessions(out, rec, byKind)
		svc.Close()
		rec.closeWindow()
	}
	rec.finish(out)
	out.infof("timed: %d passes of %d payments, each followed by %d sessions; op = session of %d GETs",
		passes, b.fix.payments, backfillSessionsPerPass, len(sessionMix))
	for kind, ds := range byKind {
		out.layer["serve.query_"+kind+"_p50_us"] = summarise(ds).p50 * 1000
	}
	return out
}

func (b *backfillScan) close() {
	if b.stopHTTP != nil {
		b.stopHTTP()
	}
	if b.fix != nil {
		b.fix.close()
	}
}
