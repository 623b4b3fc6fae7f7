package serve

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ripplestudy/internal/deanon"
)

// get performs one request against the service handler.
func get(t *testing.T, s *Service, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// TestLookupEndpointVerdicts drives /v1/deanon/lookup with a feature
// vector taken from a real ingested payment (must not be "unseen") and
// an absurd one (must be "unseen"), and checks the verdict wording.
func TestLookupEndpointVerdicts(t *testing.T) {
	pages := genPages(t, 800, 13)
	s := NewService(Options{})
	defer s.Close()
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)

	var feat deanon.Features
	found := false
	for _, p := range pages {
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				feat, found = f, true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("history has no observable payment")
	}

	path := "/v1/deanon/lookup?row=0" +
		"&amount=" + feat.Amount.String() +
		"&currency=" + feat.Currency.String() +
		"&time=" + strconv.FormatUint(uint64(feat.Time), 10) +
		"&dest=" + feat.Destination.String()
	rec := get(t, s, path)
	if rec.Code != 200 {
		t.Fatalf("lookup status %d: %s", rec.Code, rec.Body)
	}
	var res LookupResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if res.Count == 0 || res.Verdict == "unseen" {
		t.Fatalf("ingested payment reported unseen: %+v", res)
	}
	if res.Verdict != "unique" && res.Verdict != "ambiguous" {
		t.Fatalf("bad verdict %q", res.Verdict)
	}
	if res.Resolution == "" || res.Epoch == 0 {
		t.Fatalf("missing context fields: %+v", res)
	}

	// A fingerprint nobody paid: amount and time far outside the
	// generated history.
	rec = get(t, s, "/v1/deanon/lookup?row=0&amount=999999999&currency=USD&time=4000000000")
	var miss LookupResult
	if err := json.Unmarshal(rec.Body.Bytes(), &miss); err != nil {
		t.Fatal(err)
	}
	if miss.Count != 0 || miss.Verdict != "unseen" {
		t.Fatalf("phantom payment reported seen: %+v", miss)
	}
}

// TestLookupEndpointRejectsBadParams pins the 400 paths.
func TestLookupEndpointRejectsBadParams(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	for _, path := range []string{
		"/v1/deanon/lookup",                            // row missing
		"/v1/deanon/lookup?row=banana",                 // row not an int
		"/v1/deanon/lookup?row=999",                    // row out of range
		"/v1/deanon/lookup?row=0&amount=not-a-value",   // bad amount
		"/v1/deanon/lookup?row=0&currency=TOOLONGCODE", // bad currency
		"/v1/deanon/lookup?row=0&time=-5",              // bad time
		"/v1/deanon/lookup?row=0&dest=nonsense",        // bad account
	} {
		if rec := get(t, s, path); rec.Code != 400 {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

// TestEpochCacheReplaysAndInvalidates checks the response cache: same
// epoch replays identical bytes and counts a hit; new ingest bumps the
// epoch and re-renders.
func TestEpochCacheReplaysAndInvalidates(t *testing.T) {
	pages := genPages(t, 300, 19)
	s := NewService(Options{})
	defer s.Close()
	half := len(pages) / 2
	for _, p := range pages[:half] {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)

	// Handler must be reused: caches live in its closure.
	h := s.Handler()
	serve := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}
	first := serve("/v1/ecosystem")
	second := serve("/v1/ecosystem")
	if first.Body.String() != second.Body.String() {
		t.Fatal("same epoch rendered different bytes")
	}
	if hits := s.endpoints[epEcosystem].hits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}

	for _, p := range pages[half:] {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	third := serve("/v1/ecosystem")
	if third.Body.String() == first.Body.String() {
		t.Fatal("cache served a stale epoch after ingest")
	}
	var snap EcosystemSnapshot
	if err := json.Unmarshal(third.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Pages != uint64(len(pages)) {
		t.Fatalf("post-ingest snapshot has %d pages, want %d", snap.Pages, len(pages))
	}
}

// TestMetricsExposition spot-checks the Prometheus text output.
func TestMetricsExposition(t *testing.T) {
	pages := genPages(t, 200, 29)
	s := NewService(Options{})
	defer s.Close()
	for _, p := range pages {
		if err := s.IngestPage(p); err != nil {
			t.Fatal(err)
		}
	}
	drain(t, s)
	get(t, s, "/v1/validators") // register one endpoint's metrics

	body := get(t, s, "/metrics").Body.String()
	for _, want := range []string{
		"serve_ingested_pages_total " + strconv.Itoa(len(pages)),
		"serve_view_epoch{view=\"fig3_fingerprints\"}",
		"serve_view_ingest_lag_events{view=\"fig4to6_ecosystem\"} 0",
		"serve_query_duration_seconds_count{endpoint=\"validators\"} 1",
		"serve_query_duration_seconds_bucket{endpoint=\"validators\",le=\"+Inf\"} 1",
		"serve_http_rejected_total 0",
		"serve_ingest_idle_seconds",
		"serve_view_queue_depth{view=\"fig2_tally\"} 0",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q\n%s", want, body)
		}
	}
	// Each view is one goroutine: no worker count, shard merge or
	// per-shard ring is left to export.
	for _, gone := range []string{"serve_pipeline_workers", "serve_view_merge_duration_seconds", "serve_view_shard_queue_depth"} {
		if strings.Contains(body, gone) {
			t.Errorf("metrics still export %s", gone)
		}
	}
	// Without a front door its endpoints are not mounted, so not exported.
	if strings.Contains(body, `endpoint="path_find"`) {
		t.Error("metrics export the unmounted path_find endpoint")
	}
	// Every view exports its inbox depth. The summed seal time is zero
	// for a view that never sealed (the tally view: pages carry no
	// validation events), otherwise positive.
	for _, vw := range s.views {
		label := fmt.Sprintf("{view=%q}", vw.name)
		if depth := metricValue(t, body, "serve_view_queue_depth"+label); depth != 0 {
			t.Errorf("view %s: %v batches queued after a Drain", vw.name, depth)
		}
		seals := metricValue(t, body, "serve_view_seal_duration_seconds_count"+label)
		sealTotal := metricValue(t, body, "serve_view_seal_duration_seconds_sum"+label)
		pageView := vw.name != "fig2_tally"
		if (pageView && seals < 1) || (seals > 0) != (sealTotal > 0) {
			t.Errorf("view %s: %v seals taking %vs", vw.name, seals, sealTotal)
		}
		// Every view exports its dry waits. A view that never had an
		// update to publish never waited; the others may not have either,
		// since Drain skips the wait.
		waits := metricValue(t, body, "serve_view_dry_wait_seconds_count"+label)
		waited := metricValue(t, body, "serve_view_dry_wait_seconds_sum"+label)
		if seals == 0 && (waits != 0 || waited != 0) {
			t.Errorf("view %s: %v dry waits taking %vs with nothing to publish", vw.name, waits, waited)
		}
	}
}

// metricValue reads the value of the exposition line for series.
func metricValue(t *testing.T, body, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(body, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", series, err)
			}
			return f
		}
	}
	t.Fatalf("metrics missing %s", series)
	return 0
}
