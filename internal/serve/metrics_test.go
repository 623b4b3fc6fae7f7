package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/txq"
)

// expoSample is one parsed sample line of a text exposition.
type expoSample struct {
	name   string
	labels string // the label pairs other than le, as written
	le     string
	value  string
}

// TestMetricsWellFormed scrapes a service with a front door after
// traffic on both halves and checks the text format: every family has
// one HELP and one TYPE before its first sample and its samples form one
// group (so no family appears in both serve's and txq's parts), and
// every histogram's buckets ascend to +Inf, never decrease, and end at
// its _count.
func TestMetricsWellFormed(t *testing.T) {
	s, _, ids := frontDoorService(t)
	h := s.Handler()
	do := func(method, path string, body []byte) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
		if rec.Code != 200 {
			t.Fatalf("%s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
	}
	const validatorsRequests = 3
	for i := 0; i < validatorsRequests; i++ {
		do("GET", "/v1/validators", nil)
	}
	do("GET", "/v1/deanon", nil)
	do("GET", "/v1/path_find?src="+ids[2].String()+"&dst="+ids[0].String()+"&amount=10/USD", nil)
	sub, err := json.Marshal(txq.SubmitRequest{
		Tx: &ledger.Tx{
			Type: ledger.TxPayment, Account: ids[2], Fee: 10,
			Destination: ids[0], Amount: amount.New(amount.USD, amount.MustParse("4")),
		},
		Wait: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	do("POST", "/v1/submit", sub)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	body := rec.Body.String()

	type family struct {
		typ         string
		help, types int
		sampled     bool
	}
	families := map[string]*family{}
	familyOf := func(name string) string {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(name, suffix); ok && families[base] != nil && families[base].typ == "histogram" {
				return base
			}
		}
		return name
	}
	var samples []expoSample
	current := ""
	for n, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		if comment, ok := strings.CutPrefix(line, "# "); ok {
			kind, rest, _ := strings.Cut(comment, " ")
			name, arg, _ := strings.Cut(rest, " ")
			f := families[name]
			if f == nil {
				f = &family{}
				families[name] = f
			}
			if f.sampled {
				t.Errorf("line %d: %s of %s after its samples", n+1, kind, name)
			}
			switch kind {
			case "HELP":
				f.help++
			case "TYPE":
				f.types++
				f.typ = arg
			default:
				t.Errorf("line %d: unknown comment %q", n+1, line)
			}
			continue
		}
		series, value, ok := strings.Cut(line, " ")
		if _, err := strconv.ParseFloat(value, 64); !ok || err != nil {
			t.Errorf("line %d: bad sample %q", n+1, line)
			continue
		}
		name, labels, _ := strings.Cut(strings.TrimSuffix(series, "}"), "{")
		fam := familyOf(name)
		f := families[fam]
		if f == nil || f.help == 0 || f.types == 0 {
			t.Errorf("line %d: %s sampled before its HELP and TYPE", n+1, fam)
			continue
		}
		if fam != current && f.sampled {
			t.Errorf("line %d: %s sampled again after %s", n+1, fam, current)
		}
		current, f.sampled = fam, true
		sm := expoSample{name: name, labels: labels, value: value}
		if i := strings.Index(labels, `le="`); i >= 0 {
			sm.le = strings.TrimSuffix(labels[i+len(`le="`):], `"`)
			sm.labels = strings.TrimSuffix(labels[:i], ",")
		}
		samples = append(samples, sm)
	}
	for name, f := range families {
		if f.help != 1 || f.types != 1 {
			t.Errorf("%s: %d HELP and %d TYPE lines", name, f.help, f.types)
		}
	}
	for _, fam := range []string{"serve_query_duration_seconds", "serve_view_seal_duration_seconds", "serve_view_dry_wait_seconds", "txq_quote_duration_seconds", "txq_submit_to_applied_seconds"} {
		if f := families[fam]; f == nil || f.typ != "histogram" {
			t.Errorf("%s is not exported as a histogram", fam)
		}
	}

	// Histograms, one series at a time: le ascends to +Inf, the
	// cumulative counts never decrease, and +Inf equals _count.
	type bucketRun struct {
		le    float64
		count uint64
		inf   bool
	}
	runs := map[string]*bucketRun{}
	counts := map[string]string{}
	for _, sm := range samples {
		switch {
		case strings.HasSuffix(sm.name, "_bucket") && sm.le != "":
			base := strings.TrimSuffix(sm.name, "_bucket") + "{" + sm.labels + "}"
			r := runs[base]
			if r == nil {
				r = &bucketRun{le: math.Inf(-1)}
				runs[base] = r
			}
			le, err := strconv.ParseFloat(sm.le, 64)
			count, cerr := strconv.ParseUint(sm.value, 10, 64)
			if err != nil || cerr != nil || r.inf || le <= r.le || count < r.count {
				t.Errorf("%s: bucket le=%s count %s after le=%v count %d", base, sm.le, sm.value, r.le, r.count)
			}
			r.le, r.count, r.inf = le, count, math.IsInf(le, 1)
		case strings.HasSuffix(sm.name, "_count"):
			counts[strings.TrimSuffix(sm.name, "_count")+"{"+sm.labels+"}"] = sm.value
		}
	}
	for base, r := range runs {
		if !r.inf || strconv.FormatUint(r.count, 10) != counts[base] {
			t.Errorf("%s: buckets end at le=%v with %d, _count %s", base, r.le, r.count, counts[base])
		}
	}
	if got := counts[`serve_query_duration_seconds{endpoint="validators"}`]; got != strconv.Itoa(validatorsRequests) {
		t.Errorf("validators query count %s, want %d", got, validatorsRequests)
	}
}

// TestMetricsCountBytesGauge checks serve_fingerprint_count_bytes
// exports the current fingerprint snapshot's CountBytes, and that it
// grows from the empty service's as the view counts a history; and that
// serve_view_inflight_bytes reads exactly 0 for both page views after
// the Drain and after Close.
func TestMetricsCountBytesGauge(t *testing.T) {
	s := NewService(Options{})
	defer s.Close()
	scrape := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		return rec.Body.String()
	}
	gauge := func(n int) string { return "\nserve_fingerprint_count_bytes " + strconv.Itoa(n) + "\n" }

	empty := s.Fingerprints().CountBytes()
	if body := scrape(); !strings.Contains(body, gauge(empty)) {
		t.Fatalf("empty service: metrics missing %q", gauge(empty))
	}
	if err := s.IngestPages(genPages(t, 1000, 79)); err != nil {
		t.Fatal(err)
	}
	drain(t, s)
	counted := s.Fingerprints().CountBytes()
	if counted <= empty {
		t.Fatalf("count bytes %d after a backfill, %d before", counted, empty)
	}
	if body := scrape(); !strings.Contains(body, gauge(counted)) {
		t.Fatalf("after backfill: metrics missing %q", gauge(counted))
	}

	inflight := func(when string) {
		t.Helper()
		body := scrape()
		for _, view := range []string{"fig3_fingerprints", "fig4to6_ecosystem"} {
			if want := "\nserve_view_inflight_bytes{view=\"" + view + "\"} 0\n"; !strings.Contains(body, want) {
				t.Fatalf("%s: metrics missing %q", when, want)
			}
		}
	}
	inflight("after the Drain")
	s.Close()
	inflight("after Close")
}
