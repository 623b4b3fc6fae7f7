package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/txq"
)

// frontDoorService wires a small Figure-1 economy (a trusts b, b trusts
// c, so c pays a through b) behind a Service with an attached front
// door, mirroring how cmd/ripple-serve assembles the two.
func frontDoorService(t *testing.T) (*Service, *txq.FrontDoor, [3]addr.AccountID) {
	t.Helper()
	eng := payment.NewEngine()
	var ids [3]addr.AccountID
	for i := range ids {
		ids[i] = addr.KeyPairFromSeed(uint64(i + 1)).AccountID()
		eng.Fund(ids[i], 100_000_000)
	}
	trust := func(truster, trustee addr.AccountID) {
		tx := &ledger.Tx{
			Type: ledger.TxTrustSet, Account: truster,
			Sequence: eng.NextSequence(truster), Fee: 10,
			LimitPeer: trustee, Limit: amount.New(amount.USD, amount.MustParse("100")),
		}
		if meta, err := eng.Apply(tx); err != nil || !meta.Result.Succeeded() {
			t.Fatalf("trust set: %v %v", err, meta)
		}
	}
	trust(ids[0], ids[1])
	trust(ids[1], ids[2])

	fd := txq.New(eng, txq.Options{QueueDepth: 64, Backpressure: true})
	s := NewService(Options{})
	s.AttachFrontDoor(fd)
	t.Cleanup(func() { s.Close(); fd.Close() })
	return s, fd, ids
}

// TestFrontDoorEndpoints drives the quote → submit → status flow through
// the real HTTP handler, then checks /metrics exports the txq families.
func TestFrontDoorEndpoints(t *testing.T) {
	s, _, ids := frontDoorService(t)
	h := s.Handler()
	a, c := ids[0], ids[2]

	// Quote: c can deliver USD to a through b.
	quoteURL := "/v1/path_find?src=" + c.String() + "&dst=" + a.String() + "&amount=10/USD"
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", quoteURL, nil))
	if rec.Code != 200 {
		t.Fatalf("path_find status %d: %s", rec.Code, rec.Body)
	}
	var q txq.PathFindResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q); err != nil {
		t.Fatal(err)
	}
	if !q.Found || q.Delivered.Cmp(amount.MustParse("10")) != 0 {
		t.Fatalf("quote = %+v, want 10 USD deliverable", q)
	}

	// The identical quote again must come from the plan cache.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", quoteURL, nil))
	var q2 txq.PathFindResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q2); err != nil {
		t.Fatal(err)
	}
	if !q2.Cached {
		t.Fatalf("second identical quote not served from cache: %+v", q2)
	}

	// Submit the quoted payment and wait for it to apply in-line.
	body, err := json.Marshal(txq.SubmitRequest{
		Tx: &ledger.Tx{
			Type: ledger.TxPayment, Account: c, Sequence: 0, Fee: 10,
			Destination: a, Amount: amount.New(amount.USD, amount.MustParse("4")),
		},
		Wait: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/submit", bytes.NewReader(body)))
	if rec.Code != 200 {
		t.Fatalf("submit status %d: %s", rec.Code, rec.Body)
	}
	var sub txq.SubmitResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &sub); err != nil {
		t.Fatal(err)
	}
	if !sub.Accepted || sub.Status == nil || !sub.Status.Succeeded {
		t.Fatalf("submit response = %+v, want accepted+applied", sub)
	}

	// Status lookup by the applied hash.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tx_status?hash="+sub.Status.Hash.String(), nil))
	if rec.Code != 200 {
		t.Fatalf("tx_status status %d: %s", rec.Code, rec.Body)
	}
	var st txq.TxStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "applied" || !st.Succeeded {
		t.Fatalf("tx_status = %+v, want applied+succeeded", st)
	}

	// The payment consumed trust on the quoted path: the cached quote
	// must have been invalidated and the fresh one reflect the new limit.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", quoteURL, nil))
	var q3 txq.PathFindResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &q3); err != nil {
		t.Fatal(err)
	}
	if q3.Cached {
		t.Fatal("stale quote served after an on-path payment applied")
	}

	// Metrics must export the txq families alongside the serve ones.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	metrics := rec.Body.String()
	for _, family := range []string{
		"txq_depth", "txq_applied_total", "txq_plan_cache_hits_total",
		"txq_quote_duration_seconds_count 3", "txq_submit_to_applied_seconds_count 1",
	} {
		if !strings.Contains(metrics, family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestFrontDoorEndpointErrors pins the HTTP error mapping: bad params
// 400, unknown hash 404, malformed tx 400, and absent front door 404.
func TestFrontDoorEndpointErrors(t *testing.T) {
	s, _, ids := frontDoorService(t)
	h := s.Handler()

	for _, path := range []string{
		"/v1/path_find", // missing params
		"/v1/path_find?src=bogus&dst=bogus&amount=10/USD",                                       // bad accounts
		"/v1/path_find?src=" + ids[0].String() + "&dst=" + ids[1].String() + "&amount=nonsense", // bad amount
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		if rec.Code != 400 {
			t.Errorf("GET %s status = %d, want 400", path, rec.Code)
		}
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tx_status?hash="+strings.Repeat("00", 32), nil))
	if rec.Code != 404 {
		t.Errorf("unknown hash status = %d, want 404", rec.Code)
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/submit", strings.NewReader(`{"tx":null}`)))
	if rec.Code != 400 {
		t.Errorf("nil tx submit status = %d, want 400", rec.Code)
	}

	// Without an attached front door the routes are simply not mounted.
	bare := NewService(Options{})
	defer bare.Close()
	rec = httptest.NewRecorder()
	bare.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/path_find?src=x", nil))
	if rec.Code != 404 {
		t.Errorf("path_find without front door status = %d, want 404", rec.Code)
	}
}
