package txq

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/payment"
)

// TestFrontDoorHTTPSubmitStatus pins the HTTP contract for an
// auto-sequenced submission, which the front door itself hashes only at
// apply: POST /v1/submit without wait returns the as-submitted hash,
// /v1/tx_status resolves it while the transaction is queued, and then
// reports the applied status, whose final hash resolves too. Identical
// bodies posted at once share that hash, and it ends with the newest ID.
func TestFrontDoorHTTPSubmitStatus(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{QueueDepth: 16, Backpressure: true})
	defer drainAndClose(t, fd)
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
		Destination: acct(2), Amount: amount.XRPAmount(500)}
	body, err := json.Marshal(SubmitRequest{Tx: tx})
	if err != nil {
		t.Fatal(err)
	}
	submit := func() (SubmitResponse, error) {
		rec := httptest.NewRecorder()
		fd.HandleSubmit(rec, httptest.NewRequest("POST", "/v1/submit", bytes.NewReader(body)))
		var sub SubmitResponse
		if rec.Code != 200 {
			return sub, fmt.Errorf("submit status %d: %s", rec.Code, rec.Body)
		}
		return sub, json.Unmarshal(rec.Body.Bytes(), &sub)
	}
	status := func(h string) TxStatus {
		t.Helper()
		rec := httptest.NewRecorder()
		fd.HandleTxStatus(rec, httptest.NewRequest("GET", "/v1/tx_status?hash="+h, nil))
		if rec.Code != 200 {
			t.Fatalf("tx_status?hash=%s: status %d: %s", h, rec.Code, rec.Body)
		}
		var st TxStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	var sub SubmitResponse
	// While this goroutine holds the engine read lock, nothing applies.
	fd.WithEngine(func(*payment.Engine) {
		if sub, err = submit(); err != nil {
			t.Fatal(err)
		}
		if !sub.Accepted || sub.Status != nil || sub.Hash != tx.Hash().String() {
			t.Fatalf("submit response = %+v, want accepted under the as-submitted hash %s", sub, tx.Hash())
		}
		if st := status(sub.Hash); st.ID != sub.ID || st.State != "queued" || st.Hash.String() != sub.Hash {
			t.Errorf("queued: tx_status = %+v, want queued under the returned hash", st)
		}
	})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fd.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	st := status(sub.Hash)
	if st.ID != sub.ID || st.State != "applied" || !st.Succeeded || st.Sequence != 1 {
		t.Fatalf("applied: tx_status = %+v, want applied+succeeded at sequence 1", st)
	}
	if st.Hash.String() == sub.Hash {
		t.Error("auto-sequenced transaction applied under its as-submitted hash")
	}
	if got := status(st.Hash.String()); got != st {
		t.Errorf("tx_status by final hash = %+v, want %+v", got, st)
	}

	const handlers = 8
	ids := make(chan uint64, handlers)
	var wg sync.WaitGroup
	for i := 0; i < handlers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, err := submit()
			if err != nil || sub.Hash != tx.Hash().String() {
				t.Errorf("concurrent submit: %+v, %v", sub, err)
				return
			}
			ids <- sub.ID
		}()
	}
	wg.Wait()
	close(ids)
	newest := uint64(0)
	for id := range ids {
		newest = max(newest, id)
	}
	if got := status(sub.Hash); got.ID != newest {
		t.Errorf("shared as-submitted hash resolves to ID %d, want the newest, %d", got.ID, newest)
	}
}
