package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
)

// cachedResponse is one rendered body pinned to the view epoch it was
// rendered from. Snapshot endpoints are pure functions of their view's
// epoch, so a matching epoch means the bytes can be replayed verbatim.
type cachedResponse struct {
	epoch uint64
	body  []byte
}

// Handler returns the service's HTTP API:
//
//	GET /healthz          ingestion health (JSON, never limited)
//	GET /metrics          Prometheus text exposition (never limited)
//	GET /v1/validators    Figure 2 per-validator tallies
//	GET /v1/deanon        Figure 3 information-gain rows
//	GET /v1/deanon/lookup sender-uniqueness point query (O(1))
//	GET /v1/ecosystem     Figures 4–6 histograms and curves
//
// Query endpoints pass through the admission limiter (MaxConcurrent
// slots, AdmitWait grace, then 503) and serve from immutable epoch
// snapshots, so they never block — and are never blocked by — ingestion.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Health())
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.writeMetrics(w)
	})

	var tallyCache, fpCache, ecoCache atomic.Pointer[cachedResponse]
	mux.Handle("GET /v1/validators", s.limited(epValidators, func(w http.ResponseWriter, r *http.Request) {
		snap := s.Tally()
		s.serveCached(w, epValidators, &tallyCache, snap.Epoch, snap)
	}))
	mux.Handle("GET /v1/deanon", s.limited(epDeanon, func(w http.ResponseWriter, r *http.Request) {
		snap := s.Fingerprints()
		s.serveCached(w, epDeanon, &fpCache, snap.Epoch, snap)
	}))
	mux.Handle("GET /v1/ecosystem", s.limited(epEcosystem, func(w http.ResponseWriter, r *http.Request) {
		snap := s.Ecosystem()
		s.serveCached(w, epEcosystem, &ecoCache, snap.Epoch, snap)
	}))
	mux.Handle("GET /v1/deanon/lookup", s.limited(epLookup, s.handleLookup))

	if s.fd != nil {
		// Front-door endpoints share the admission limiter: a quote storm
		// cannot starve the snapshot queries and vice versa. Submission
		// backpressure (queue depth) is the front door's own second gate.
		mux.Handle("GET /v1/path_find", s.limited(epPathFind, s.fd.HandlePathFind))
		mux.Handle("POST /v1/submit", s.limited(epSubmit, s.fd.HandleSubmit))
		mux.Handle("GET /v1/tx_status", s.limited(epTxStatus, s.fd.HandleTxStatus))
	}
	return mux
}

// limited wraps a query handler with the admission limiter and latency
// recording.
func (s *Service) limited(ep int, h http.HandlerFunc) http.Handler {
	latency := &s.endpoints[ep].latency
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.admit <- struct{}{}:
		default:
			// Full: wait out the grace period rather than failing fast.
			t := time.NewTimer(s.opts.AdmitWait)
			select {
			case s.admit <- struct{}{}:
				t.Stop()
			case <-t.C:
				s.rejected.Add(1)
				http.Error(w, "overloaded", http.StatusServiceUnavailable)
				return
			case <-r.Context().Done():
				t.Stop()
				s.rejected.Add(1)
				return
			}
		}
		s.inflight.Add(1)
		start := time.Now()
		defer func() {
			latency.Observe(time.Since(start))
			s.inflight.Add(-1)
			<-s.admit
		}()
		h(w, r)
	})
}

// serveCached replays the cached body when the endpoint's view epoch
// has not advanced, re-rendering (and republishing the cache) otherwise.
// A stale concurrent store is harmless: every body is valid for its own
// epoch and the next request re-checks.
func (s *Service) serveCached(w http.ResponseWriter, ep int, cache *atomic.Pointer[cachedResponse], epoch uint64, v any) {
	if c := cache.Load(); c != nil && c.epoch == epoch {
		s.endpoints[ep].hits.Add(1)
		writeJSONBytes(w, c.body)
		return
	}
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	cache.Store(&cachedResponse{epoch: epoch, body: body})
	writeJSONBytes(w, body)
}

// LookupResult is the JSON answer to /v1/deanon/lookup.
type LookupResult struct {
	Epoch      uint64 `json:"epoch"`
	AppliedSeq uint64 `json:"applied_seq"`
	Row        int    `json:"row"`
	Resolution string `json:"resolution"`
	// Count is the saturating fingerprint count: 0 never seen, 1 unique,
	// 2 two-or-more.
	Count uint8 `json:"count"`
	// Verdict spells Count out: "unseen", "unique" (the sender is
	// de-anonymized at this resolution), or "ambiguous".
	Verdict string `json:"verdict"`
}

// handleLookup answers a point query: given an observation (amount,
// currency, close time, destination) and a Figure 3 resolution row, how
// many payments in the current snapshot share its fingerprint?
func (s *Service) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	row, err := strconv.Atoi(q.Get("row"))
	if err != nil {
		http.Error(w, "row: integer index into the Figure 3 resolution rows required", http.StatusBadRequest)
		return
	}
	var f deanon.Features
	if v := q.Get("amount"); v != "" {
		f.Amount, err = amount.Parse(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("amount: %v", err), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("currency"); v != "" {
		f.Currency, err = amount.NewCurrency(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("currency: %v", err), http.StatusBadRequest)
			return
		}
	}
	if v := q.Get("time"); v != "" {
		t, terr := strconv.ParseUint(v, 10, 32)
		if terr != nil {
			http.Error(w, "time: seconds since the Ripple epoch required", http.StatusBadRequest)
			return
		}
		f.Time = ledger.CloseTime(t)
	}
	if v := q.Get("dest"); v != "" {
		f.Destination, err = addr.ParseAccountID(v)
		if err != nil {
			http.Error(w, fmt.Sprintf("dest: %v", err), http.StatusBadRequest)
			return
		}
	}
	snap := s.Fingerprints()
	count, ok := snap.Lookup(row, f)
	if !ok {
		http.Error(w, fmt.Sprintf("row: %d out of range [0, %d)", row, len(snap.Rows)), http.StatusBadRequest)
		return
	}
	verdict := "unseen"
	switch count {
	case 1:
		verdict = "unique"
	case 2:
		verdict = "ambiguous"
	}
	writeJSON(w, LookupResult{
		Epoch:      snap.Epoch,
		AppliedSeq: snap.AppliedSeq,
		Row:        row,
		Resolution: snap.Resolutions()[row].String(),
		Count:      count,
		Verdict:    verdict,
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSONBytes(w, body)
}

func writeJSONBytes(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}
