package txq

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// HTTP surface for the front door. The serve layer mounts these under
// its admission limiter:
//
//	GET  /v1/path_find?src=r..&dst=r..&amount=5/USD[&source_currency=EUR]
//	POST /v1/submit        {"tx": {...}} or a bare transaction object
//	GET  /v1/tx_status?hash=...

// PathFindResponse is the JSON answer to /v1/path_find: the quote plus
// the summarized alternative (ripple_path_find returns alternatives;
// our planner already merges parallel paths into one best answer).
type PathFindResponse struct {
	Src string `json:"source_account"`
	Dst string `json:"destination_account"`
	Quote
}

// HandlePathFind is the GET /v1/path_find handler.
func (fd *FrontDoor) HandlePathFind(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, err := addr.ParseAccountID(q.Get("src"))
	if err != nil {
		httpError(w, fmt.Sprintf("src: %v", err), http.StatusBadRequest)
		return
	}
	dst, err := addr.ParseAccountID(q.Get("dst"))
	if err != nil {
		httpError(w, fmt.Sprintf("dst: %v", err), http.StatusBadRequest)
		return
	}
	deliver, err := amount.ParseAmount(q.Get("amount"))
	if err != nil {
		httpError(w, fmt.Sprintf("amount: value/CUR required: %v", err), http.StatusBadRequest)
		return
	}
	srcCur := deliver.Currency
	if v := q.Get("source_currency"); v != "" {
		srcCur, err = amount.NewCurrency(v)
		if err != nil {
			httpError(w, fmt.Sprintf("source_currency: %v", err), http.StatusBadRequest)
			return
		}
	}
	quote, err := fd.PathFind(src, dst, srcCur, deliver)
	if err != nil {
		if errors.Is(err, ErrClosed) {
			httpError(w, err.Error(), http.StatusServiceUnavailable)
			return
		}
		httpError(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, PathFindResponse{Src: q.Get("src"), Dst: q.Get("dst"), Quote: quote})
}

// SubmitRequest is the POST /v1/submit body: a transaction, optionally
// wrapped in {"tx": ...}, optionally asking to wait for the outcome.
type SubmitRequest struct {
	Tx *ledger.Tx `json:"tx"`
	// Wait blocks the response until the transaction is applied and
	// reports the final status inline.
	Wait bool `json:"wait"`
}

// SubmitResponse answers /v1/submit.
type SubmitResponse struct {
	// Accepted is true when the transaction was admitted to the queue.
	Accepted bool   `json:"accepted"`
	ID       uint64 `json:"id,omitempty"`
	// Hash is the as-submitted hash. /v1/tx_status resolves it while
	// the transaction is queued and once applied; an auto-sequenced
	// transaction's final hash, in its status, differs (the sequence is
	// filled in) and resolves too.
	Hash   string    `json:"hash,omitempty"`
	Error  string    `json:"error,omitempty"`
	Status *TxStatus `json:"status,omitempty"`
}

// HandleSubmit is the POST /v1/submit handler.
func (fd *FrontDoor) HandleSubmit(w http.ResponseWriter, r *http.Request) {
	var req SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	if err := dec.Decode(&req); err != nil {
		httpError(w, fmt.Sprintf("body: %v", err), http.StatusBadRequest)
		return
	}
	if req.Tx == nil {
		httpError(w, "body: tx object required", http.StatusBadRequest)
		return
	}
	ticket, err := fd.Submit(req.Tx)
	if err != nil {
		code := http.StatusBadRequest
		switch {
		case errors.Is(err, ErrQueueFull):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrClosed):
			code = http.StatusServiceUnavailable
		case errors.Is(err, ErrDuplicateSequence):
			code = http.StatusConflict
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		body, _ := json.Marshal(SubmitResponse{Accepted: false, Error: err.Error()})
		w.Write(body)
		w.Write([]byte("\n"))
		return
	}
	h := ticket.Hash
	if h.IsZero() {
		// Auto-sequenced: Submit leaves the hash to the apply, but the
		// client polls by the hash of what it sent.
		h = req.Tx.Hash()
		fd.register(ticket.rec, h)
	}
	resp := SubmitResponse{Accepted: true, ID: ticket.ID, Hash: h.String()}
	if req.Wait {
		st, werr := ticket.Wait(r.Context())
		if werr == nil {
			resp.Status = &st
		}
	}
	writeJSON(w, resp)
}

// HandleTxStatus is the GET /v1/tx_status handler; hash may be the
// as-submitted hash /v1/submit returned or the final transaction hash.
func (fd *FrontDoor) HandleTxStatus(w http.ResponseWriter, r *http.Request) {
	h, err := ledger.ParseHash(r.URL.Query().Get("hash"))
	if err != nil {
		httpError(w, fmt.Sprintf("hash: %v", err), http.StatusBadRequest)
		return
	}
	st, ok := fd.Status(h)
	if !ok {
		httpError(w, "unknown transaction (never submitted, or status evicted)", http.StatusNotFound)
		return
	}
	writeJSON(w, st)
}

func writeJSON(w http.ResponseWriter, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(body)
	w.Write([]byte("\n"))
}

func httpError(w http.ResponseWriter, msg string, code int) {
	http.Error(w, msg, code)
}
