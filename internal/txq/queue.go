// Package txq is the online payment front door: an admission-controlled
// transaction queue applied batch by batch through the payment engine
// — every payment's path is searched once, as it is applied, against
// live state, and the engine records what each batch changed — plus the
// ripple_path_find-style quote surface with a read-set-invalidated plan
// cache that those changes invalidate. It
// turns the offline replay engine (pathfind + payment) into a serving
// subsystem that accepts live submissions and quote queries under load.
//
// The queue orders work the way rippled's TxQ does: strict per-account
// sequence ordering (a later sequence never applies before an earlier
// one, whatever its fee), with fee escalation ACROSS accounts — the
// account whose head transaction pays the highest fee drains first, ties
// broken by arrival so equal-fee traffic stays FIFO. Admission is a
// bounded depth with either backpressure (Submit waits for space) or
// load-shedding (Submit fails fast), both accounted.
package txq

import (
	"container/heap"
	"sync"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// queuedTx is one submission from admission until its status is evicted:
// the queue orders it, the applier fills in what its apply produced,
// and the front door's hash index and its Ticket, which it holds, reach
// its status through it.
type queuedTx struct {
	tx     *ledger.Tx // dropped once resolved
	fee    amount.Drops
	arrive uint64 // admission order, for stable FIFO among equal fees
	// autoSeq marks a submission with Sequence 0: the applier assigns
	// the account's next sequence at apply time (rippled's "fill in the
	// sequence" convenience).
	autoSeq  bool
	enqueued time.Time

	// What the apply produced (hash and sequence as applied), held back
	// until its batch's plan-cache epoch advance. The engine's hash is
	// the only one an auto-sequenced submission gets from the front door.
	hash     ledger.Hash
	sequence uint32
	meta     *ledger.TxMeta
	err      error

	// The status, guarded by FrontDoor.stMu. subHash is the hash
	// registered at admission, which eviction must also unindex: an
	// explicit-sequence submission's final hash, an auto-sequenced one's
	// as-submitted hash when HandleSubmit registered it, zero otherwise.
	// evicted marks a status that has left the retained window. done is
	// closed once the status is final.
	st      TxStatus
	subHash ledger.Hash
	evicted bool
	done    chan struct{}

	ticket Ticket // Submit's receipt, returned as &ticket
}

// acctQueue is one account's pending transactions in apply order:
// explicit sequences ascending, then auto-sequenced arrivals FIFO. The
// cross-account heap keys each account by its head transaction.
type acctQueue struct {
	account addr.AccountID
	txs     []*queuedTx
	heapIdx int
}

// before orders a's head transaction against b's for the escalation
// heap: higher fee first, earlier arrival among equals.
func (a *acctQueue) before(b *acctQueue) bool {
	ta, tb := a.txs[0], b.txs[0]
	if ta.fee != tb.fee {
		return ta.fee > tb.fee
	}
	return ta.arrive < tb.arrive
}

// insert places q in apply order: explicit sequences sort ascending
// among themselves and ahead of every auto-sequenced transaction;
// auto-sequenced ones keep arrival order. Returns false when an
// explicit sequence duplicates one already queued for the account.
func (aq *acctQueue) insert(q *queuedTx) bool {
	if q.autoSeq {
		aq.txs = append(aq.txs, q)
		return true
	}
	at := len(aq.txs)
	for i, have := range aq.txs {
		if have.autoSeq {
			at = i
			break
		}
		if have.tx.Sequence == q.tx.Sequence {
			return false
		}
		if have.tx.Sequence > q.tx.Sequence {
			at = i
			break
		}
	}
	aq.txs = append(aq.txs, nil)
	copy(aq.txs[at+1:], aq.txs[at:])
	aq.txs[at] = q
	return true
}

// acctHeap is the fee-escalation max-heap over accounts with pending
// transactions.
type acctHeap []*acctQueue

func (h acctHeap) Len() int           { return len(h) }
func (h acctHeap) Less(i, j int) bool { return h[i].before(h[j]) }
func (h acctHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i]; h[i].heapIdx = i; h[j].heapIdx = j }
func (h *acctHeap) Push(x any)        { aq := x.(*acctQueue); aq.heapIdx = len(*h); *h = append(*h, aq) }
func (h *acctHeap) Pop() any {
	old := *h
	n := len(old)
	aq := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return aq
}

// queue is the ordered core behind the front door's admission control.
// Depth bounding lives outside (the FrontDoor's slot semaphore gives
// Submit timeout-able waits); the queue itself only orders.
type queue struct {
	mu       sync.Mutex
	accounts map[addr.AccountID]*acctQueue
	heap     acctHeap
	depth    int
	arrive   uint64
	closed   bool

	// ready is a 1-buffered wake-up signal for the applier.
	ready chan struct{}
}

func newQueue() *queue {
	return &queue{
		accounts: make(map[addr.AccountID]*acctQueue),
		ready:    make(chan struct{}, 1),
	}
}

// push admits one transaction. It fails only on a duplicate explicit
// (account, sequence) or after close.
func (q *queue) push(qt *queuedTx) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return ErrClosed
	}
	aq := q.accounts[qt.tx.Account]
	fresh := aq == nil
	if fresh {
		aq = &acctQueue{account: qt.tx.Account}
	}
	q.arrive++
	qt.arrive = q.arrive
	wasHead := !fresh && len(aq.txs) > 0
	var oldHead *queuedTx
	if wasHead {
		oldHead = aq.txs[0]
	}
	if !aq.insert(qt) {
		q.mu.Unlock()
		return ErrDuplicateSequence
	}
	if fresh {
		q.accounts[qt.tx.Account] = aq
		heap.Push(&q.heap, aq)
	} else if wasHead && aq.txs[0] != oldHead {
		// The new transaction became the account's head (an earlier
		// sequence arrived late): the heap key changed.
		heap.Fix(&q.heap, aq.heapIdx)
	}
	q.depth++
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
	return nil
}

// popBatch removes up to max transactions in apply order, blocking
// until at least one is available or the queue is closed and drained
// (nil return). Within the batch, accounts drain by descending head
// fee; one account's transactions keep their sequence order because
// only its head is ever eligible.
func (q *queue) popBatch(max int) []*queuedTx {
	for {
		q.mu.Lock()
		if q.depth > 0 {
			batch := make([]*queuedTx, 0, min(max, q.depth))
			for len(batch) < max && len(q.heap) > 0 {
				aq := q.heap[0]
				qt := aq.txs[0]
				copy(aq.txs, aq.txs[1:])
				aq.txs[len(aq.txs)-1] = nil
				aq.txs = aq.txs[:len(aq.txs)-1]
				if len(aq.txs) == 0 {
					heap.Pop(&q.heap)
					delete(q.accounts, aq.account)
				} else {
					heap.Fix(&q.heap, 0)
				}
				q.depth--
				batch = append(batch, qt)
			}
			q.mu.Unlock()
			return batch
		}
		closed := q.closed
		q.mu.Unlock()
		if closed {
			return nil
		}
		<-q.ready
	}
}

// close marks the queue closed; push fails afterwards and popBatch
// returns nil once drained.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	select {
	case q.ready <- struct{}{}:
	default:
	}
}

// size returns the current queued depth.
func (q *queue) size() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
