package serve

import (
	"fmt"
	"sync"
	"unsafe"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
)

// This file is the ingest front door: every page is projected exactly
// once — at ingest time, on the producer's goroutine — into a reused
// scratch pageRecord carrying everything the page views consume, and
// then copied into two owned parts, one per page view: an fpPart for the
// fingerprint view and an ecoPart for the ecosystem view. The views stop
// re-walking the canonical page encoding per worker; the fingerprint
// view even stops hashing, because its part already holds the
// per-resolution fingerprints (deanon.FeatureEnc encoded once per
// payment, combined per row through the shared plan).
//
// A producer that ingests many pages carves its parts, at exact lengths
// (len == cap, so no part can append into its neighbour), from chunk
// slabs it allocates one kind at a time (partArena); a single event
// carves exact-size parts with no chunk. A chunk lives until the last
// part carved from it has been applied by its view, so the fingerprint
// view, which lags a backfill by far the most, holds only fingerprint
// chunks alive, and the ecosystem half of a page is garbage as soon as
// its own view has applied it.
//
// Parts are owned (they alias nothing), so ingest is free to read pages
// from zero-copy sources — mmap'd record payloads via
// ledgerstore.PayloadsParallel, arena-decoded pages — without violating
// their valid-only-inside-the-callback contracts.

// paymentRecord is one successful payment, projected.
type paymentRecord struct {
	sender   addr.AccountID
	dest     addr.AccountID
	currency amount.Currency
	value    amount.Value
	hopsOff  int32 // into ecoPart.hops
	hopsLen  int32 // parallel-path count
}

// pageRecord is one projected page: the page-level stats plus the
// per-payment slabs. It is a producer's scratch, reused page after page
// (projection resets it and grows its slices only past the largest page
// seen), and never reaches a view: partArena.carve copies it into the
// two parts the views own.
type pageRecord struct {
	seq  uint64
	time ledger.CloseTime

	payments    []paymentRecord
	hops        []uint8              // per-path hop counts, all payments
	fps         []deanon.Fingerprint // fpRows per payment, payment order
	offerOwners []addr.AccountID     // successful OfferCreate senders
	failed      int                  // failed payment transactions
}

// reset empties the record for the next page, keeping its capacity.
func (r *pageRecord) reset(seq uint64, t ledger.CloseTime) {
	*r = pageRecord{
		seq: seq, time: t,
		payments: r.payments[:0], hops: r.hops[:0], fps: r.fps[:0], offerOwners: r.offerOwners[:0],
	}
}

// fpPart is the fingerprint view's part of a page: its fingerprint
// slab, nothing else.
type fpPart struct {
	fps []deanon.Fingerprint
}

// ecoPart is the ecosystem view's part of a page: what
// analysis.Collector folds in.
type ecoPart struct {
	payments    []paymentRecord
	hops        []uint8
	offerOwners []addr.AccountID
	failed      int
}

// bytes is what the part holds alive: its header and its slices.
func (p *fpPart) bytes() int64 {
	return int64(unsafe.Sizeof(*p)) + int64(len(p.fps))*int64(unsafe.Sizeof(deanon.Fingerprint(0)))
}

func (p *ecoPart) bytes() int64 {
	return int64(unsafe.Sizeof(*p)) +
		int64(len(p.payments))*int64(unsafe.Sizeof(paymentRecord{})) +
		int64(len(p.hops)) +
		int64(len(p.offerOwners))*int64(unsafe.Sizeof(addr.AccountID{}))
}

// chunkBytes is the size of one chunk slab, of any kind: a size class
// of the allocator, so a chunk wastes no span space, and small enough
// that a page's parts strand little of it.
const chunkBytes = 8 << 10

// slab hands out exact-length slices of one chunk of T until it runs
// out, then starts the next chunk. A carve longer than a chunk gets an
// exact allocation of its own.
type slab[T any] struct{ free []T }

// carve returns n elements of the slab; chunked false allocates exactly
// n (the single-event path).
func (s *slab[T]) carve(n int, chunked bool) []T {
	if n == 0 {
		return nil
	}
	if n > len(s.free) {
		per := chunkBytes / int(unsafe.Sizeof(*new(T)))
		if !chunked || n > per {
			return make([]T, n)
		}
		s.free = make([]T, per)
	}
	out := s.free[:n:n]
	s.free = s.free[n:]
	return out
}

// copyOf carves len(src) elements and copies src into them.
func (s *slab[T]) copyOf(src []T, chunked bool) []T {
	out := s.carve(len(src), chunked)
	copy(out, src)
	return out
}

// partArena is one producer's chunk slabs, a slab per kind, so a chunk
// only ever holds data of the view it feeds. Not safe for concurrent
// use; the zero value carves exact-size parts with no chunk.
type partArena struct {
	chunked  bool
	fpParts  slab[fpPart]
	ecoParts slab[ecoPart]
	fps      slab[deanon.Fingerprint]
	payments slab[paymentRecord]
	hops     slab[uint8]
	owners   slab[addr.AccountID]
}

// carve copies a projected record into the two parts the page views
// own.
func (a *partArena) carve(rec *pageRecord) (*fpPart, *ecoPart) {
	fp := &a.fpParts.carve(1, a.chunked)[0]
	fp.fps = a.fps.copyOf(rec.fps, a.chunked)
	eco := &a.ecoParts.carve(1, a.chunked)[0]
	eco.payments = a.payments.copyOf(rec.payments, a.chunked)
	eco.hops = a.hops.copyOf(rec.hops, a.chunked)
	eco.offerOwners = a.owners.copyOf(rec.offerOwners, a.chunked)
	eco.failed = rec.failed
	return fp, eco
}

// scratchPool holds the scratch records of the single-page ingest paths
// (IngestEvent, IngestPage), which have no producer of their own.
var scratchPool = sync.Pool{New: func() any { return new(pageRecord) }}

// projector turns pages into pageRecords. The plan is the fingerprint
// view's compiled resolution list, shared so the fingerprints computed
// here land in the study's row order. A projector is immutable and safe
// for concurrent use (parallel backfill workers project concurrently).
type projector struct {
	plan   *deanon.FingerprintPlan
	fpRows int
}

func newProjector(plan *deanon.FingerprintPlan) *projector {
	return &projector{plan: plan, fpRows: plan.Rows()}
}

// addPayment appends one successful payment and its fingerprints.
func (pr *projector) addPayment(rec *pageRecord, sender, dest addr.AccountID, cur amount.Currency, v amount.Value, pathHops []uint8) {
	rec.payments = append(rec.payments, paymentRecord{
		sender:   sender,
		dest:     dest,
		currency: cur,
		value:    v,
		hopsOff:  int32(len(rec.hops)),
		hopsLen:  int32(len(pathHops)),
	})
	rec.hops = append(rec.hops, pathHops...)
	f := deanon.Features{
		Sender:      sender,
		Destination: dest,
		Currency:    cur,
		Amount:      v,
		Time:        rec.time,
	}
	var enc deanon.FeatureEnc
	deanon.EncodeFeaturesTo(&enc, &f)
	rec.fps = enc.AppendFingerprints(pr.plan, rec.fps)
}

// fromPage projects a decoded page into rec, replacing its contents.
func (pr *projector) fromPage(p *ledger.Page, rec *pageRecord) {
	rec.reset(p.Header.Sequence, p.Header.CloseTime)
	for i, tx := range p.Txs {
		meta := p.Metas[i]
		switch tx.Type {
		case ledger.TxOfferCreate:
			if meta.Result.Succeeded() {
				rec.offerOwners = append(rec.offerOwners, tx.Account)
			}
		case ledger.TxPayment:
			if !meta.Result.Succeeded() {
				rec.failed++
				continue
			}
			pr.addPayment(rec, tx.Account, tx.Destination, tx.Amount.Currency, tx.Amount.Value, meta.PathHops)
		}
	}
}

// fromPayload projects a canonical page encoding into rec, replacing
// its contents, in place via ledger.TxIter, never materializing a
// *ledger.Page (the stack-owned iterator keeps the walk allocation-free
// once rec has grown to the page's size). Framing is fully validated
// (count, record lengths, codec version, no trailing bytes) and payment
// amounts get the full decoder's value validation; field contents of
// non-payment transactions are not inspected. The result is identical
// to fromPage over the page ledger.DecodePageInto decodes.
func (pr *projector) fromPayload(payload []byte, rec *pageRecord) error {
	var it ledger.TxIter
	if err := it.Init(payload); err != nil {
		return err
	}
	rec.reset(it.Hdr.Sequence, it.Hdr.CloseTime)
	for {
		v, err := it.Next()
		if err != nil {
			return err
		}
		if v == nil {
			break
		}
		switch v.Type() {
		case ledger.TxOfferCreate:
			if v.Result().Succeeded() {
				rec.offerOwners = append(rec.offerOwners, v.Account())
			}
		case ledger.TxPayment:
			if !v.Result().Succeeded() {
				rec.failed++
				continue
			}
			val, err := v.AmountValue()
			if err != nil {
				return err
			}
			pr.addPayment(rec, v.Account(), v.Destination(), v.Currency(), val, v.PathHops())
		}
	}
	if used := it.Used(); used != len(payload) {
		return fmt.Errorf("serve: %d trailing bytes after page %d", len(payload)-used, rec.seq)
	}
	return nil
}
