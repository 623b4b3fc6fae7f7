package serve

import (
	"fmt"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
)

// This file is the ingest front door: every page is projected exactly
// once — at ingest time, on the producer's goroutine — into a compact,
// owned pageRecord slab carrying everything the page views consume.
// The views stop re-walking the canonical page encoding per worker;
// the fingerprint view even stops hashing, because the record already
// holds the per-resolution fingerprints (deanon.FeatureEnc encoded
// once per payment, combined per row through the shared plan).
//
// Records are owned (they alias nothing), so ingest is free to read
// pages from zero-copy sources — mmap'd record payloads via
// ledgerstore.PayloadsParallel, arena-decoded pages — without
// violating their valid-only-inside-the-callback contracts.

// paymentRecord is one successful payment, projected.
type paymentRecord struct {
	sender   addr.AccountID
	dest     addr.AccountID
	currency amount.Currency
	value    amount.Value
	hopsOff  int32 // into pageRecord.hops
	hopsLen  int32 // parallel-path count
}

// pageRecord is one projected page: the page-level stats plus the
// per-payment slabs. All slices are owned; nothing aliases the source
// encoding. Views only read a record, and it is garbage once both page
// views have applied it: records are not pooled, because a pool keeps a
// whole pass's records alive through the next collection (see
// EXPERIMENTS "Fingerprints at the multiplier's pace").
type pageRecord struct {
	seq  uint64
	time ledger.CloseTime

	payments    []paymentRecord
	hops        []uint8              // per-path hop counts, all payments
	fps         []deanon.Fingerprint // fpRows per payment, payment order
	offerOwners []addr.AccountID     // successful OfferCreate senders
	failed      int                  // failed payment transactions
}

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

// fromPage projects a decoded page.
func (pr *projector) fromPage(p *ledger.Page, rec *pageRecord) {
	rec.seq = p.Header.Sequence
	rec.time = p.Header.CloseTime
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

// fromPayload projects a canonical page encoding in place via
// ledger.TxIter, never materializing a *ledger.Page (the stack-owned
// iterator keeps the walk allocation-free). Framing is fully validated
// (count, record lengths, codec version, no trailing bytes) and payment
// amounts get the full decoder's value validation; field contents of
// non-payment transactions are not inspected. The result is identical
// to fromPage over the DecodePage'd equivalent.
func (pr *projector) fromPayload(payload []byte, rec *pageRecord) error {
	var it ledger.TxIter
	if err := it.Init(payload); err != nil {
		return err
	}
	rec.seq = it.Hdr.Sequence
	rec.time = it.Hdr.CloseTime
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
