package serve

import (
	"ripplestudy/internal/deanon"
)

// fingerprintState is the mutable Figure 3 / Table I view: the
// fingerprint count tables for the paper's ten resolution tuples,
// maintained incrementally by a deanon.ShardedIncStudy — K count shards
// routed by fingerprint high bits, each owned by one goroutine — so both
// the information-gain rows and individual sender-uniqueness lookups
// stay O(1) at any point of the stream.
//
// The fingerprints themselves are computed upstream, once per payment,
// by the projection front door (project.go) through the study's shared
// plan, and reach the view as each page's fpPart; apply only routes
// them. Sealing is epoch-consistent scatter-gather: the study flushes
// and barriers every shard that changed, then copies only the table
// pages written since the previous seal, sharing the rest, so Lookup and
// the Figure 3 rows are bit-identical to a batch deanon.Study over the
// same pages at any shard count.
type fingerprintState struct {
	study *deanon.ShardedIncStudy
	rows  int
	// lastSealPayments is the study size the previous seal covered;
	// sealDue compares against it.
	lastSealPayments int
}

// newFingerprintState builds the view with the requested shard count
// (rounded up to a power of two; <= 0 picks the machine default).
func newFingerprintState(shards int) *fingerprintState {
	bits := deanon.DefaultShardBits()
	if shards > 0 {
		bits = deanon.ShardBitsFor(shards)
	}
	return &fingerprintState{
		study: deanon.NewShardedIncStudy(deanon.Figure3Rows, bits),
		rows:  len(deanon.Figure3Rows),
	}
}

// plan exposes the study's compiled fingerprint plan for the projection
// front door.
func (f *fingerprintState) plan() *deanon.FingerprintPlan { return f.study.Plan() }

// shards reports the count-shard fan-out, for metrics.
func (f *fingerprintState) shards() int { return f.study.Shards() }

// apply folds one page's fingerprint part in: the part holds rows
// fingerprints per payment, already in the study's row order.
func (f *fingerprintState) apply(p *fpPart) {
	for off := 0; off < len(p.fps); off += f.rows {
		f.study.ObserveFingerprints(p.fps[off : off+f.rows])
	}
}

// sealDue is the view's batch-boundary publish-cost gate. A seal copies
// only the table pages written since the previous one, which is cheap
// for the few increments between two paced closes; but under a firehose
// uniform fingerprints dirty every page between two seals (and growth
// forces whole copies), so a seal there is O(distinct fingerprints), not
// O(batch). Requiring the study to double since the previous seal spaces
// those publishes geometrically, so a backfill still surfaces mid-stream
// epochs while the gated seals together copy at most about 2× the final
// tables, and the ungated seal that ends a Drain at most 1× more:
// deanon.TestSealCopyTrafficBounded holds the sum to ≤ 3× the final
// CountBytes. The bound holds because every study's tables start at the
// minimum and double as they fill, so each seal copies a table whose
// size tracks the payments ingested so far, not one grown by an earlier
// study. Dry-inbox seals bypass this gate: once the inbox runs dry the
// view publishes after waiting as long as its previous seal took (at
// once while a Drain waits), so idle epochs stay fresh.
func (f *fingerprintState) sealDue() bool {
	return f.study.Payments() >= 2*f.lastSealPayments
}

// snapshot seals the study as an immutable FingerprintSnapshot. The seal
// copies only the pages written since the last one; unchanged shards,
// tables and pages are shared with the previous snapshot.
func (f *fingerprintState) snapshot(epoch, appliedSeq uint64) *FingerprintSnapshot {
	// This runs on the view's goroutine, the study's only producer, so
	// nothing observes while the study flushes.
	snap := f.study.Seal()
	f.lastSealPayments = snap.Payments()
	return &FingerprintSnapshot{
		Epoch:      epoch,
		AppliedSeq: appliedSeq,
		Payments:   snap.Payments(),
		Rows:       snap.Results(),
		study:      snap,
	}
}

// close stops the study's shard workers. Snapshots stay valid.
func (f *fingerprintState) close() { f.study.Close() }

// FingerprintSnapshot is one sealed epoch of the de-anonymization view.
type FingerprintSnapshot struct {
	// Epoch identifies the publish this snapshot came from.
	Epoch uint64 `json:"epoch"`
	// AppliedSeq is the highest ledger sequence folded in.
	AppliedSeq uint64 `json:"applied_seq"`
	// Payments is the number of observable payments fingerprinted.
	Payments int `json:"payments"`
	// Rows holds the Figure 3 information-gain rows.
	Rows []deanon.RowResult `json:"rows"`

	// study is the sealed shard snapshot answering lookups; read-only.
	study *deanon.IncSnapshot
}

// Lookup reports how many payments in this snapshot share the
// observation's fingerprint at Figure 3 resolution row — 0 never seen,
// 1 unique (the sender is de-anonymized), 2 ambiguous (≥2). O(1).
func (s *FingerprintSnapshot) Lookup(row int, f deanon.Features) (count uint8, ok bool) {
	if row < 0 || row >= len(s.Rows) {
		return 0, false
	}
	return s.study.Lookup(row, f), true
}

// Resolutions returns the snapshot's resolution rows.
func (s *FingerprintSnapshot) Resolutions() []deanon.Resolution {
	return s.study.Resolutions()
}

// CountBytes reports the sealed tables' resident footprint.
func (s *FingerprintSnapshot) CountBytes() int { return s.study.CountBytes() }
