package serve

import (
	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
)

// tallyState is the mutable Figure 2 view: per-validator total/valid
// page counts maintained incrementally from the validation stream.
//
// The batch pipeline (monitor.Collector) retains every validation and
// recomputes valid counts at Report time — O(validations) per report.
// Here a close event retroactively credits the validators that already
// signed the page (the pending index), and a validation of an
// already-valid page credits immediately, so the per-validator counters
// are always current and a snapshot is O(validators).
type tallyState struct {
	totals  map[addr.NodeID]int
	valids  map[addr.NodeID]int
	badSigs map[addr.NodeID]int
	// pending maps a page hash to the validators that signed it before
	// it was announced valid (one entry per validation, duplicates
	// kept, matching the batch semantics).
	pending    map[ledger.Hash][]addr.NodeID
	validPages map[ledger.Hash]bool
	events     int
	malformed  int

	labels map[addr.NodeID]string
	// names memoizes the short node IDs of unlabelled validators, so a
	// snapshot base58-encodes each validator once, not once per seal.
	names map[addr.NodeID]string
}

func newTallyState(labels map[addr.NodeID]string) *tallyState {
	return &tallyState{
		totals:     make(map[addr.NodeID]int),
		valids:     make(map[addr.NodeID]int),
		badSigs:    make(map[addr.NodeID]int),
		pending:    make(map[ledger.Hash][]addr.NodeID),
		validPages: make(map[ledger.Hash]bool),
		labels:     labels,
		names:      make(map[addr.NodeID]string),
	}
}

// apply folds one stream event in, with the same malformed-event
// quarantine rules as monitor.Collector.Record.
func (t *tallyState) apply(ev consensus.Event) {
	switch ev.Kind {
	case consensus.EventValidation:
		if ev.LedgerHash.IsZero() || ev.Node == (addr.NodeID{}) {
			t.malformed++
			return
		}
		t.events++
		t.totals[ev.Node]++
		if t.validPages[ev.LedgerHash] {
			t.valids[ev.Node]++
		} else {
			t.pending[ev.LedgerHash] = append(t.pending[ev.LedgerHash], ev.Node)
		}
		if len(ev.Signature) > 0 && !addr.Verify(ev.Node.PublicKey(), ev.LedgerHash[:], ev.Signature) {
			t.badSigs[ev.Node]++
		}
	case consensus.EventLedgerClosed:
		if ev.LedgerHash.IsZero() {
			t.malformed++
			return
		}
		t.events++
		if !t.validPages[ev.LedgerHash] {
			t.validPages[ev.LedgerHash] = true
			for _, node := range t.pending[ev.LedgerHash] {
				t.valids[node]++
			}
			delete(t.pending, ev.LedgerHash)
		}
	case consensus.EventProposal:
		if ev.Seq == 0 || len(ev.TxHashes) == 0 {
			t.malformed++
			return
		}
		t.events++
	default:
		t.malformed++
	}
}

// displayName is the validator's configured label, or else its short
// node ID.
func (t *tallyState) displayName(node addr.NodeID) string {
	if l := t.labels[node]; l != "" {
		return l
	}
	name, ok := t.names[node]
	if !ok {
		name = node.Short()
		t.names[node] = name
	}
	return name
}

// snapshot seals the counters into one immutable TallySnapshot.
func (t *tallyState) snapshot(epoch, appliedSeq uint64) *TallySnapshot {
	stats := make([]monitor.ValidatorStats, 0, len(t.totals))
	for node, total := range t.totals {
		stats = append(stats, monitor.ValidatorStats{
			Node:          node,
			Label:         t.displayName(node),
			Total:         total,
			Valid:         t.valids[node],
			BadSignatures: t.badSigs[node],
		})
	}
	monitor.SortStats(stats)
	return &TallySnapshot{
		Epoch:      epoch,
		AppliedSeq: appliedSeq,
		Rounds:     len(t.validPages),
		Events:     t.events,
		Malformed:  t.malformed,
		Validators: stats,
	}
}

// TallySnapshot is one sealed epoch of the Figure 2 view.
type TallySnapshot struct {
	// Epoch identifies the publish this snapshot came from; it keys the
	// HTTP response cache.
	Epoch uint64 `json:"epoch"`
	// AppliedSeq is the highest ledger sequence folded in.
	AppliedSeq uint64 `json:"applied_seq"`
	// Rounds is the number of distinct validated pages observed.
	Rounds int `json:"rounds"`
	// Events and Malformed count well-formed and quarantined events.
	Events    int `json:"events"`
	Malformed int `json:"malformed"`
	// Validators holds the per-validator tallies in the paper's
	// presentation order.
	Validators []monitor.ValidatorStats `json:"validators"`
}

// Report converts the snapshot to the batch pipeline's report type, so
// existing consumers (tables, comparisons) work unchanged.
func (s *TallySnapshot) Report(period string) monitor.Report {
	return monitor.Report{Period: period, Rounds: s.Rounds, Validators: s.Validators}
}
