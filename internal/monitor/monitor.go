// Package monitor implements the paper's §IV analysis pipeline: it
// consumes a validation stream, infers "the validators operating during
// the collection periods ..., their public keys, and the pages signed by
// each of them", matches signed pages against the fully validated main
// ledger, and produces the per-validator total-vs-valid report plotted in
// Figure 2.
package monitor

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
)

// Collector accumulates stream events for one collection period. It is
// not safe for concurrent use; wrap calls if the stream is concurrent.
type Collector struct {
	validations map[addr.NodeID][]ledger.Hash
	validPages  map[ledger.Hash]bool
	labels      map[addr.NodeID]string
	sigBad      map[addr.NodeID]int
	events      int
	malformed   int
	detector    *Detector
}

// NewCollector creates an empty collector with a default-configured
// fork/equivocation detector attached.
func NewCollector() *Collector {
	return &Collector{
		validations: make(map[addr.NodeID][]ledger.Hash),
		validPages:  make(map[ledger.Hash]bool),
		labels:      make(map[addr.NodeID]string),
		sigBad:      make(map[addr.NodeID]int),
		detector:    NewDetector(DetectorConfig{}),
	}
}

// ConfigureDetector replaces the attached detector. Call before
// recording any events; findings do not carry over.
func (c *Collector) ConfigureDetector(cfg DetectorConfig) { c.detector = NewDetector(cfg) }

// Detector exposes the attached fork/equivocation detector.
func (c *Collector) Detector() *Detector { return c.detector }

// SetLabel associates a public identity (internet domain) with a node.
// Nodes without labels display their truncated public key, as in the
// paper.
func (c *Collector) SetLabel(node addr.NodeID, label string) { c.labels[node] = label }

// Record processes one stream event. Malformed events — an unknown
// kind, a zero page hash, or a validation without a signer — are
// counted and skipped rather than poisoning the collection: over a
// two-week window the stream will deliver garbage eventually, and one
// bad event must not abort or skew the whole period. Exact duplicates
// (a replay of an already-recorded broadcast) are dropped before the
// totals, and every well-formed event additionally feeds the attached
// fork/equivocation detector.
func (c *Collector) Record(ev consensus.Event) {
	switch ev.Kind {
	case consensus.EventValidation:
		if ev.LedgerHash.IsZero() || ev.Node == (addr.NodeID{}) {
			c.malformed++
			return
		}
		if c.detector.duplicate(ev) {
			return
		}
		c.events++
		c.validations[ev.Node] = append(c.validations[ev.Node], ev.LedgerHash)
		if len(ev.Signature) > 0 && !addr.Verify(ev.Node.PublicKey(), ev.LedgerHash[:], ev.Signature) {
			c.sigBad[ev.Node]++
		}
		c.detector.observeValidation(ev)
	case consensus.EventLedgerClosed:
		if ev.LedgerHash.IsZero() {
			c.malformed++
			return
		}
		if c.detector.duplicate(ev) {
			return
		}
		c.events++
		c.validPages[ev.LedgerHash] = true
		c.detector.observeClose(ev)
	case consensus.EventProposal:
		if ev.Seq == 0 || len(ev.TxHashes) == 0 {
			c.malformed++
			return
		}
		if c.detector.duplicate(ev) {
			return
		}
		c.events++
		c.detector.observeProposal(ev)
	default:
		c.malformed++
	}
}

// Events returns the number of well-formed events recorded.
func (c *Collector) Events() int { return c.events }

// Malformed returns how many events Record skipped as malformed.
func (c *Collector) Malformed() int { return c.malformed }

// ValidatorStats is one bar pair of Figure 2: the pages a validator
// signed in the window and how many of those ended up in the main
// ledger.
type ValidatorStats struct {
	Node  addr.NodeID
	Label string // domain, or truncated key when unidentified
	Total int    // pages signed
	Valid int    // signed pages that are on the validated main chain
	// BadSignatures counts validations whose signature failed to verify
	// (zero in honest runs; failure-injection tests exercise it).
	BadSignatures int
}

// ValidFraction is Valid/Total (zero when nothing was signed).
func (s ValidatorStats) ValidFraction() float64 {
	if s.Total == 0 {
		return 0
	}
	return float64(s.Valid) / float64(s.Total)
}

// Class heuristically names the validator population the stats indicate,
// mirroring the paper's narrative: active contributors, laggards
// struggling to stay in sync, and validators on a different ledger.
func (s ValidatorStats) Class() string {
	switch {
	case s.Total == 0:
		return "silent"
	case s.ValidFraction() >= 0.5:
		return "active"
	case s.Valid == 0:
		return "fork-or-testnet"
	default:
		return "laggard"
	}
}

// Report is the Figure 2 dataset for one collection period.
type Report struct {
	Period     string
	Rounds     int // validated main-chain pages observed
	Validators []ValidatorStats
}

// Report builds the per-validator statistics, ordered as in the paper's
// figures: the Ripple Labs validators R1–R5 first, then the rest
// alphabetically by display label.
func (c *Collector) Report(period string) Report {
	stats := make([]ValidatorStats, 0, len(c.validations))
	for node, hashes := range c.validations {
		s := ValidatorStats{Node: node, Label: c.displayName(node), Total: len(hashes), BadSignatures: c.sigBad[node]}
		for _, h := range hashes {
			if c.validPages[h] {
				s.Valid++
			}
		}
		stats = append(stats, s)
	}
	SortStats(stats)
	return Report{Period: period, Rounds: len(c.validPages), Validators: stats}
}

// SortStats orders validator statistics as in the paper's figures: the
// Ripple Labs validators R1–R5 first, then the rest alphabetically by
// display label (node ID breaking ties). Shared by the batch Report and
// the live serving layer's incremental tally view.
func SortStats(stats []ValidatorStats) {
	sort.Slice(stats, func(i, j int) bool {
		ri, rj := isRippleLabs(stats[i].Label), isRippleLabs(stats[j].Label)
		if ri != rj {
			return ri
		}
		if stats[i].Label != stats[j].Label {
			return stats[i].Label < stats[j].Label
		}
		return stats[i].Node.String() < stats[j].Node.String()
	})
}

func (c *Collector) displayName(node addr.NodeID) string {
	if l, ok := c.labels[node]; ok && l != "" {
		return l
	}
	return node.Short()
}

func isRippleLabs(label string) bool {
	return len(label) == 2 && label[0] == 'R' && label[1] >= '1' && label[1] <= '5'
}

// ActiveCount returns how many validators have a valid-page count within
// `within` (a fraction, e.g. 0.5) of the busiest validator — the paper's
// notion of "a number of valid pages close to or comparable to those of
// R1–R5".
func (r Report) ActiveCount(within float64) int {
	max := 0
	for _, s := range r.Validators {
		if s.Valid > max {
			max = s.Valid
		}
	}
	if max == 0 {
		return 0
	}
	n := 0
	for _, s := range r.Validators {
		if float64(s.Valid) >= within*float64(max) {
			n++
		}
	}
	return n
}

// ZeroValidCount returns how many observed validators signed pages but
// none valid.
func (r Report) ZeroValidCount() int {
	n := 0
	for _, s := range r.Validators {
		if s.Total > 0 && s.Valid == 0 {
			n++
		}
	}
	return n
}

// ActiveNodes returns the node IDs of validators whose valid-page count
// is within `within` of the busiest — the period's active contributors.
func (r Report) ActiveNodes(within float64) map[addr.NodeID]bool {
	max := 0
	for _, s := range r.Validators {
		if s.Valid > max {
			max = s.Valid
		}
	}
	out := make(map[addr.NodeID]bool)
	if max == 0 {
		return out
	}
	for _, s := range r.Validators {
		if float64(s.Valid) >= within*float64(max) {
			out[s.Node] = true
		}
	}
	return out
}

// RecurringActives returns the validators that are active contributors
// in every report — the paper's churn measurement: "the three periods
// share only 9 (over a total of 70 validators seen) that appear in each
// of them as active contributors."
func RecurringActives(reports []Report, within float64) []addr.NodeID {
	if len(reports) == 0 {
		return nil
	}
	counts := make(map[addr.NodeID]int)
	for _, rep := range reports {
		for node := range rep.ActiveNodes(within) {
			counts[node]++
		}
	}
	var out []addr.NodeID
	for node, n := range counts {
		if n == len(reports) {
			out = append(out, node)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// TotalObserved returns the number of distinct validators seen across
// all reports (the paper's "over a total of 70 validators seen").
func TotalObserved(reports []Report) int {
	seen := make(map[addr.NodeID]bool)
	for _, rep := range reports {
		for _, s := range rep.Validators {
			seen[s.Node] = true
		}
	}
	return len(seen)
}

// WriteTable renders the report as the textual equivalent of a Figure 2
// panel.
func (r Report) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Figure 2 — %s (%d validated rounds observed)\n", r.Period, r.Rounds); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%-28s %10s %10s %7s  %s\n", "validator", "total", "valid", "v/t", "class"); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", 70)); err != nil {
		return err
	}
	for _, s := range r.Validators {
		if _, err := fmt.Fprintf(w, "%-28s %10d %10d %6.1f%%  %s\n",
			s.Label, s.Total, s.Valid, 100*s.ValidFraction(), s.Class()); err != nil {
			return err
		}
	}
	return nil
}

// CollectPeriod runs one collection period end to end in-process: it
// builds the consensus network from the spec, attaches a collector
// directly to the network's event feed, runs the rounds, and reports.
// The TCP path (netstream) is exercised by cmd/rippled-sim and
// cmd/consensus-monitor; analyses use this direct path.
func CollectPeriod(spec consensus.PeriodSpec, cfg consensus.Config, traffic func(round int) []*ledger.Tx) (Report, error) {
	cfg.StartTime = spec.Start
	net := consensus.NewNetwork(cfg, spec.Specs)
	col := NewCollector()
	for _, s := range spec.Specs {
		if s.Label != "" {
			node := addr.KeyPairFromSeed(s.Seed).NodeID()
			col.SetLabel(node, s.Label)
		}
	}
	net.Subscribe(col.Record)
	if _, err := net.Run(spec.Rounds, traffic); err != nil {
		return Report{}, fmt.Errorf("monitor: running %s: %w", spec.Name, err)
	}
	return col.Report(spec.Name), nil
}
