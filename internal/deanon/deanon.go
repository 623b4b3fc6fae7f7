// Package deanon implements the paper's transaction de-anonymization
// study (§V): given side-channel knowledge of a single payment — its
// amount A, timestamp T, currency C, and destination D, each possibly
// coarsened to a lower resolution — how often does that observation form
// a unique fingerprint across the whole ledger history, revealing the
// sender S?
//
// The package provides the Table I rounding process, fingerprint
// construction, the information-gain (IG) computation of Figure 3, and
// the attacker-side query API behind the paper's latte example.
package deanon

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// AmountRes is the resolution of the amount feature. The paper defines
// three rounding levels per currency-strength group (Table I); Off drops
// the feature entirely.
type AmountRes int

const (
	// AmountOff excludes the amount from the fingerprint.
	AmountOff AmountRes = iota
	// AmountMax rounds to the finest Table I level (e.g. closest ten for
	// USD, closest thousandth for BTC).
	AmountMax
	// AmountAvg rounds one decade coarser than AmountMax.
	AmountAvg
	// AmountLow rounds two decades coarser than AmountMax.
	AmountLow
	// AmountExact keeps the ledger's full precision. Figure 3 never uses
	// it (the paper's "maximum" is already rounded); the attacker API
	// accepts it for exact-knowledge scenarios.
	AmountExact
)

// String implements fmt.Stringer using the paper's subscripts.
func (a AmountRes) String() string {
	switch a {
	case AmountOff:
		return "-"
	case AmountMax:
		return "Am"
	case AmountAvg:
		return "Aa"
	case AmountLow:
		return "Al"
	case AmountExact:
		return "Aexact"
	default:
		return fmt.Sprintf("AmountRes(%d)", int(a))
	}
}

// TimeRes is the resolution of the timestamp feature: seconds, minutes,
// hours, or days, or Off.
type TimeRes int

const (
	// TimeOff excludes the timestamp.
	TimeOff TimeRes = iota
	// TimeSeconds keeps the ledger's second-level close time.
	TimeSeconds
	// TimeMinutes truncates to the minute.
	TimeMinutes
	// TimeHours truncates to the hour.
	TimeHours
	// TimeDays truncates to the day.
	TimeDays
)

// String implements fmt.Stringer using the paper's subscripts.
func (t TimeRes) String() string {
	switch t {
	case TimeOff:
		return "-"
	case TimeSeconds:
		return "Tsc"
	case TimeMinutes:
		return "Tmn"
	case TimeHours:
		return "Thr"
	case TimeDays:
		return "Tdy"
	default:
		return fmt.Sprintf("TimeRes(%d)", int(t))
	}
}

// Resolution is one row of Figure 3: which features enter the
// fingerprint and how coarsely.
type Resolution struct {
	Amount      AmountRes
	Time        TimeRes
	Currency    bool
	Destination bool
}

// String renders the paper's ⟨A;T;C;D⟩ notation.
func (r Resolution) String() string {
	c, d := "-", "-"
	if r.Currency {
		c = "C"
	}
	if r.Destination {
		d = "D"
	}
	return fmt.Sprintf("<%s;%s;%s;%s>", r.Amount, r.Time, c, d)
}

// tableIBase returns the AmountMax rounding exponent for a strength
// group, per Table I: powerful 10^-3, medium 10^1, weak 10^5.
func tableIBase(s amount.Strength) int {
	switch s {
	case amount.StrengthPowerful:
		return -3
	case amount.StrengthMedium:
		return 1
	default:
		return 5
	}
}

// RoundExponent returns the 10^x rounding exponent Table I prescribes
// for the currency at the given resolution.
func RoundExponent(c amount.Currency, res AmountRes) (int, bool) {
	base := tableIBase(amount.StrengthOf(c))
	switch res {
	case AmountMax:
		return base, true
	case AmountAvg:
		return base + 1, true
	case AmountLow:
		return base + 2, true
	default:
		return 0, false
	}
}

// RoundAmount applies the Table I rounding process: "a given resolution
// level rounds the original value to the corresponding closest 10^x
// value."
func RoundAmount(v amount.Value, c amount.Currency, res AmountRes) amount.Value {
	exp, ok := RoundExponent(c, res)
	if !ok {
		return v // AmountExact (or Off, whose value is unused)
	}
	return v.RoundToPow10(exp)
}

// CoarsenTime truncates a close time to the resolution's granularity,
// e.g. "2015-08-24 15:41:03" becomes "2015-08-24 00:00:00" at day level.
func CoarsenTime(t ledger.CloseTime, res TimeRes) ledger.CloseTime {
	switch res {
	case TimeSeconds:
		return t
	case TimeMinutes:
		return t - t%60
	case TimeHours:
		return t - t%3600
	case TimeDays:
		return t - t%86400
	default:
		return 0
	}
}

// Features are the observable fields of one payment, plus the sender
// ground truth the attacker wants to recover.
type Features struct {
	Sender      addr.AccountID
	Destination addr.AccountID
	Currency    amount.Currency
	Amount      amount.Value
	Time        ledger.CloseTime
}

// FromTransaction extracts features from a successful payment, reporting
// ok=false for non-payments and failed transactions (which never
// delivered and so were never observable at a point of sale).
func FromTransaction(p *ledger.Page, tx *ledger.Tx, meta *ledger.TxMeta) (Features, bool) {
	if tx.Type != ledger.TxPayment || !meta.Result.Succeeded() {
		return Features{}, false
	}
	return Features{
		Sender:      tx.Account,
		Destination: tx.Destination,
		Currency:    tx.Amount.Currency,
		Amount:      tx.Amount.Value,
		Time:        p.Header.CloseTime,
	}, true
}

// FromPaymentView extracts features from one payment of the zero-copy
// scan (ledger.ScanPayments), which projects exactly the payments
// FromTransaction accepts.
func FromPaymentView(pv *ledger.PaymentView) Features {
	return Features{
		Sender:      pv.Sender,
		Destination: pv.Destination,
		Currency:    pv.Currency,
		Amount:      pv.Amount,
		Time:        pv.Time,
	}
}

// Fingerprint is the 64-bit digest of a payment's resolved features.
// Hashing (FNV-1a) keeps the uniqueness-counting maps compact at
// multi-million-payment scale; at 23M payments the 64-bit collision
// probability is ~1e-5.
type Fingerprint uint64

// FingerprintOf computes the fingerprint of the observation under the
// resolution. It allocates nothing; studies that fingerprint one payment
// under many resolutions should go through EncodeFeatures instead, which
// rounds and serializes each feature once.
func FingerprintOf(f Features, res Resolution) Fingerprint {
	h := fnvOffset64
	if res.Amount != AmountOff {
		var chunk [amtChunkLen]byte
		encodeAmount(&chunk, RoundAmount(f.Amount, f.Currency, res.Amount))
		h = fnvBytes(h, chunk[:])
	}
	if res.Time != TimeOff {
		var chunk [timeChunkLen]byte
		chunk[0] = 'T'
		binary.BigEndian.PutUint64(chunk[1:], uint64(CoarsenTime(f.Time, res.Time)))
		h = fnvBytes(h, chunk[:])
	}
	if res.Currency {
		var chunk [curChunkLen]byte
		chunk[0] = 'C'
		copy(chunk[1:], f.Currency[:])
		h = fnvBytes(h, chunk[:])
	}
	if res.Destination {
		var chunk [dstChunkLen]byte
		chunk[0] = 'D'
		copy(chunk[1:], f.Destination[:])
		h = fnvBytes(h, chunk[:])
	}
	return Fingerprint(h)
}

// Figure3Rows are the ten resolution tuples of the paper's Figure 3, in
// presentation order. The paper's ⟨Ah,Tmn,C,D⟩ row uses an amount level
// between max and average that Table I does not define; following the
// table, it is evaluated at the max level (see EXPERIMENTS.md).
var Figure3Rows = []Resolution{
	{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true},
	{Amount: AmountMax, Time: TimeSeconds, Currency: false, Destination: true},
	{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: false},
	{Amount: AmountOff, Time: TimeSeconds, Currency: true, Destination: true},
	{Amount: AmountMax, Time: TimeMinutes, Currency: true, Destination: true},
	{Amount: AmountAvg, Time: TimeHours, Currency: true, Destination: true},
	{Amount: AmountLow, Time: TimeDays, Currency: true, Destination: true},
	{Amount: AmountMax, Time: TimeOff, Currency: true, Destination: true},
	{Amount: AmountMax, Time: TimeOff, Currency: false, Destination: false},
	{Amount: AmountLow, Time: TimeDays, Currency: false, Destination: false},
}

// Study streams payments once and computes, for each requested
// resolution, the information gain: "the percentage of Ripple
// transactions whose sender address field S can be uniquely identified."
type Study struct {
	resolutions []Resolution
	plan        *FingerprintPlan
	counts      []map[Fingerprint]uint32
	payments    int
	fps         []Fingerprint // per-payment scratch
}

// NewStudy prepares a study over the given resolutions.
func NewStudy(resolutions []Resolution) *Study {
	s := &Study{
		resolutions: resolutions,
		plan:        NewFingerprintPlan(resolutions),
		fps:         make([]Fingerprint, 0, len(resolutions)),
	}
	for range resolutions {
		s.counts = append(s.counts, make(map[Fingerprint]uint32))
	}
	return s
}

// Observe folds one payment into every resolution's fingerprint counts.
// The features are encoded once and fingerprinted for all resolutions in
// one planned pass over the shared encoding.
func (s *Study) Observe(f Features) {
	s.payments++
	enc := EncodeFeatures(f)
	s.fps = enc.AppendFingerprints(s.plan, s.fps[:0])
	for i := range s.resolutions {
		s.counts[i][s.fps[i]]++
	}
}

// Payments returns the number of observations folded in.
func (s *Study) Payments() int { return s.payments }

// RowResult is one bar of Figure 3.
type RowResult struct {
	Resolution Resolution
	// IG is the information gain: the fraction of payments with a
	// unique fingerprint, in [0, 1].
	IG float64
	// Unique and Total give the raw counts behind IG.
	Unique, Total int
}

// Results computes the IG for every resolution.
func (s *Study) Results() []RowResult {
	out := make([]RowResult, 0, len(s.resolutions))
	for i, res := range s.resolutions {
		unique := 0
		for _, c := range s.counts[i] {
			if c == 1 {
				unique++
			}
		}
		ig := 0.0
		if s.payments > 0 {
			ig = float64(unique) / float64(s.payments)
		}
		out = append(out, RowResult{Resolution: res, IG: ig, Unique: unique, Total: s.payments})
	}
	return out
}

// FeatureImportance quantifies each feature's isolated and marginal
// contribution to de-anonymization, substantiating the paper's claim
// that "T's information gain not only is higher than A's, but is also
// the highest among all the features."
type FeatureImportance struct {
	Feature string
	// Alone is the IG of a fingerprint containing only this feature at
	// full resolution.
	Alone float64
	// Dropped is the IG of the full fingerprint without this feature;
	// the gap to the full-fingerprint IG is the feature's marginal
	// value.
	Dropped float64
}

// importanceRows builds the 9 resolutions needed: full, 4 alone, 4
// dropped.
func importanceRows() []Resolution {
	full := Resolution{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true}
	return []Resolution{
		full,
		{Amount: AmountMax}, // A alone
		{Time: TimeSeconds}, // T alone
		{Currency: true},    // C alone
		{Destination: true}, // D alone
		{Time: TimeSeconds, Currency: true, Destination: true},    // drop A
		{Amount: AmountMax, Currency: true, Destination: true},    // drop T
		{Amount: AmountMax, Time: TimeSeconds, Destination: true}, // drop C
		{Amount: AmountMax, Time: TimeSeconds, Currency: true},    // drop D
	}
}

// ImportanceStudy computes per-feature importance over one stream of
// payments on a sharded ParallelStudy. Feed it through Observe (single
// producer) or by attaching Feeders to Parallel(); read it with Results.
type ImportanceStudy struct {
	study *ParallelStudy
}

// NewImportanceStudy prepares the 9-resolution study with 1<<shardBits
// counting shards. Close must be called after the last Results read.
func NewImportanceStudy(shardBits int) *ImportanceStudy {
	return &ImportanceStudy{study: NewParallelStudy(importanceRows(), shardBits)}
}

// Parallel returns the underlying ParallelStudy.
func (s *ImportanceStudy) Parallel() *ParallelStudy { return s.study }

// Observe folds one payment in.
func (s *ImportanceStudy) Observe(f Features) { s.study.Observe(f) }

// Close stops the study's shard workers and drops its count tables (see
// ParallelStudy.Close). Call after the last Results read.
func (s *ImportanceStudy) Close() { s.study.Close() }

// FullIG returns the full-fingerprint information gain.
func (s *ImportanceStudy) FullIG() float64 { return s.study.Results()[0].IG }

// Results returns the per-feature breakdown, strongest first by marginal
// value (full-IG − dropped-IG).
func (s *ImportanceStudy) Results() []FeatureImportance {
	return importanceOf(s.study.Results())
}

// importanceOf reads the per-feature breakdown off the importanceRows
// results.
func importanceOf(rows []RowResult) []FeatureImportance {
	names := []string{"amount", "timestamp", "currency", "destination"}
	out := make([]FeatureImportance, 0, 4)
	for i, name := range names {
		out = append(out, FeatureImportance{
			Feature: name,
			Alone:   rows[1+i].IG,
			Dropped: rows[5+i].IG,
		})
	}
	full := rows[0].IG
	sortByMarginal(out, full)
	return out
}

func sortByMarginal(rows []FeatureImportance, full float64) {
	sort.SliceStable(rows, func(i, j int) bool {
		return full-rows[i].Dropped > full-rows[j].Dropped
	})
}

// Index is the attacker's lookup structure for one resolution: from a
// (possibly coarse) observation to the candidate senders. This is what
// Alice builds from the public ledger before overhearing Bob's latte
// purchase.
type Index struct {
	res     Resolution
	senders map[Fingerprint]*candidateSet
}

// candidateSet keeps a fingerprint's candidate senders in first-seen
// order. Small sets dedupe by linear scan; once a fingerprint turns hot
// (e.g. the MTL spam cluster collapsing millions of payments onto a few
// fingerprints) a membership map takes over, keeping Add O(1) instead
// of O(n) per payment — O(n²) over the cluster.
type candidateSet struct {
	list []addr.AccountID
	seen map[addr.AccountID]struct{} // nil until len(list) > candidateScanMax
}

// candidateScanMax is the largest candidate list deduped by linear scan.
const candidateScanMax = 8

func (c *candidateSet) add(s addr.AccountID) {
	if c.seen == nil {
		for _, have := range c.list {
			if have == s {
				return
			}
		}
		c.list = append(c.list, s)
		if len(c.list) > candidateScanMax {
			c.seen = make(map[addr.AccountID]struct{}, 2*len(c.list))
			for _, have := range c.list {
				c.seen[have] = struct{}{}
			}
		}
		return
	}
	if _, ok := c.seen[s]; ok {
		return
	}
	c.seen[s] = struct{}{}
	c.list = append(c.list, s)
}

// NewIndex creates an empty index at the given resolution.
func NewIndex(res Resolution) *Index {
	return &Index{res: res, senders: make(map[Fingerprint]*candidateSet)}
}

// Add indexes one payment.
func (idx *Index) Add(f Features) {
	fp := FingerprintOf(f, idx.res)
	set := idx.senders[fp]
	if set == nil {
		set = &candidateSet{}
		idx.senders[fp] = set
	}
	set.add(f.Sender)
}

// Candidates returns the senders consistent with the observation, in
// first-indexed order. A single candidate is a successful
// de-anonymization; the sender field of the observation is ignored.
func (idx *Index) Candidates(f Features) []addr.AccountID {
	set := idx.senders[FingerprintOf(f, idx.res)]
	if set == nil {
		return nil
	}
	return set.list
}

// Resolution returns the index's resolution.
func (idx *Index) Resolution() Resolution { return idx.res }

// TableISpec renders the Table I rounding specification, one row per
// strength group, for the experiment harness.
func TableISpec() []string {
	type row struct {
		name string
		s    amount.Strength
	}
	rows := []row{
		{"Powerful (BTC, XAG, XAU, XPT)", amount.StrengthPowerful},
		{"Medium (CNY, EUR, USD, AUD, GBP, JPY)", amount.StrengthMedium},
		{"Weak (XRP, CCK, STR, KRW, MTL)", amount.StrengthWeak},
	}
	out := make([]string, 0, len(rows))
	for _, r := range rows {
		base := tableIBase(r.s)
		out = append(out, fmt.Sprintf("%-40s max 10^%-3d avg 10^%-3d low 10^%d",
			r.name, base, base+1, base+2))
	}
	return out
}
