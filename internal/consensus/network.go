package consensus

import (
	"fmt"
	"math/rand"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/payment"
)

// Config parameterizes a consensus network.
type Config struct {
	// Thresholds is the rising agreement schedule of the proposal
	// phase. rippled raises the required majority across proposal
	// iterations; the analyses of the protocol ([7], [8] in the paper)
	// led to the current 80% final quorum.
	Thresholds []float64
	// ValidationQuorum is the fraction of the trusted list whose
	// signatures make a page fully validated (0.8 in Ripple).
	ValidationQuorum float64
	// TxDropRate is the probability that a candidate transaction fails
	// to reach one validator before proposals start (network
	// propagation loss) — the source of disputes.
	TxDropRate float64
	// CloseInterval is the simulated wall-clock time between ledger
	// closes ("paying someone ... takes, on average, from 5 to 10
	// seconds").
	CloseInterval time.Duration
	// Seed drives all randomness in the simulation.
	Seed int64
	// StartTime anchors the simulated clock.
	StartTime time.Time
	// StreamPages attaches the canonical encoding of each validated
	// page to its EventLedgerClosed event, so stream consumers can
	// materialize transaction-level views without a separate ledger
	// fetch path.
	StreamPages bool
	// StreamProposals publishes, per round, one aggregate EventProposal
	// carrying the candidate transaction-set hashes plus one
	// per-validator EventProposal (Node set) for every proposer's initial
	// transaction set, and attaches the agreed tx hashes to each
	// ledger-close event. The aggregate event tells a monitor a tx was in
	// play; the per-validator events let it tell targeted censorship (one
	// node omits a tx its peers propose) apart from global starvation (a
	// liveness failure where nobody's proposal closes). Off by default so
	// the benign stream stays byte-identical to the pre-attack pipeline.
	StreamProposals bool
	// Partition, when non-nil, models the sub-bound UNL-overlap attack:
	// the trusted quorum members split into two groups sharing Overlap
	// of their UNLs, and in split rounds each group validates its own
	// page. Below the 2(1−q) overlap bound both sides can reach quorum —
	// a committed fork the collection pipeline must notice.
	Partition *PartitionSpec
	// PropagationDelay is the modeled one-hop message latency used for
	// the per-round latency metric (default 150ms). It does not slow the
	// simulation down; it prices each proposal iteration and the
	// validation broadcast, the SISSLE round-latency axis.
	PropagationDelay time.Duration
	// AttackSeed drives all adversarial randomness (partition coin
	// flips) separately from Seed, so enabling an attack never perturbs
	// the benign population's random draws. Zero derives it from Seed.
	AttackSeed int64
}

// PartitionSpec configures the sub-bound overlap split.
type PartitionSpec struct {
	// Overlap is the fraction of each group's UNL shared with the other
	// (forks are feasible iff Overlap <= 2(1-quorum); see ForkFeasible).
	Overlap float64
	// SplitRate is the per-round probability that a dispute splits the
	// groups onto different pages (default 1: every round splits).
	SplitRate float64
}

// DefaultConfig returns the production-like parameters.
func DefaultConfig() Config {
	return Config{
		Thresholds:       []float64{0.5, 0.65, 0.7, 0.95},
		ValidationQuorum: 0.8,
		TxDropRate:       0.02,
		CloseInterval:    5 * time.Second,
		Seed:             1,
		StartTime:        time.Date(2015, 12, 1, 0, 0, 0, 0, time.UTC),
	}
}

// EventKind discriminates stream events.
type EventKind int

const (
	// EventValidation is one validator's signed validation of a page.
	EventValidation EventKind = iota + 1
	// EventLedgerClosed announces a fully validated main-chain page.
	EventLedgerClosed
	// EventProposal announces a candidate transaction set entering a
	// consensus round (emitted only with Config.StreamProposals): the
	// round's aggregate set (Node unset), then each proposer's initial
	// set (Node set). A monitor correlates proposals against closes to
	// spot censorship, and diffs the per-validator sets to tell a
	// targeted censor from a global liveness starvation.
	EventProposal
)

// Event is one entry of the validation stream — the data source the
// paper's collection server subscribed to.
type Event struct {
	Kind EventKind `json:"kind"`
	// StreamSeq is the event's position in the emitting network's
	// stream, assigned monotonically from 1. It lets collectors detect
	// gaps, deduplicate replays after a reconnect, and resume a broken
	// subscription from the last event they saw.
	StreamSeq uint64 `json:"stream_seq,omitempty"`
	// Seq is the ledger sequence the event refers to.
	Seq uint64 `json:"seq"`
	// LedgerHash is the page hash signed (validations) or committed
	// (closes).
	LedgerHash ledger.Hash `json:"ledger_hash"`
	// Node identifies the signing validator; it is the zero key on
	// closes and aggregate proposals. It is on the wire either way, as
	// the base58 of those 33 zero bytes: encoding/json never omits an
	// array, and this field used to carry an omitempty that did nothing.
	Node addr.NodeID `json:"node"`
	// Signature is the validator's signature over the page hash.
	Signature []byte `json:"signature,omitempty"`
	// Time is the simulated time of the event.
	Time time.Time `json:"time"`
	// TxCount is the number of transactions sealed (closes only).
	TxCount int `json:"tx_count,omitempty"`
	// PageData is the canonical encoding of the sealed page, attached
	// to EventLedgerClosed when the network runs with StreamPages —
	// the rippled "ledger stream with transactions" a live analytics
	// consumer (internal/serve) materializes views from. Empty for
	// validation events and metadata-only streams.
	PageData []byte `json:"page_data,omitempty"`
	// TxHashes carries, with Config.StreamProposals, the candidate
	// transaction hashes of an EventProposal or the agreed hashes of an
	// EventLedgerClosed — the censorship-detection signal. Empty
	// otherwise, keeping the default wire encoding unchanged.
	TxHashes []ledger.Hash `json:"tx_hashes,omitempty"`
}

// RoundResult summarizes one consensus round.
type RoundResult struct {
	Page          *ledger.Page
	Validated     bool
	Validations   int // signatures matching the canonical page
	ProposalIters int
	Deferred      []*ledger.Tx // transactions that failed to converge

	// Messages counts the protocol messages the round cost: each
	// proposal iteration is a full proposer-to-proposer broadcast, and
	// each validation or close is broadcast to every present node — the
	// SISSLE message-complexity axis.
	Messages int
	// ProposalMsgs and ValidationMsgs break Messages down by phase.
	ProposalMsgs   int
	ValidationMsgs int
	// Latency is the modeled wall-clock cost of the round: one
	// PropagationDelay per proposal iteration plus one for the
	// validation broadcast. Delayed proposers stretch it by forcing
	// extra iterations before convergence.
	Latency time.Duration

	// CensoredTxs counts candidate transactions a censor validator
	// vetoed out of the agreed set this round.
	CensoredTxs int
	// ForkCommitted marks a partitioned round in which both groups
	// reached their internal quorum on different pages; ForkHash is the
	// rival page's hash (the canonical page stays in Page).
	ForkCommitted bool
	ForkHash      ledger.Hash
}

// Network simulates the validator network plus the canonical ledger
// state machine. It is not safe for concurrent use.
type Network struct {
	cfg        Config
	rng        *rand.Rand
	validators []*validator

	engine *payment.Engine
	chain  *ledger.Chain

	// testnet: the parallel chain the test-net cluster validates.
	testChain *ledger.Chain

	round int
	now   time.Time

	streamSeq   uint64
	subscribers []func(Event)

	// Adversarial state. atkRng drives all Byzantine randomness so the
	// benign population's draws from rng are identical with and without
	// an attack configured; lateQueue holds delayer validations to
	// broadcast next round; hasByzantine short-circuits every attack
	// path when no Byzantine validator is configured.
	atkRng        *rand.Rand
	lateQueue     []Event
	hasByzantine  bool
	equivocations int
	forkSeqs      []uint64
}

// NewNetwork creates a network with the given validators over a fresh
// genesis state.
func NewNetwork(cfg Config, specs []ValidatorSpec) *Network {
	if cfg.ValidationQuorum == 0 {
		cfg.ValidationQuorum = 0.8
	}
	if len(cfg.Thresholds) == 0 {
		cfg.Thresholds = DefaultConfig().Thresholds
	}
	if cfg.CloseInterval == 0 {
		cfg.CloseInterval = 5 * time.Second
	}
	if cfg.StartTime.IsZero() {
		cfg.StartTime = DefaultConfig().StartTime
	}
	if cfg.PropagationDelay == 0 {
		cfg.PropagationDelay = 150 * time.Millisecond
	}
	if cfg.AttackSeed == 0 {
		cfg.AttackSeed = cfg.Seed*6364136223846793005 + 1442695040888963407
	}
	if cfg.Partition != nil && cfg.Partition.SplitRate == 0 {
		p := *cfg.Partition
		p.SplitRate = 1
		cfg.Partition = &p
	}
	n := &Network{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		atkRng:    rand.New(rand.NewSource(cfg.AttackSeed)),
		engine:    payment.NewEngine(),
		chain:     ledger.NewChain(ledger.Genesis("main", ledger.CloseTimeFromTime(cfg.StartTime))),
		testChain: ledger.NewChain(ledger.Genesis("testnet", ledger.CloseTimeFromTime(cfg.StartTime))),
		now:       cfg.StartTime,
	}
	for _, spec := range specs {
		v := newValidator(spec)
		n.validators = append(n.validators, v)
		if spec.Behavior.Byzantine() {
			n.hasByzantine = true
		}
	}
	return n
}

// Equivocations returns how many conflicting validation signatures the
// network's equivocators have broadcast so far.
func (n *Network) Equivocations() int { return n.equivocations }

// ForkSeqs returns the ledger sequences at which a partitioned round
// committed a fork (both groups reached quorum on different pages).
func (n *Network) ForkSeqs() []uint64 { return n.forkSeqs }

// Engine exposes the canonical state machine (e.g. to fund accounts
// before a simulation).
func (n *Network) Engine() *payment.Engine { return n.engine }

// Chain exposes the canonical main chain.
func (n *Network) Chain() *ledger.Chain { return n.chain }

// Round returns the number of completed rounds.
func (n *Network) Round() int { return n.round }

// Now returns the simulated clock.
func (n *Network) Now() time.Time { return n.now }

// Subscribe registers a stream consumer. Events are delivered
// synchronously during RunRound, in deterministic order.
func (n *Network) Subscribe(fn func(Event)) { n.subscribers = append(n.subscribers, fn) }

func (n *Network) emit(ev Event) {
	n.streamSeq++
	ev.StreamSeq = n.streamSeq
	for _, fn := range n.subscribers {
		fn(ev)
	}
}

// EventsEmitted returns the stream sequence number of the last emitted
// event (the total number of events the network has published).
func (n *Network) EventsEmitted() uint64 { return n.streamSeq }

// DisableTopActives takes down the k first trusted active validators —
// the paper's attack on "the majority of these validators" (hijack or
// DoS): they stop proposing and signing, but remain on the trusted lists
// and keep counting against the validation quorum. It returns how many
// validators it took down.
func (n *Network) DisableTopActives(k int) int {
	hit := 0
	for _, v := range n.validators {
		if hit == k {
			break
		}
		if v.spec.Behavior == BehaviorActive && v.spec.Trusted && !v.disabled {
			v.disabled = true
			hit++
		}
	}
	return hit
}

// Validators returns the display names of all configured validators, for
// reports.
func (n *Network) Validators() []string {
	out := make([]string, len(n.validators))
	for i, v := range n.validators {
		out[i] = v.DisplayName()
	}
	return out
}

// NodeIDOf returns the node ID for a configured validator label, for
// tests and registries.
func (n *Network) NodeIDOf(label string) (addr.NodeID, bool) {
	for _, v := range n.validators {
		if v.spec.Label == label || v.DisplayName() == label {
			return v.id, true
		}
	}
	return addr.NodeID{}, false
}

// RunRound executes one full consensus round over the candidate
// transactions: proposal convergence, canonical application, validation
// broadcast, and the parallel test-net close. Deferred transactions (ones
// that failed to reach agreement) are reported for resubmission.
//
// With Byzantine validators configured, the round additionally carries
// their attacks: censors veto targeted transactions, delayers withhold
// proposals and broadcast their validations a round late, equivocators
// double-sign, and a Partition config can split the trusted UNL onto two
// pages. All adversarial randomness comes from a separate RNG, so a
// network without Byzantine validators or a partition produces a
// bit-identical event stream to the pre-attack implementation.
func (n *Network) RunRound(candidates []*ledger.Tx) (*RoundResult, error) {
	n.round++
	n.now = n.now.Add(n.cfg.CloseInterval)

	// Validations a delayer withheld last round arrive this round,
	// after the live traffic (attack path; always empty in benign runs).
	late := n.lateQueue
	n.lateQueue = nil

	var candHashes []ledger.Hash
	if n.cfg.StreamProposals && len(candidates) > 0 {
		candHashes = make([]ledger.Hash, len(candidates))
		for i, tx := range candidates {
			candHashes[i] = tx.Hash()
		}
		n.emit(Event{
			Kind:     EventProposal,
			Seq:      n.chain.Tip().Header.Sequence + 1,
			TxHashes: candHashes,
			Time:     n.now,
		})
	}

	// Gather the active validators present this round.
	var actives []*validator
	for _, v := range n.validators {
		if v.spec.Behavior == BehaviorActive && !v.disabled && v.present(n.round) && n.rng.Float64() < v.spec.Availability {
			actives = append(actives, v)
		}
	}
	// Byzantine proposers (equivocators, censors, delayers) join the
	// proposal phase after the benign actives, so the benign RNG draw
	// order is untouched.
	proposers := actives
	if n.hasByzantine {
		proposers = append(make([]*validator, 0, len(actives)+4), actives...)
		for _, v := range n.validators {
			if v.spec.Behavior.Byzantine() && !v.disabled && v.present(n.round) && n.atkRng.Float64() < v.spec.Availability {
				proposers = append(proposers, v)
			}
		}
	}

	agreed, iters, initial := n.proposalPhase(proposers, candidates)

	// Per-validator proposal events: each proposer's initial transaction
	// set, the signal that separates a censor (omits one tx, proposes the
	// rest) from a stalled proposer (proposes nothing — no event at all,
	// since an empty set carries no information). Not counted as protocol
	// messages: proposals are already priced by the iteration count.
	if n.cfg.StreamProposals && len(initial) > 0 {
		seq := n.chain.Tip().Header.Sequence + 1
		for i, v := range proposers {
			var hashes []ledger.Hash
			for j := range candidates {
				if initial[i][j] {
					hashes = append(hashes, candHashes[j])
				}
			}
			if len(hashes) == 0 {
				continue
			}
			n.emit(Event{
				Kind:     EventProposal,
				Seq:      seq,
				Node:     v.id,
				TxHashes: hashes,
				Time:     n.now,
			})
		}
	}

	var deferred []*ledger.Tx
	censored := 0
	agreedSet := make(map[ledger.Hash]bool, len(agreed))
	for _, tx := range agreed {
		agreedSet[tx.Hash()] = true
	}
	for _, tx := range candidates {
		if !agreedSet[tx.Hash()] {
			deferred = append(deferred, tx)
			for _, v := range proposers {
				if v.censors(tx) {
					censored++
					break
				}
			}
		}
	}

	// Apply the agreed set to the canonical state machine.
	page, err := n.closeMainPage(agreed)
	if err != nil {
		return nil, err
	}

	// Close the parallel test-net page (empty traffic).
	testPage, err := closeEmptyPage(n.testChain, n.now)
	if err != nil {
		return nil, err
	}

	// Sub-bound overlap attack: split the trusted quorum members into
	// two groups; group B validates a divergent page this round.
	canonical := page.Header.Hash()
	var (
		split      bool
		forkHash   ledger.Hash
		groupOf    map[*validator]int // 1 = canonical side, 2 = fork side
		groupSize  int
		sigA, sigB int
	)
	if p := n.cfg.Partition; p != nil && n.atkRng.Float64() < p.SplitRate {
		groupOf, groupSize = n.partitionGroups(p.Overlap)
		if groupSize > 0 {
			split = true
			forkHash = ledger.SHA512Half(fmt.Appendf(nil, "partition:%d:%d", page.Header.Sequence, n.cfg.AttackSeed))
		}
	}

	// Validation broadcast. The quorum denominator is the trusted list
	// itself (UNLs are configuration, not liveness): a validator that is
	// merely offline — or hijacked — still counts against the 80%
	// requirement. Validators outside their join/leave window have been
	// retired from operators' lists and do not count. Trusted Byzantine
	// validators count against the denominator too: an insider that
	// withholds its signature is indistinguishable from a downed one.
	matching := 0
	trustedTotal := 0
	emitted := 0
	present := 0
	for _, v := range n.validators {
		if !v.present(n.round) {
			continue
		}
		present++
		if v.spec.Trusted && (v.spec.Behavior == BehaviorActive || v.spec.Behavior.Byzantine()) {
			trustedTotal++
		}
		rng := n.rng
		if v.spec.Behavior.Byzantine() {
			rng = n.atkRng
		}
		if v.disabled || rng.Float64() >= v.spec.Availability {
			continue
		}
		emitVal := func(h ledger.Hash) {
			emitted++
			n.emit(Event{
				Kind:       EventValidation,
				Seq:        page.Header.Sequence,
				LedgerHash: h,
				Node:       v.id,
				Signature:  v.key.Sign(h[:]),
				Time:       n.now,
			})
		}
		switch v.spec.Behavior {
		case BehaviorDelayer:
			// Signs the canonical page, but broadcasts it past the close
			// deadline: the signature goes out during the next round and
			// never counts toward this round's quorum.
			n.lateQueue = append(n.lateQueue, Event{
				Kind:       EventValidation,
				Seq:        page.Header.Sequence,
				LedgerHash: canonical,
				Node:       v.id,
				Signature:  v.key.Sign(canonical[:]),
			})
			continue
		case BehaviorEquivocator:
			// Double-sign: the canonical page toward one UNL partition
			// and a conflicting hash toward the other. In a split round
			// the conflicting signature is the rival page itself, pushing
			// both sides toward quorum.
			other := ledger.SHA512Half(fmt.Appendf(nil, "equiv:%s:%d", v.DisplayName(), page.Header.Sequence))
			if split {
				other = forkHash
			}
			emitVal(canonical)
			emitVal(other)
			n.equivocations++
			if v.spec.Trusted {
				matching++
			}
			if split && groupOf[v] != 0 {
				sigA++
				sigB++
			}
			continue
		}
		signed := n.validationHashFor(v, page, testPage)
		if split && groupOf[v] == 2 && signed == canonical {
			signed = forkHash
		}
		if signed.IsZero() {
			continue
		}
		// Only trusted (UNL) validations count towards the quorum;
		// anyone can broadcast validations, but rippled only tallies
		// its configured list.
		if signed == canonical && v.spec.Trusted {
			matching++
		}
		if split {
			switch groupOf[v] {
			case 1:
				if signed == canonical {
					sigA++
				}
			case 2:
				if signed == forkHash {
					sigB++
				}
			}
		}
		emitVal(signed)
	}

	quorum := int(float64(trustedTotal)*n.cfg.ValidationQuorum + 0.999999)
	validated := trustedTotal > 0 && matching >= quorum
	forkCommitted := false
	closes := 0
	if split {
		// Each group tallies against its own UNL of groupSize members.
		gq := int(float64(groupSize)*n.cfg.ValidationQuorum + 0.999999)
		validated = sigA >= gq
		forkCommitted = validated && sigB >= gq
		if sigB >= gq {
			// The rival partition validated its page: a second fully
			// validated ledger at the same sequence enters the stream.
			closes++
			n.emit(Event{
				Kind:       EventLedgerClosed,
				Seq:        page.Header.Sequence,
				LedgerHash: forkHash,
				Time:       n.now,
			})
			if forkCommitted {
				n.forkSeqs = append(n.forkSeqs, page.Header.Sequence)
			}
		}
	}
	if validated {
		closes++
		ev := Event{
			Kind:       EventLedgerClosed,
			Seq:        page.Header.Sequence,
			LedgerHash: canonical,
			Time:       n.now,
			TxCount:    len(page.Txs),
		}
		if n.cfg.StreamPages {
			ev.PageData = page.Encode(nil)
		}
		if n.cfg.StreamProposals && len(agreed) > 0 {
			hashes := make([]ledger.Hash, len(agreed))
			for i, tx := range agreed {
				hashes[i] = tx.Hash()
			}
			ev.TxHashes = hashes
		}
		n.emit(ev)
	}

	// Last round's withheld validations finally go out — trailing the
	// sequence high-water mark, which is how a monitor spots them.
	for _, ev := range late {
		ev.Time = n.now
		emitted++
		n.emit(ev)
	}

	propMsgs := iters * len(proposers) * max(len(proposers)-1, 0)
	valMsgs := (emitted + closes) * max(present-1, 0)
	return &RoundResult{
		Page:           page,
		Validated:      validated,
		Validations:    matching,
		ProposalIters:  iters,
		Deferred:       deferred,
		Messages:       propMsgs + valMsgs,
		ProposalMsgs:   propMsgs,
		ValidationMsgs: valMsgs,
		Latency:        time.Duration(iters+1) * n.cfg.PropagationDelay,
		CensoredTxs:    censored,
		ForkCommitted:  forkCommitted,
		ForkHash:       forkHash,
	}, nil
}

// partitionGroups splits the present trusted quorum members into two
// UNL groups sharing `overlap` of their members: with N members and
// group size g, each group holds e = g−s exclusive members and s shared
// ones (N = 2e+s, overlap = s/g). Shared members follow whichever
// proposal reached them first — a fair coin in a symmetric split.
// Returns the side of each member (1 = canonical, 2 = fork) and g.
func (n *Network) partitionGroups(overlap float64) (map[*validator]int, int) {
	var members []*validator
	for _, v := range n.validators {
		if !v.present(n.round) || v.disabled {
			continue
		}
		if v.spec.Trusted && (v.spec.Behavior == BehaviorActive || v.spec.Behavior.Byzantine()) {
			members = append(members, v)
		}
	}
	total := len(members)
	if total < 2 {
		return nil, 0
	}
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 1 {
		overlap = 1
	}
	exclusive := int((1-overlap)/(2-overlap)*float64(total) + 0.5)
	if 2*exclusive > total {
		exclusive = total / 2
	}
	groupOf := make(map[*validator]int, total)
	for i, v := range members {
		switch {
		case i < exclusive:
			groupOf[v] = 1
		case i >= total-exclusive:
			groupOf[v] = 2
		default:
			// Shared member: coin-flip which page reached it first.
			groupOf[v] = 1 + n.atkRng.Intn(2)
		}
	}
	shared := total - 2*exclusive
	return groupOf, exclusive + shared
}

// proposalPhase runs the avalanche-style dispute resolution: each active
// validator starts from its (lossy) view of the candidate set and
// iteratively keeps a transaction only when the fraction of peers
// proposing it meets the rising threshold. Byzantine proposers bend the
// rules: censors force targeted transactions out of their proposals at
// every iteration, and delayers withhold all votes until their
// DelayIters deadline passes. Returns the agreed set, the number of
// iterations used, and the iteration-0 proposal matrix
// (initial[i][j] — did validator i's first broadcast include candidate
// j), which RunRound streams as per-validator proposal events.
func (n *Network) proposalPhase(actives []*validator, candidates []*ledger.Tx) ([]*ledger.Tx, int, [][]bool) {
	if len(actives) == 0 || len(candidates) == 0 {
		return nil, 0, nil
	}
	// proposals[i][j] — does validator i currently propose candidate j.
	proposals := make([][]bool, len(actives))
	for i, v := range actives {
		proposals[i] = make([]bool, len(candidates))
		for j := range candidates {
			keep := n.rng.Float64() >= n.cfg.TxDropRate
			if v.spec.Behavior.Byzantine() && (v.withholds(0) || v.censors(candidates[j])) {
				keep = false
			}
			proposals[i][j] = keep
		}
	}
	initial := proposals // iteration loop replaces, never mutates, rows
	iters := 0
	for ti, threshold := range n.cfg.Thresholds {
		iters++
		next := make([][]bool, len(actives))
		converged := true
		for i := range actives {
			next[i] = make([]bool, len(candidates))
			for j := range candidates {
				votes := 0
				for k := range actives {
					if proposals[k][j] {
						votes++
					}
				}
				keep := float64(votes) >= threshold*float64(len(actives))
				if actives[i].spec.Behavior.Byzantine() &&
					(actives[i].withholds(ti+1) || actives[i].censors(candidates[j])) {
					keep = false
				}
				next[i][j] = keep
				if keep != proposals[i][j] {
					converged = false
				}
			}
		}
		proposals = next
		if converged {
			break
		}
	}
	// The final set: transactions every active validator proposes.
	var agreed []*ledger.Tx
	for j, tx := range candidates {
		all := true
		for i := range actives {
			if !proposals[i][j] {
				all = false
				break
			}
		}
		if all {
			agreed = append(agreed, tx)
		}
	}
	return agreed, iters, initial
}

// closeMainPage applies the agreed set to the canonical engine and
// appends the resulting page to the main chain.
func (n *Network) closeMainPage(agreed []*ledger.Tx) (*ledger.Page, error) {
	metas := make([]*ledger.TxMeta, 0, len(agreed))
	for _, tx := range agreed {
		meta, err := n.engine.Apply(tx)
		if err != nil {
			return nil, fmt.Errorf("consensus: applying tx: %w", err)
		}
		metas = append(metas, meta)
	}
	tip := n.chain.Tip()
	page := &ledger.Page{
		Header: ledger.PageHeader{
			Sequence:   tip.Header.Sequence + 1,
			ParentHash: tip.Header.Hash(),
			TxSetHash:  ledger.TxSetHash(agreed),
			StateHash:  n.engine.StateDigest(),
			CloseTime:  ledger.CloseTimeFromTime(n.now),
			TotalDrops: n.engine.TotalDrops(),
		},
		Txs:   agreed,
		Metas: metas,
	}
	if err := n.chain.Append(page); err != nil {
		return nil, fmt.Errorf("consensus: appending page: %w", err)
	}
	return page, nil
}

// closeEmptyPage extends a chain with an empty page.
func closeEmptyPage(c *ledger.Chain, now time.Time) (*ledger.Page, error) {
	tip := c.Tip()
	page := &ledger.Page{
		Header: ledger.PageHeader{
			Sequence:   tip.Header.Sequence + 1,
			ParentHash: tip.Header.Hash(),
			TxSetHash:  ledger.TxSetHash(nil),
			StateHash:  tip.Header.StateHash,
			CloseTime:  ledger.CloseTimeFromTime(now),
			TotalDrops: tip.Header.TotalDrops,
		},
	}
	if err := c.Append(page); err != nil {
		return nil, err
	}
	return page, nil
}

// validationHashFor selects the ledger hash a validator signs this
// round, per its behavior class.
func (n *Network) validationHashFor(v *validator, mainPage, testPage *ledger.Page) ledger.Hash {
	switch v.spec.Behavior {
	case BehaviorActive:
		return mainPage.Header.Hash()
	case BehaviorLaggard:
		if n.rng.Float64() < v.spec.SyncProbability {
			return mainPage.Header.Hash()
		}
		// Out of sync: the laggard's divergent state produces a page
		// hash of its own.
		return ledger.SHA512Half([]byte(fmt.Sprintf("laggard:%s:%d:%d", v.DisplayName(), mainPage.Header.Sequence, n.rng.Int63())))
	case BehaviorForked:
		// A private ledger: deterministic per validator, never on the
		// main chain.
		return ledger.SHA512Half([]byte(fmt.Sprintf("fork:%s:%d", v.DisplayName(), mainPage.Header.Sequence)))
	case BehaviorTestnet:
		return testPage.Header.Hash()
	case BehaviorCensor:
		// The censor signs the page it helped converge: with the targets
		// stripped during proposals, its validations look perfectly
		// healthy — the attack is invisible in the validation stream.
		return mainPage.Header.Hash()
	default:
		return ledger.Hash{}
	}
}

// Run executes `rounds` rounds pulling candidate transactions from next,
// which may return nil for an empty round. Deferred transactions are
// retried in the following round ahead of new traffic.
func (n *Network) Run(rounds int, next func(round int) []*ledger.Tx) ([]*RoundResult, error) {
	results := make([]*RoundResult, 0, rounds)
	var carry []*ledger.Tx
	for i := 1; i <= rounds; i++ {
		candidates := carry
		if next != nil {
			candidates = append(candidates, next(i)...)
		}
		res, err := n.RunRound(candidates)
		if err != nil {
			return results, err
		}
		carry = res.Deferred
		results = append(results, res)
	}
	return results, nil
}
