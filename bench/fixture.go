package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/synth"
)

// fixture is one generated history. Every workload's inputs derive from
// synth.Generate with the run's seed; the program under test receives
// only the pages, events and transactions built from it.
type fixture struct {
	res      *synth.Result
	pages    []*ledger.Page // nil when the history was streamed to disk only
	store    *ledgerstore.Store
	storeDir string
	npages   int
	txs      int
	payments int // successful payments, what the views count
	digest   string
	// pageSeqs and pageTxs give every page's sequence and transaction
	// count, so a workload can count exactly what a replay executed.
	pageSeqs []uint64
	pageTxs  []int32
}

// fixtureOpts selects where the generated pages go.
type fixtureOpts struct {
	payments  int
	seed      int64
	keepPages bool   // hold decoded pages in memory
	storeDir  string // when set, also append every page to a store here
	maxPages  int    // when > 0, keep (and digest) only the first maxPages pages
}

// buildFixture generates the history and digests it. The digest covers
// every kept page hash in order; a page hash commits to its parent and
// its transaction set, so equal digests mean byte-identical inputs.
func buildFixture(o fixtureOpts) (*fixture, error) {
	f := &fixture{storeDir: o.storeDir}
	var st *ledgerstore.Store
	if o.storeDir != "" {
		var err error
		if st, err = ledgerstore.Create(o.storeDir); err != nil {
			return nil, fmt.Errorf("create store: %w", err)
		}
	}
	h := sha256.New()
	res, err := synth.Generate(synth.Config{Payments: o.payments, Seed: o.seed, SkipSignatures: true},
		func(p *ledger.Page) error {
			if o.maxPages > 0 && f.npages >= o.maxPages {
				return nil
			}
			f.npages++
			f.txs += len(p.Txs)
			f.pageSeqs = append(f.pageSeqs, p.Header.Sequence)
			f.pageTxs = append(f.pageTxs, int32(len(p.Txs)))
			for i, tx := range p.Txs {
				if tx.Type == ledger.TxPayment && p.Metas[i].Result.Succeeded() {
					f.payments++
				}
			}
			ph := p.Header.Hash()
			h.Write(ph[:])
			if o.keepPages {
				f.pages = append(f.pages, p)
			}
			if st != nil {
				return st.Append(p)
			}
			return nil
		})
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	f.res = res
	var counts [24]byte
	binary.BigEndian.PutUint64(counts[0:], uint64(f.npages))
	binary.BigEndian.PutUint64(counts[8:], uint64(f.txs))
	binary.BigEndian.PutUint64(counts[16:], uint64(f.payments))
	h.Write(counts[:])
	f.digest = hex.EncodeToString(h.Sum(nil)[:8])
	if st != nil {
		if err := st.Close(); err != nil {
			return nil, fmt.Errorf("close store: %w", err)
		}
		if f.store, err = ledgerstore.Open(o.storeDir); err != nil {
			return nil, fmt.Errorf("open store: %w", err)
		}
		// Warm the sequence-index sidecar so no timed pass pays for it.
		if _, err := f.store.SegmentRanges(); err != nil {
			return nil, fmt.Errorf("segment ranges: %w", err)
		}
	}
	return f, nil
}

func (f *fixture) close() {
	if f.store != nil {
		f.store.Close()
	}
}

func (f *fixture) lastSeq() uint64 {
	if len(f.pages) > 0 {
		return f.pages[len(f.pages)-1].Header.Sequence
	}
	return f.res.LastSeq
}

// validatorsPerPage is how many validation events precede each close in
// the stream the harness builds.
const validatorsPerPage = 8

// streamEvents turns pages into the validation stream a rippled-sim would
// emit for them: per page, validatorsPerPage validations of the page hash
// and then the close carrying the page encoding. Validations are unsigned
// (the tally and the collector verify a signature only when one is
// present), matching SkipSignatures in the generated history.
func streamEvents(pages []*ledger.Page) []consensus.Event {
	nodes := make([]addr.NodeID, validatorsPerPage)
	for i := range nodes {
		nodes[i] = addr.KeyPairFromSeed(uint64(9000 + i)).NodeID()
	}
	evs := make([]consensus.Event, 0, len(pages)*(validatorsPerPage+1))
	for _, p := range pages {
		h := p.Header.Hash()
		at := p.Header.CloseTime.Time()
		for _, n := range nodes {
			evs = append(evs, consensus.Event{
				Kind: consensus.EventValidation, Seq: p.Header.Sequence, LedgerHash: h, Node: n, Time: at,
			})
		}
		evs = append(evs, consensus.Event{
			Kind: consensus.EventLedgerClosed, Seq: p.Header.Sequence, LedgerHash: h, Time: at,
			TxCount: len(p.Txs), PageData: p.Encode(nil),
		})
	}
	return evs
}

// scratchDir makes a private directory under bench/out for stores and
// checkpoints; the caller removes it.
func scratchDir(workload string) (string, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(outDir, workload+"-")
}
