// Package integration exercises the whole system end to end: the
// generate → persist → reopen → analyze pipeline, the consensus →
// TCP stream → monitor pipeline, and the agreement of every experiment
// over a stored history with the same figures computed in memory.
package integration

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/core"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
)

// TestStoreAndMemoryAgreeOnEveryExperiment generates one history into a
// store whose segments roll every 64 KiB, so four scan workers each get
// segments and the dataset merges four collectors, and checks what the
// store dataset reports against computations held in memory over the
// same pages: a sequential deanon.Study fed by FromTransaction for
// Figure 3, one analysis.Collector walking the pages in order for the
// statistics and Figures 4–7, and the generator's own final state for
// Figure 7's profiles, which the dataset rebuilds by replaying the store.
func TestStoreAndMemoryAgreeOnEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	dir := filepath.Join(t.TempDir(), "store")
	store, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	col := analysis.NewCollector()
	study := deanon.NewStudy(deanon.Figure3Rows)
	pages := 0
	gen, err := synth.Generate(synth.Config{Payments: 4000, Seed: 17, SkipSignatures: true}, func(p *ledger.Page) error {
		pages++
		for i := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				study.Observe(f)
			}
		}
		if err := col.Page(p); err != nil {
			return err
		}
		return store.Append(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	if ranges, err := store.SegmentRanges(); err != nil || len(ranges) < 8 {
		t.Fatalf("store holds %d segments (%v), want at least 8", len(ranges), err)
	}
	disk, err := core.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	disk.SetWorkers(4)

	st, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	wantStats := core.Stats{
		Payments:    col.Payments(),
		Failed:      col.FailedPayments(),
		MultiHop:    col.MultiHopPayments(),
		Offers:      col.TotalOffers(),
		ActiveUsers: col.ActiveAccounts(),
		TotalPages:  pages,
	}
	if st != wantStats {
		t.Fatalf("stats differ:\nmemory: %+v\nstore:  %+v", wantStats, st)
	}

	// Figure 3 agrees bit-for-bit.
	f3, err := disk.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3, study.Results()) {
		t.Errorf("Figure 3 differs:\nmemory: %+v\nstore:  %+v", study.Results(), f3)
	}

	f4, err := disk.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4, col.CurrencyHistogram()) {
		t.Error("Figure 4 differs between memory and store")
	}

	f5, err := disk.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	grid := analysis.DefaultSurvivalGrid()
	want5 := []core.Figure5Curve{{Label: "Global", Points: col.Survival(amount.Currency{}, true, grid)}}
	for _, cur := range analysis.FeaturedCurrencies() {
		want5 = append(want5, core.Figure5Curve{Label: cur.String(), Points: col.Survival(cur, false, grid)})
	}
	if !reflect.DeepEqual(f5, want5) {
		t.Error("Figure 5 differs between memory and store")
	}

	hops, parallel, err := disk.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hops, col.HopHistogram()) || !reflect.DeepEqual(parallel, col.ParallelHistogram()) {
		t.Error("Figure 6 differs between memory and store")
	}

	want7 := col.TopIntermediaries(20, nil)
	analysis.ProfileTop(want7, gen.Engine.Graph(), synth.RateEUR)
	f7, err := disk.Figure7(20)
	if err != nil {
		t.Fatal(err)
	}
	if len(f7) == 0 || !reflect.DeepEqual(f7, want7) {
		t.Errorf("Figure 7 differs:\nmemory: %+v\nstore:  %+v", want7, f7)
	}
}

// TestConsensusStreamMonitorPipeline runs the full §IV pipeline over a
// real TCP socket: network → stream server → client → collector, and
// verifies the report matches a directly-subscribed collector.
func TestConsensusStreamMonitorPipeline(t *testing.T) {
	const rounds = 150
	spec := consensus.December2015(rounds)

	srv, err := netstream.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client, err := netstream.DialResume(srv.Addr(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	labels := func(c *monitor.Collector) {
		for _, s := range spec.Specs {
			if s.Label != "" {
				c.SetLabel(addr.KeyPairFromSeed(s.Seed).NodeID(), s.Label)
			}
		}
	}
	remote := monitor.NewCollector()
	labels(remote)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = client.Events(func(ev consensus.Event) error {
			remote.Record(ev)
			return nil
		})
	}()

	local := monitor.NewCollector()
	labels(local)
	net := consensus.NewNetwork(consensus.Config{Seed: 3, StartTime: spec.Start}, spec.Specs)
	net.Subscribe(local.Record)
	net.Subscribe(srv.Publish)
	if _, err := net.Run(rounds, nil); err != nil {
		t.Fatal(err)
	}
	srv.Flush()
	srv.Close()
	wg.Wait()

	lr := local.Report(spec.Name)
	rr := remote.Report(spec.Name)
	if lr.Rounds != rr.Rounds {
		t.Fatalf("rounds differ: local %d, remote %d", lr.Rounds, rr.Rounds)
	}
	if len(lr.Validators) != len(rr.Validators) {
		t.Fatalf("validator counts differ: %d vs %d", len(lr.Validators), len(rr.Validators))
	}
	for i := range lr.Validators {
		l, r := lr.Validators[i], rr.Validators[i]
		if l.Node != r.Node || l.Total != r.Total || l.Valid != r.Valid {
			t.Fatalf("validator %d differs across the TCP hop:\nlocal:  %+v\nremote: %+v", i, l, r)
		}
		if r.BadSignatures != 0 {
			t.Errorf("%s: %d bad signatures after TCP transport", r.Label, r.BadSignatures)
		}
	}
}

// TestSignedHistoryVerifies generates a fully signed history, checks
// every signature, and replays the whole history through a
// signature-verifying engine — the strictest end-to-end integrity check.
func TestSignedHistoryVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("signing is slow")
	}
	var pages []*ledger.Page
	genRes, err := synth.Generate(synth.Config{
		Payments: 600,
		Seed:     5,
		// SkipSignatures off: real signing.
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replay through a verifying engine: every transaction must land on
	// the same result it had in the generated history, and the final
	// state digests must match.
	verifier := payment.NewEngine(payment.WithSignatureVerification())
	for _, p := range pages {
		for i, tx := range p.Txs {
			meta, err := verifier.Apply(tx)
			if err != nil {
				t.Fatal(err)
			}
			if meta.Result != p.Metas[i].Result {
				t.Fatalf("verifying replay diverged: %s vs %s for %s tx",
					meta.Result, p.Metas[i].Result, tx.Type)
			}
		}
	}
	if verifier.StateDigest() != genRes.Engine.StateDigest() {
		t.Fatal("verifying replay reached a different state digest")
	}
	checked := 0
	for _, p := range pages {
		for _, tx := range p.Txs {
			if len(tx.Signature) == 0 {
				// ACCOUNT_ZERO transactions are submitted unsigned (its
				// key is "publicly known"; the generator models that by
				// skipping the signature).
				if tx.Account != addr.AccountZero {
					t.Fatalf("unsigned transaction from %s", tx.Account.Short())
				}
				continue
			}
			if !tx.VerifySignature() {
				t.Fatalf("invalid signature on %s tx from %s", tx.Type, tx.Account.Short())
			}
			checked++
		}
	}
	if checked < 1000 {
		t.Errorf("verified only %d signatures", checked)
	}
}

// TestStoreSurvivesReopenCycles appends across multiple open/close
// cycles and checks the chain links end to end.
func TestStoreSurvivesReopenCycles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cycles")
	var prev ledger.Hash
	seq := uint64(1)

	writeBatch := func(store *ledgerstore.Store, n int) {
		for i := 0; i < n; i++ {
			page := &ledger.Page{
				Header: ledger.PageHeader{
					Sequence:   seq,
					ParentHash: prev,
					TxSetHash:  ledger.TxSetHash(nil),
					CloseTime:  ledger.CloseTime(seq),
				},
			}
			prev = page.Header.Hash()
			seq++
			if err := store.Append(page); err != nil {
				t.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			t.Fatal(err)
		}
	}

	first, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(512))
	if err != nil {
		t.Fatal(err)
	}
	writeBatch(first, 20)
	for cycle := 0; cycle < 3; cycle++ {
		store, err := ledgerstore.Open(dir, ledgerstore.WithSegmentBytes(512))
		if err != nil {
			t.Fatal(err)
		}
		writeBatch(store, 20)
	}

	store, err := ledgerstore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []*ledger.Page
	if err := store.Pages(func(p *ledger.Page) error { got = append(got, p); return nil }); err != nil {
		t.Fatal(err)
	}
	if len(got) != 80 {
		t.Fatalf("pages = %d, want 80", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Header.ParentHash != got[i-1].Header.Hash() {
			t.Fatalf("chain broken at page %d after reopen cycles", i)
		}
	}
}
