// Package integration exercises the whole system end to end: the
// generate → persist → reopen → analyze pipeline, the consensus →
// TCP stream → monitor pipeline, and the consistency between in-memory
// and store-backed execution of every experiment.
package integration

import (
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/core"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/netstream"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
)

// TestStoreAndMemoryAgreeOnEveryExperiment generates one history twice —
// once streamed to disk, once kept in memory — and checks that every
// experiment produces identical results from both sources.
func TestStoreAndMemoryAgreeOnEveryExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline")
	}
	const payments = 4000
	const seed = 17

	mem, err := core.BuildDataset(core.Config{Payments: payments, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "store")
	if _, err := core.BuildDataset(core.Config{Payments: payments, Seed: seed, StoreDir: dir}); err != nil {
		t.Fatal(err)
	}
	disk, err := core.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}

	// Stats agree.
	ms, err := mem.Stats()
	if err != nil {
		t.Fatal(err)
	}
	dsStats, err := disk.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if ms != dsStats {
		t.Fatalf("stats differ:\nmem:  %+v\ndisk: %+v", ms, dsStats)
	}

	// Figure 3 agrees bit-for-bit.
	f3m, err := mem.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	f3d, err := disk.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f3m, f3d) {
		t.Error("Figure 3 differs between memory and store")
	}

	// Figure 4 agrees.
	f4m, err := mem.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	f4d, err := disk.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f4m, f4d) {
		t.Error("Figure 4 differs between memory and store")
	}

	// Figure 6 agrees.
	hm, pm, err := mem.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	hd, pd, err := disk.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hm, hd) || !reflect.DeepEqual(pm, pd) {
		t.Error("Figure 6 differs between memory and store")
	}

	// Table II agrees (the replay rebuilds state from pages in both
	// cases).
	t2m, err := mem.TableII(0.7)
	if err != nil {
		t.Fatal(err)
	}
	t2d, err := disk.TableII(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if t2m.Cross != t2d.Cross || t2m.Single != t2d.Single {
		t.Errorf("Table II differs:\nmem:  %+v %+v\ndisk: %+v %+v",
			t2m.Cross, t2m.Single, t2d.Cross, t2d.Single)
	}

	// Figure 7 intermediary ordering agrees (names differ: the disk
	// dataset has no registry).
	f7m, err := mem.Figure7(20)
	if err != nil {
		t.Fatal(err)
	}
	f7d, err := disk.Figure7(20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range f7m {
		if f7m[i].Account != f7d[i].Account || f7m[i].TimesIntermediate != f7d[i].TimesIntermediate {
			t.Fatalf("Figure 7 rank %d differs", i)
		}
		// Profiles come from generator state vs replayed state — they
		// must match too.
		if f7m[i].Profile != f7d[i].Profile {
			t.Fatalf("Figure 7 profile %d differs: %+v vs %+v", i, f7m[i].Profile, f7d[i].Profile)
		}
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
