// Benchmark harness: one benchmark per table and figure of the paper,
// plus ablation benches for the design choices DESIGN.md calls out.
//
//	go test -bench=. -benchmem
//
// The figure/table benches share one generated history (built once);
// each bench measures the cost of regenerating its experiment's data
// from that history, reporting domain metrics (payments/s, rounds/s)
// alongside ns/op.
package ripplestudy_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sync"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/synth"
	"ripplestudy/internal/trustgraph"
)

// sharedHistory builds the benchmark dataset once.
var (
	histOnce  sync.Once
	histPages []*ledger.Page
	histRes   *synth.Result
	histErr   error
)

const benchPayments = 12_000

func history(b *testing.B) ([]*ledger.Page, *synth.Result) {
	b.Helper()
	histOnce.Do(func() {
		histRes, histErr = synth.Generate(synth.Config{
			Payments:       benchPayments,
			Seed:           1,
			SkipSignatures: true,
		}, func(p *ledger.Page) error {
			histPages = append(histPages, p)
			return nil
		})
	})
	if histErr != nil {
		b.Fatal(histErr)
	}
	return histPages, histRes
}

// BenchmarkGeneratorThroughput measures the synthetic-history generator:
// full transactions through the real payment engine.
func BenchmarkGeneratorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := synth.Generate(synth.Config{
			Payments:       2000,
			Seed:           int64(i + 1),
			SkipSignatures: true,
		}, func(*ledger.Page) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.PaymentsOK), "payments/op")
	}
}

// BenchmarkFig2Consensus regenerates a scaled December 2015 collection
// period: consensus rounds, validation stream, and the Figure 2 report.
func BenchmarkFig2Consensus(b *testing.B) {
	const rounds = 100
	for i := 0; i < b.N; i++ {
		spec := consensus.December2015(rounds)
		rep, err := monitor.CollectPeriod(spec, consensus.Config{Seed: int64(i + 1)}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Validators) != 34 {
			b.Fatalf("unexpected validator count %d", len(rep.Validators))
		}
	}
	b.ReportMetric(rounds, "rounds/op")
}

// BenchmarkFig3Deanon regenerates Figure 3: one streaming pass computing
// the information gain of all ten resolution tuples.
func BenchmarkFig3Deanon(b *testing.B) {
	pages, _ := history(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		study := deanon.NewStudy(deanon.Figure3Rows)
		for _, p := range pages {
			for j := range p.Txs {
				if f, ok := deanon.FromTransaction(p, p.Txs[j], p.Metas[j]); ok {
					study.Observe(f)
				}
			}
		}
		rows := study.Results()
		if rows[0].IG < 0.9 {
			b.Fatalf("IG collapsed: %v", rows[0].IG)
		}
	}
	b.ReportMetric(float64(benchPayments), "payments/op")
}

// baselineFingerprint is the pre-optimization fingerprint path — a
// fresh hash.Hash and a fresh Table I rounding per (payment,
// resolution) pair — kept as the performance baseline BenchmarkFigure3
// measures the sharded pipeline against.
func baselineFingerprint(f deanon.Features, res deanon.Resolution) deanon.Fingerprint {
	h := fnv.New64a()
	var buf [16]byte
	if res.Amount != deanon.AmountOff {
		v := deanon.RoundAmount(f.Amount, f.Currency, res.Amount)
		e := uint64(int64(v.Exponent()))
		s := uint64(0)
		if v.IsNegative() {
			s = 1
		}
		binary.BigEndian.PutUint64(buf[:8], v.Mantissa())
		binary.BigEndian.PutUint64(buf[8:16], e<<1|s)
		h.Write([]byte{'A'})
		h.Write(buf[:])
	}
	if res.Time != deanon.TimeOff {
		binary.BigEndian.PutUint64(buf[:8], uint64(deanon.CoarsenTime(f.Time, res.Time)))
		h.Write([]byte{'T'})
		h.Write(buf[:8])
	}
	if res.Currency {
		h.Write([]byte{'C'})
		h.Write(f.Currency[:])
	}
	if res.Destination {
		h.Write([]byte{'D'})
		h.Write(f.Destination[:])
	}
	return deanon.Fingerprint(h.Sum64())
}

// benchFeatures extracts the payment features of the shared history.
func benchFeatures(b *testing.B) []deanon.Features {
	b.Helper()
	pages, _ := history(b)
	var feats []deanon.Features
	for _, p := range pages {
		for j := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[j], p.Metas[j]); ok {
				feats = append(feats, f)
			}
		}
	}
	return feats
}

// BenchmarkFigure3 is the headline pipeline benchmark: the full ten-row
// Figure 3 information-gain computation over one payment stream.
//
//	baseline    pre-optimization path: hash.Hash + rounding per pair
//	sequential  zero-alloc Study (inline FNV, features encoded once)
//	parallel    sharded ParallelStudy, GOMAXPROCS feeders
//
// Every variant recomputes the complete study per iteration; the
// payments/s metric is the domain throughput of one full Figure 3 run.
func BenchmarkFigure3(b *testing.B) {
	feats := benchFeatures(b)
	check := func(b *testing.B, rows []deanon.RowResult) {
		b.Helper()
		if rows[0].IG < 0.9 {
			b.Fatalf("IG collapsed: %v", rows[0].IG)
		}
	}
	reportThroughput := func(b *testing.B) {
		b.ReportMetric(float64(len(feats))*float64(b.N)/b.Elapsed().Seconds(), "payments/s")
	}

	b.Run("baseline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := make([]map[deanon.Fingerprint]uint32, len(deanon.Figure3Rows))
			for r := range counts {
				counts[r] = make(map[deanon.Fingerprint]uint32)
			}
			for _, f := range feats {
				for r, res := range deanon.Figure3Rows {
					counts[r][baselineFingerprint(f, res)]++
				}
			}
			rows := make([]deanon.RowResult, len(deanon.Figure3Rows))
			for r := range counts {
				for _, c := range counts[r] {
					if c == 1 {
						rows[r].Unique++
					}
				}
				rows[r].IG = float64(rows[r].Unique) / float64(len(feats))
			}
			check(b, rows)
		}
		reportThroughput(b)
	})

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			study := deanon.NewStudy(deanon.Figure3Rows)
			for _, f := range feats {
				study.Observe(f)
			}
			check(b, study.Results())
		}
		reportThroughput(b)
	})

	b.Run("parallel", func(b *testing.B) {
		workers := runtime.GOMAXPROCS(0)
		shardBits := 0
		for 1<<shardBits < workers {
			shardBits++
		}
		for i := 0; i < b.N; i++ {
			study := deanon.NewParallelStudy(deanon.Figure3Rows, shardBits)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				fd := study.Feeder()
				wg.Add(1)
				go func(w int, fd *deanon.Feeder) {
					defer wg.Done()
					for j := w; j < len(feats); j += workers {
						fd.Observe(feats[j])
					}
				}(w, fd)
			}
			wg.Wait()
			check(b, study.Results())
			// Recycle the count tables: steady-state reuse is the mode the
			// serving layer runs this pipeline in.
			study.Close()
		}
		reportThroughput(b)
	})
}

// BenchmarkFig4to6Analysis regenerates Figures 4, 5, and 6: the
// streaming ecosystem statistics.
func BenchmarkFig4to6Analysis(b *testing.B) {
	pages, _ := history(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := analysis.NewCollector()
		for _, p := range pages {
			if err := c.Page(p); err != nil {
				b.Fatal(err)
			}
		}
		if c.CurrencyHistogram()[0].Currency != amount.XRP {
			b.Fatal("top currency is not XRP")
		}
		_ = c.Survival(amount.BTC, false, analysis.DefaultSurvivalGrid())
		_ = c.HopHistogram()
		_ = c.ParallelHistogram()
	}
}

// BenchmarkFig7Intermediaries regenerates Figure 7: top-50 extraction
// and trust/balance profiling.
func BenchmarkFig7Intermediaries(b *testing.B) {
	pages, res := history(b)
	c := analysis.NewCollector()
	for _, p := range pages {
		if err := c.Page(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		top := c.TopIntermediaries(50, res.Population.Registry())
		analysis.ProfileTop(top, res.Engine.Graph(), synth.RateEUR)
		if len(top) == 0 {
			b.Fatal("no intermediaries")
		}
	}
}

// BenchmarkTable2Replay regenerates Table II: state rebuild, ablation,
// and post-snapshot replay.
//
// The payments/s metric counts the post-snapshot payments the replay
// submitted per wall-clock second, end to end (including the state
// rebuild — the paper's experiment always pays it).
func BenchmarkTable2Replay(b *testing.B) {
	pages, _ := history(b)
	snap := pages[len(pages)*7/10].Header.Sequence
	check := func(b *testing.B, res *replay.Result) {
		b.Helper()
		if res.Cross.Delivered != 0 {
			b.Fatal("cross-currency payments survived the ablation")
		}
		if res.Total().Submitted == 0 {
			b.Fatal("nothing replayed")
		}
	}

	b.Run("sequential", func(b *testing.B) {
		submitted := 0
		for i := 0; i < b.N; i++ {
			res, err := replay.Run(replay.FromPages(pages), snap)
			if err != nil {
				b.Fatal(err)
			}
			check(b, res)
			submitted = res.Total().Submitted
		}
		b.ReportMetric(float64(submitted)*float64(b.N)/b.Elapsed().Seconds(), "payments/s")
	})
}

// BenchmarkCheckpointResume measures what the state-tree checkpoint
// sidecar buys: rebuilding the full engine state from a disk store cold
// (replaying every page) versus resuming from the nearest persisted
// checkpoint (loading the sealed tree and replaying only the tail).
// Both paths end in the same StateDigest — the resume differential
// tests pin that — so the ratio of the two ns/op numbers is pure
// replay-work saved.
func BenchmarkCheckpointResume(b *testing.B) {
	pages, _ := history(b)
	last := pages[len(pages)-1].Header.Sequence
	dir := b.TempDir()
	store, err := ledgerstore.Create(dir)
	if err != nil {
		b.Fatal(err)
	}
	for _, p := range pages {
		if err := store.Append(p); err != nil {
			b.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		b.Fatal(err)
	}
	if _, err := store.SegmentRanges(); err != nil {
		b.Fatal(err) // warm the sequence index sidecar
	}

	// Seed the checkpoint sidecar once; 8 checkpoints across the history
	// leave a short tail past the last one.
	every := uint64(len(pages) / 8)
	if every == 0 {
		every = 1
	}
	ref, err := replay.BuildStateOpts(store, last, replay.BuildOptions{CheckpointEvery: every, DisableResume: true})
	if err != nil {
		b.Fatal(err)
	}
	wantDigest := ref.StateDigest()

	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := replay.BuildStateOpts(store, last, replay.BuildOptions{DisableResume: true})
			if err != nil {
				b.Fatal(err)
			}
			if eng.StateDigest() != wantDigest {
				b.Fatal("cold rebuild digest diverged")
			}
		}
		b.ReportMetric(float64(len(pages)), "pages/op")
	})
	b.Run("resume", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng, err := replay.BuildStateOpts(store, last, replay.BuildOptions{})
			if err != nil {
				b.Fatal(err)
			}
			if eng.StateDigest() != wantDigest {
				b.Fatal("resumed rebuild digest diverged")
			}
		}
		b.ReportMetric(float64(len(pages)), "pages/op")
	})
}

// BenchmarkPathfind measures the scratch-workspace BFS router on credit
// networks of increasing breadth and depth. With the dense-index
// workspace, steady-state searches allocate only the returned plan.
func BenchmarkPathfind(b *testing.B) {
	shapes := []struct {
		name          string
		width, length int
	}{
		{"narrow-4x6", 4, 6},
		{"wide-16x4", 16, 4},
		{"deep-2x30", 2, 30},
	}
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			g, src, dst := chainNetwork(sh.width, sh.length)
			f := pathfind.New(g, orderbook.New())
			want := amount.MustAmount("150/USD") // forces multi-path splits
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := f.FindPayment(src, dst, amount.USD, want)
				if err != nil {
					b.Fatal(err)
				}
				if !plan.Delivered.IsPositive() {
					b.Fatal("no delivery")
				}
			}
		})
	}
}

// BenchmarkTableIRounding measures the Table I rounding primitive.
func BenchmarkTableIRounding(b *testing.B) {
	v := amount.MustParse("12345.6789")
	for i := 0; i < b.N; i++ {
		for _, res := range []deanon.AmountRes{deanon.AmountMax, deanon.AmountAvg, deanon.AmountLow} {
			_ = deanon.RoundAmount(v, amount.USD, res)
		}
	}
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationFingerprintHash compares the 64-bit hashed
// fingerprint against exact string keys for uniqueness counting.
func BenchmarkAblationFingerprintHash(b *testing.B) {
	pages, _ := history(b)
	var feats []deanon.Features
	for _, p := range pages {
		for j := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[j], p.Metas[j]); ok {
				feats = append(feats, f)
			}
		}
	}
	res := deanon.Figure3Rows[0]

	b.Run("fnv64", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := make(map[deanon.Fingerprint]uint32, len(feats))
			for _, f := range feats {
				counts[deanon.FingerprintOf(f, res)]++
			}
			if len(counts) == 0 {
				b.Fatal("no fingerprints")
			}
		}
	})
	b.Run("string-keys", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			counts := make(map[string]uint32, len(feats))
			for _, f := range feats {
				key := fmt.Sprintf("%s|%d|%s|%s",
					deanon.RoundAmount(f.Amount, f.Currency, deanon.AmountMax),
					deanon.CoarsenTime(f.Time, deanon.TimeSeconds),
					f.Currency, f.Destination)
				counts[key]++
			}
			if len(counts) == 0 {
				b.Fatal("no fingerprints")
			}
		}
	})
}

// chainNetwork builds a credit network of `width` parallel chains, each
// with `length` intermediaries, between a fixed source and destination.
func chainNetwork(width, length int) (*trustgraph.Graph, addr.AccountID, addr.AccountID) {
	g := trustgraph.New()
	src := addr.KeyPairFromSeed(1).AccountID()
	dst := addr.KeyPairFromSeed(2).AccountID()
	lim := amount.MustParse("100")
	seed := uint64(100)
	for w := 0; w < width; w++ {
		prev := src
		for l := 0; l < length; l++ {
			seed++
			mid := addr.KeyPairFromSeed(seed).AccountID()
			_ = g.SetTrust(mid, prev, amount.USD, lim)
			prev = mid
		}
		_ = g.SetTrust(dst, prev, amount.USD, lim)
	}
	return g, src, dst
}

// BenchmarkAblationHopLimit measures path-finding cost and reachability
// across hop limits: short limits are cheap but blind to long routes.
func BenchmarkAblationHopLimit(b *testing.B) {
	for _, maxHops := range []int{3, 5, 8} {
		b.Run(fmt.Sprintf("maxhops=%d", maxHops), func(b *testing.B) {
			g, src, dst := chainNetwork(4, 6) // 6 intermediaries per chain
			f := pathfind.New(g, orderbook.New(), pathfind.WithMaxHops(maxHops))
			found := 0
			for i := 0; i < b.N; i++ {
				plan, err := f.FindPayment(src, dst, amount.USD, amount.MustAmount("50/USD"))
				if err == nil && plan.Delivered.IsPositive() {
					found++
				}
			}
			b.ReportMetric(float64(found)/float64(b.N), "reachable")
		})
	}
}

// BenchmarkAblationThreshold compares the rising proposal-threshold
// schedule against a flat 95% first round: the schedule needs more
// iterations but converges disputed sets deterministically.
func BenchmarkAblationThreshold(b *testing.B) {
	schedules := map[string][]float64{
		"rising-50-65-70-95": {0.5, 0.65, 0.7, 0.95},
		"flat-95":            {0.95},
	}
	for name, thresholds := range schedules {
		b.Run(name, func(b *testing.B) {
			iters := 0
			sealed := 0
			for i := 0; i < b.N; i++ {
				specs := make([]consensus.ValidatorSpec, 0, 10)
				for v := 0; v < 10; v++ {
					specs = append(specs, consensus.ValidatorSpec{
						Behavior: consensus.BehaviorActive, Seed: uint64(v + 1),
						Availability: 1.0, Trusted: true,
					})
				}
				net := consensus.NewNetwork(consensus.Config{
					Seed: int64(i + 1), Thresholds: thresholds, TxDropRate: 0.15,
				}, specs)
				alice := addr.KeyPairFromSeed(55)
				net.Engine().Fund(alice.AccountID(), 1_000_000_000)
				var txs []*ledger.Tx
				for t := 0; t < 20; t++ {
					tx := &ledger.Tx{
						Type:        ledger.TxPayment,
						Account:     alice.AccountID(),
						Sequence:    uint32(t + 1),
						Fee:         10,
						Destination: addr.KeyPairFromSeed(uint64(200 + t)).AccountID(),
						Amount:      amount.XRPAmount(1_000_000),
					}
					txs = append(txs, tx)
				}
				res, err := net.RunRound(txs)
				if err != nil {
					b.Fatal(err)
				}
				iters += res.ProposalIters
				sealed += len(res.Page.Txs)
			}
			b.ReportMetric(float64(iters)/float64(b.N), "proposal-iters")
			b.ReportMetric(float64(sealed)/float64(b.N), "txs-sealed")
		})
	}
}

// BenchmarkAblationAutobridge compares a direct cross-currency book
// against the two-leg XRP auto-bridge.
func BenchmarkAblationAutobridge(b *testing.B) {
	setup := func(direct bool) (*pathfind.Finder, addr.AccountID, addr.AccountID) {
		g := trustgraph.New()
		books := orderbook.New()
		src := addr.KeyPairFromSeed(1).AccountID()
		dst := addr.KeyPairFromSeed(2).AccountID()
		mm := addr.KeyPairFromSeed(3)
		_ = g.SetTrust(mm.AccountID(), src, amount.EUR, amount.MustParse("1e6"))
		_ = g.SetTrust(dst, mm.AccountID(), amount.USD, amount.MustParse("1e6"))
		if direct {
			_ = books.Place(&orderbook.Offer{
				Owner: mm.AccountID(), Seq: 1,
				Pays: amount.MustAmount("90000/EUR"), Gets: amount.MustAmount("100000/USD"),
			})
		} else {
			_ = books.Place(&orderbook.Offer{
				Owner: mm.AccountID(), Seq: 1,
				Pays: amount.MustAmount("90000/EUR"), Gets: amount.MustAmount("11250000/XRP"),
			})
			_ = books.Place(&orderbook.Offer{
				Owner: mm.AccountID(), Seq: 2,
				Pays: amount.MustAmount("12500000/XRP"), Gets: amount.MustAmount("100000/USD"),
			})
		}
		return pathfind.New(g, books), src, dst
	}
	for _, mode := range []string{"direct-book", "xrp-autobridge"} {
		b.Run(mode, func(b *testing.B) {
			f, src, dst := setup(mode == "direct-book")
			for i := 0; i < b.N; i++ {
				plan, err := f.FindPayment(src, dst, amount.EUR, amount.MustAmount("100/USD"))
				if err != nil {
					b.Fatal(err)
				}
				if plan.Delivered.Cmp(amount.MustParse("100")) != 0 {
					b.Fatal("not delivered")
				}
			}
		})
	}
}

// BenchmarkStore measures the persistence layer: append throughput and
// streaming-read throughput (the "parse 500 GB" path).
func BenchmarkStore(b *testing.B) {
	pages, _ := history(b)
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			dir := b.TempDir()
			store, err := ledgerstore.Create(dir)
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			for _, p := range pages {
				if err := store.Append(p); err != nil {
					b.Fatal(err)
				}
			}
			if err := store.Close(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(len(pages)), "pages/op")
		}
	})
	b.Run("stream", func(b *testing.B) {
		dir := b.TempDir()
		store, err := ledgerstore.Create(dir)
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pages {
			if err := store.Append(p); err != nil {
				b.Fatal(err)
			}
		}
		if err := store.Close(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := 0
			if err := store.Pages(func(*ledger.Page) error { n++; return nil }); err != nil {
				b.Fatal(err)
			}
			if n != len(pages) {
				b.Fatalf("read %d of %d pages", n, len(pages))
			}
		}
		b.ReportMetric(float64(len(pages)), "pages/op")
	})
}

// BenchmarkMitigation measures the wallet-splitting study (extension).
func BenchmarkMitigation(b *testing.B) {
	pages, _ := history(b)
	var feats []deanon.Features
	for _, p := range pages {
		for j := range p.Txs {
			if f, ok := deanon.FromTransaction(p, p.Txs[j], p.Metas[j]); ok {
				feats = append(feats, f)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows := deanon.MitigationStudy(feats, []int{1, 2, 4, 8})
		if rows[0].Exposure == 0 {
			b.Fatal("no exposure measured")
		}
	}
}

// BenchmarkLedgerCodec measures the canonical page serialization the
// store and hashing paths depend on.
func BenchmarkLedgerCodec(b *testing.B) {
	pages, _ := history(b)
	// Pick a mid-history page with transactions.
	var page *ledger.Page
	for _, p := range pages {
		if len(p.Txs) > 3 {
			page = p
			break
		}
	}
	if page == nil {
		page = pages[len(pages)/2]
	}
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = page.Encode(buf[:0])
		}
	})
	data := page.Encode(nil)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ledger.DecodePage(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
