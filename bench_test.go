// Benchmarks for the experiment kernels the end-to-end harness in
// bench/ does not time (Fig. 2, Figs. 4-7, the Table I rounding, the
// mitigation study, the page codec), plus ablation benches for the
// design choices DESIGN.md calls out. Fig. 3 and Table II are timed
// there (core.figure3_*, replay.run_seq_s), not here.
//
//	go test -run '^$' -bench . -benchmem
//
// The benches share one generated history (built once); each measures
// the cost of regenerating its experiment's data from that history.
package ripplestudy_test

import (
	"fmt"
	"sync"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/analysis"
	"ripplestudy/internal/consensus"
	"ripplestudy/internal/deanon"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/monitor"
	"ripplestudy/internal/orderbook"
	"ripplestudy/internal/pathfind"
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
