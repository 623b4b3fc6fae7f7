package txq

import (
	"context"
	"fmt"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
)

// quoteTuple is one viable quote request discovered at bench setup.
type quoteTuple struct {
	src, dst addr.AccountID
	cur      amount.Currency
}

// benchState generates a synthetic economy and discovers user pairs
// with live liquidity between them (shared gateway, funded line).
func benchState(b *testing.B, payments int) (*payment.Engine, []quoteTuple) {
	b.Helper()
	res, err := synth.Generate(synth.Config{
		Payments: payments, Seed: 7, SkipSignatures: true,
	}, func(*ledger.Page) error { return nil })
	if err != nil {
		b.Fatal(err)
	}
	eng := res.Engine
	f := pathfind.New(eng.Graph(), eng.Books())
	var tuples []quoteTuple
	users := res.Population.Users
	for i := 0; i < len(users) && len(tuples) < 128; i++ {
		for j := i + 1; j < len(users) && len(tuples) < 128; j++ {
			for _, lu := range users[i].Lines {
				match := false
				for _, lv := range users[j].Lines {
					if lu.HostID == lv.HostID && lu.Currency == lv.Currency {
						match = true
						break
					}
				}
				if !match {
					continue
				}
				deliver := amount.New(lu.Currency, amount.MustParse("1"))
				if plan, err := f.FindPayment(users[i].ID, users[j].ID, lu.Currency, deliver); err == nil && plan != nil {
					tuples = append(tuples, quoteTuple{src: users[i].ID, dst: users[j].ID, cur: lu.Currency})
					break
				}
			}
		}
	}
	if len(tuples) == 0 {
		b.Fatal("no viable quote tuples in the generated economy")
	}
	return eng, tuples
}

// BenchmarkTxqFrontDoor measures the online front door: quote latency
// (cold search vs plan-cache hit) and sustained submission throughput
// through the admission queue and batch applier. The
// reported p50-ns/p99-ns metrics are the windowed latency quantiles the
// serving SLOs track; submissions/s is end-to-end (submit → applied).
func BenchmarkTxqFrontDoor(b *testing.B) {
	b.Run("quote_cold", func(b *testing.B) {
		eng, tuples := benchState(b, 2000)
		// CacheSize 1 forces (almost) every quote through a live search:
		// the steady-state cost of a cache miss.
		fd := New(eng, Options{CacheSize: 1})
		defer fd.Close()
		vals := []amount.Value{
			amount.MustParse("1"), amount.MustParse("2"), amount.MustParse("0.5"),
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tu := tuples[i%len(tuples)]
			deliver := amount.New(tu.cur, vals[i%len(vals)])
			if _, err := fd.PathFind(tu.src, tu.dst, tu.cur, deliver); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		p50, p99, _ := fd.QuoteLatency()
		b.ReportMetric(float64(p50.Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
	})

	b.Run("quote_cached", func(b *testing.B) {
		eng, tuples := benchState(b, 2000)
		fd := New(eng, Options{})
		defer fd.Close()
		tu := tuples[0]
		deliver := amount.New(tu.cur, amount.MustParse("1"))
		if _, err := fd.PathFind(tu.src, tu.dst, tu.cur, deliver); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := fd.PathFind(tu.src, tu.dst, tu.cur, deliver); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		p50, p99, _ := fd.QuoteLatency()
		b.ReportMetric(float64(p50.Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
		st := fd.StatsNow()
		if st.CacheHits == 0 {
			b.Fatal("cached quote bench never hit the cache")
		}
	})

	// Sustained direct-XRP submission at several queue depths: the
	// submit-to-applied latency under saturation is dominated by queue
	// wait, so the depth sweep is the latency-vs-depth curve.
	for _, depth := range []int{64, 512, 2048} {
		b.Run(fmt.Sprintf("submit_xrp_depth_%d", depth), func(b *testing.B) {
			eng := payment.NewEngine()
			const senders = 64
			accts := make([]addr.AccountID, senders)
			for i := range accts {
				accts[i] = addr.KeyPairFromSeed(uint64(1000 + i)).AccountID()
				eng.Fund(accts[i], 1<<40)
			}
			sink := addr.KeyPairFromSeed(99).AccountID()
			eng.Fund(sink, 1_000_000)
			fd := New(eng, Options{QueueDepth: depth, Backpressure: true, SubmitWait: time.Minute})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tx := &ledger.Tx{
					Type: ledger.TxPayment, Account: accts[i%senders], Fee: 10,
					Destination: sink, Amount: amount.XRPAmount(100),
				}
				if _, err := fd.Submit(tx); err != nil {
					b.Fatal(err)
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
			if err := fd.Drain(ctx); err != nil {
				b.Fatal(err)
			}
			cancel()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submissions/s")
			p50, p99, _ := fd.SubmitLatency()
			b.ReportMetric(float64(p50.Nanoseconds()), "p50-ns")
			b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
			fd.Close()
		})
	}

	b.Run("submit_iou", func(b *testing.B) {
		eng, tuples := benchState(b, 2000)
		fd := New(eng, Options{QueueDepth: 2048, Backpressure: true, SubmitWait: time.Minute})
		small := amount.MustParse("0.0001")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tu := tuples[i%len(tuples)]
			tx := &ledger.Tx{
				Type: ledger.TxPayment, Account: tu.src, Fee: 10,
				Destination: tu.dst, Amount: amount.New(tu.cur, small),
			}
			if _, err := fd.Submit(tx); err != nil {
				b.Fatal(err)
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := fd.Drain(ctx); err != nil {
			b.Fatal(err)
		}
		cancel()
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "submissions/s")
		p50, p99, _ := fd.SubmitLatency()
		b.ReportMetric(float64(p50.Nanoseconds()), "p50-ns")
		b.ReportMetric(float64(p99.Nanoseconds()), "p99-ns")
		st := fd.StatsNow()
		b.Logf("iou: applied=%d batches=%d", st.Applied, st.Batches)
		fd.Close()
	})
}
