package main

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/pathfind"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/synth"
	"ripplestudy/internal/txq"
)

const (
	submitSenders   = 64  // funded XRP senders
	submitTuples    = 128 // viable IOU (src, dst, currency) tuples wanted
	submitMinTuples = 16
	submitWarm      = 300 * time.Millisecond
	submitWindow    = 500 * time.Millisecond // stretch of either phase that is one window
	submitKeepEvery = 16                     // tickets checked one by one; the rest are checked by count
	// Mix, in percent: direct XRP payments, IOU path payments, and the
	// rest PathFind quotes.
	submitXRPShare = 60
	submitIOUShare = 30
)

// iouTuple is a pair of users with live liquidity between them through a
// shared gateway. Payments alternate direction, so the pair's balances
// return to where they started and the liquidity never drains.
type iouTuple struct {
	a, b addr.AccountID
	cur  amount.Currency
	uses int
}

// submitOp is one generated operation: enough to rebuild the exact
// transaction for the sequential oracle.
type submitOp struct {
	kind  uint8 // 0 XRP payment, 1 IOU payment, 2 quote
	idx   int32 // sender or tuple index
	flip  bool  // IOU direction b→a
	value uint8 // quote amount menu index
}

// submitMixed drives the payment engine online: admission queue, plan
// cache and optimistic batches, with quotes (reads) beside applies.
type submitMixed struct {
	payments int
	rate     float64 // paced submissions per second

	rc      *runCtx
	fix     *fixture
	fd      *txq.FrontDoor
	senders []addr.AccountID
	sink    addr.AccountID
	tuples  []iouTuple
	supply  uint64 // TotalDrops + FeesDestroyed, conserved by every apply
}

var (
	submitIOUAmount  = amount.MustParse("0.0001")
	submitQuoteMenu  = []amount.Value{amount.MustParse("1"), amount.MustParse("2"), amount.MustParse("0.5")}
	submitXRPPayment = amount.XRPAmount(100)
)

func (s *submitMixed) header() string {
	return fmt.Sprintf("digest=%s pages=%d payments=%d events=0 senders=%d iou_tuples=%d",
		s.fix.digest, s.fix.npages, s.fix.payments, len(s.senders), len(s.tuples))
}

func (s *submitMixed) prepare(rc *runCtx) error {
	s.rc = rc
	fix, err := buildFixture(fixtureOpts{payments: s.payments, seed: rc.seed})
	if err != nil {
		return err
	}
	s.fix = fix
	eng := fix.res.Engine
	s.tuples = viableTuples(fix.res, submitTuples)
	if len(s.tuples) < submitMinTuples {
		return fmt.Errorf("only %d viable IOU tuples in the generated economy, need %d", len(s.tuples), submitMinTuples)
	}
	s.senders = make([]addr.AccountID, submitSenders)
	for i := range s.senders {
		s.senders[i] = addr.KeyPairFromSeed(uint64(1000 + i)).AccountID()
		eng.Fund(s.senders[i], 1<<40)
	}
	s.sink = addr.KeyPairFromSeed(99).AccountID()
	eng.Fund(s.sink, 1_000_000)
	s.supply = eng.TotalDrops() + uint64(eng.FeesDestroyed())

	s.fd = txq.New(eng, txq.Options{QueueDepth: 512, Backpressure: true, SubmitWait: 30 * time.Second, PlanWorkers: rc.workers})
	warm := &outcome{}
	s.saturate(warm, nil, -1, submitWarm, &recorder{})
	if warm.failed > 0 {
		return fmt.Errorf("warm-up failed its oracle: %v", warm.failures)
	}
	return nil
}

// viableTuples finds user pairs that share a gateway and currency and
// between which a payment of one unit finds a path today, the way
// internal/txq's own benchmark does.
func viableTuples(res *synth.Result, want int) []iouTuple {
	f := pathfind.New(res.Engine.Graph(), res.Engine.Books())
	one := amount.MustParse("1")
	users := res.Population.Users
	var tuples []iouTuple
	for i := 0; i < len(users) && len(tuples) < want; i++ {
		for j := i + 1; j < len(users) && len(tuples) < want; j++ {
			for _, lu := range users[i].Lines {
				shared := false
				for _, lv := range users[j].Lines {
					if lu.HostID == lv.HostID && lu.Currency == lv.Currency {
						shared = true
						break
					}
				}
				if !shared {
					continue
				}
				if plan, err := f.FindPayment(users[i].ID, users[j].ID, lu.Currency, amount.New(lu.Currency, one)); err == nil && plan != nil {
					tuples = append(tuples, iouTuple{a: users[i].ID, b: users[j].ID, cur: lu.Currency})
					break
				}
			}
		}
	}
	return tuples
}

// next draws one operation. part and parts restrict the draw to this
// generator's share of the senders and tuples, so concurrent generators
// never touch the same ping-pong counter.
func (s *submitMixed) next(rng *rand.Rand, part, parts int) submitOp {
	switch r := rng.Intn(100); {
	case r < submitXRPShare:
		return submitOp{kind: 0, idx: int32(part + parts*rng.Intn(len(s.senders)/parts))}
	case r < submitXRPShare+submitIOUShare:
		i := part + parts*rng.Intn(len(s.tuples)/parts)
		tu := &s.tuples[i]
		tu.uses++
		return submitOp{kind: 1, idx: int32(i), flip: tu.uses%2 == 0}
	default:
		return submitOp{kind: 2, idx: int32(part + parts*rng.Intn(len(s.tuples)/parts)), value: uint8(rng.Intn(len(submitQuoteMenu)))}
	}
}

// tx builds the transaction of a payment operation (auto-sequenced).
func (s *submitMixed) tx(op submitOp) *ledger.Tx {
	if op.kind == 0 {
		return &ledger.Tx{Type: ledger.TxPayment, Account: s.senders[op.idx], Fee: payment.BaseFee, Destination: s.sink, Amount: submitXRPPayment}
	}
	tu := s.tuples[op.idx]
	src, dst := tu.a, tu.b
	if op.flip {
		src, dst = dst, src
	}
	return &ledger.Tx{Type: ledger.TxPayment, Account: src, Fee: payment.BaseFee, Destination: dst, Amount: amount.New(tu.cur, submitIOUAmount)}
}

func (s *submitMixed) quote(op submitOp) error {
	tu := s.tuples[op.idx]
	_, err := s.fd.PathFind(tu.a, tu.b, tu.cur, amount.New(tu.cur, submitQuoteMenu[op.value]))
	return err
}

// drain waits for the queue to empty and checks the conserved supply.
func (s *submitMixed) drain(out *outcome, what string) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.fd.Drain(ctx); err != nil {
		out.failf("%s: drain: %v", what, err)
	}
	s.fd.WithEngine(func(eng *payment.Engine) {
		if got := eng.TotalDrops() + uint64(eng.FeesDestroyed()); got != s.supply {
			out.failf("%s: TotalDrops+FeesDestroyed = %d, was %d", what, got, s.supply)
		}
	})
}

// settle checks that every kept ticket reached its final status and that
// the front door applied exactly as many transactions as were admitted.
func (s *submitMixed) settle(out *outcome, kept []*txq.Ticket, admitted int, appliedBefore uint64, what string) {
	out.attempted += admitted
	for _, t := range kept {
		select {
		case <-t.Done():
		default:
			out.failf("%s: ticket %d never reached a final status", what, t.ID)
		}
	}
	if applied := s.fd.StatsNow().Applied - appliedBefore; applied != uint64(admitted) {
		out.failf("%s: %d submissions admitted, %d reached a final status", what, admitted, applied)
	}
}

// saturate is one window of the closed phase: workers submitters push
// the seeded mix as fast as admission lets them for d, then the queue
// drains. Every submitter keeps one ticket in submitKeepEvery to check
// directly; the rest are checked by count.
func (s *submitMixed) saturate(out *outcome, tr *tracer, window int, d time.Duration, rec *recorder) {
	parts := s.rc.workers
	kept := make([][]*txq.Ticket, parts)
	admitted := make([]int, parts)
	before := s.fd.StatsNow().Applied
	root := tr.begin("saturation", 0, window)
	rec.begin()
	stop := time.Now().Add(d)
	var mu sync.Mutex // guards out against concurrent submitters
	var wg sync.WaitGroup
	for g := 0; g < parts; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(s.rc.seed*31 + int64(window*parts+g)))
			for n := 0; n%32 != 0 || time.Now().Before(stop); n++ {
				op := s.next(rng, g, parts)
				var err error
				if op.kind == 2 {
					err = s.quote(op)
				} else {
					var t *txq.Ticket
					if t, err = s.fd.Submit(s.tx(op)); err == nil {
						if admitted[g]%submitKeepEvery == 0 {
							kept[g] = append(kept[g], t)
						}
						admitted[g]++
					}
				}
				if err != nil {
					mu.Lock()
					out.attempted++
					out.failf("saturation: operation refused: %v", err)
					mu.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
	tr.call("txq.Drain", root, window, func() error { s.drain(out, "saturation"); return nil })
	total := 0
	for _, n := range admitted {
		total += n
	}
	rec.end(float64(total))
	tr.end(root)
	s.settle(out, slices.Concat(kept...), total, before, "saturation")
}

// pacedSubmit is what the open phase measured beside the submit-to-final
// latencies, which go straight to the recorder.
type pacedSubmit struct {
	admit, quotes []time.Duration
	late          []time.Duration
	submitted     int
}

// pending is a submitted transaction waiting for its final status.
type pending struct {
	due time.Time
	t   *txq.Ticket
}

// paced is the open phase: one generator releases the mix at a fixed
// rate on schedTick boundaries, in windows of submitWindow; every
// submission is timed from its due time to its ticket's final status.
// The single generator makes the order deterministic, so the phase ends
// with the strongest oracle: the same transactions applied one by one on
// a clone must reach the same state digest.
func (s *submitMixed) paced(out *outcome, tr *tracer, rec *recorder, d time.Duration) *pacedSubmit {
	var clone *payment.Engine
	s.fd.WithEngine(func(eng *payment.Engine) { clone = eng.Clone() })

	res := &pacedSubmit{}
	var ops []submitOp
	rng := rand.New(rand.NewSource(s.rc.seed*17 + 5))
	root := tr.begin("paced", 0, 0)
	for left := d; left > 0; left -= submitWindow {
		window := min(left, submitWindow)
		// Sized to the number of sends, so the generator never blocks on it.
		inflight := make(chan pending, int(s.rate*window.Seconds())+1)
		collected := make(chan struct{})
		go func() {
			defer close(collected)
			for p := range inflight {
				<-p.t.Done()
				rec.op(time.Since(p.due))
			}
		}()
		late := pace(wallClock{}, s.rate, window, func(due time.Time, n int) {
			for i := 0; i < n; i++ {
				op := s.next(rng, 0, 1)
				ops = append(ops, op)
				t0 := time.Now()
				if op.kind == 2 {
					if err := s.quote(op); err != nil {
						out.attempted++
						out.failf("paced: quote: %v", err)
					}
					res.quotes = append(res.quotes, time.Since(t0))
					continue
				}
				t, err := s.fd.Submit(s.tx(op))
				res.admit = append(res.admit, time.Since(t0))
				out.attempted++
				if err != nil {
					out.failf("paced: submit refused: %v", err)
					continue
				}
				res.submitted++
				inflight <- pending{due, t}
			}
		})
		close(inflight)
		<-collected
		res.late = append(res.late, late...)
		rec.closeWindow()
	}
	tr.call("txq.Drain", root, 0, func() error { s.drain(out, "paced"); return nil })
	tr.end(root)

	// Sequential oracle on the clone taken before the phase.
	for _, op := range ops {
		if op.kind == 2 {
			continue
		}
		tx := s.tx(op)
		tx.Sequence = clone.NextSequence(tx.Account)
		if _, err := clone.Apply(tx); err != nil {
			out.failf("paced: sequential oracle: %v", err)
			break
		}
	}
	if got, want := s.fd.StateDigest(), clone.StateDigest(); got != want {
		out.failf("paced: front door reached digest %s, sequential Engine.Apply %s", got, want)
	}
	return res
}

func (s *submitMixed) measure(budget time.Duration, tr *tracer) *outcome {
	out := &outcome{layer: map[string]float64{}}
	before := s.fd.StatsNow()
	rec := newRecorder(s.rc.speed)
	windows := 0
	for start := time.Now(); time.Since(start) < budget/2; windows++ {
		s.saturate(out, tr, windows, submitWindow, rec)
		rec.closeWindow()
	}
	res := s.paced(out, tr, rec, budget/2)
	out.checkSchedule("submission generator", res.late)
	rec.finish(out)

	st := s.fd.StatsNow()
	out.infof("saturation: %d windows of %v from %d submitters; paced: %d submissions and %d quotes at %.0f ops/s in windows of %v",
		windows, submitWindow, s.rc.workers, res.submitted, len(res.quotes), s.rate, submitWindow)
	out.layer["txq.submit_admit_us"] = summarise(res.admit).p50 * 1000
	out.layer["txq.quote_live_p50_us"] = summarise(res.quotes).p50 * 1000
	out.layer["txq.cache_hit_share"] = share(st.CacheHits-before.CacheHits, st.CacheHits-before.CacheHits+st.CacheMisses-before.CacheMisses+st.CacheStale-before.CacheStale)
	out.layer["txq.replan_share"] = share(st.Conflicts-before.Conflicts, st.Conflicts-before.Conflicts+st.PlannedAhead-before.PlannedAhead)
	out.layer["txq.batch_size_mean"] = float64(st.Applied-before.Applied) / float64(max(st.Batches-before.Batches, 1))
	out.layer["txq.shed_share"] = share(st.Shed-before.Shed, st.Offered-before.Offered)
	out.layer["txq.succeeded_share"] = share(st.Succeeded-before.Succeeded, st.Applied-before.Applied)
	return out
}

// share is part/whole, 0 for an empty whole.
func share(part, whole uint64) float64 {
	if whole == 0 {
		return 0
	}
	return float64(part) / float64(whole)
}

func (s *submitMixed) close() {
	if s.fd != nil {
		s.fd.Close()
	}
}
