package txq

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/replay"
	"ripplestudy/internal/synth"
)

// generate builds a small synthetic history in memory.
func generate(t testing.TB, payments int, seed int64) []*ledger.Page {
	t.Helper()
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{
		Payments: payments, Seed: seed, SkipSignatures: true,
	}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pages
}

// storeWithHistory persists pages into a fresh store in a test temp
// directory, the history replay reads.
func storeWithHistory(t testing.TB, pages []*ledger.Page) *ledgerstore.Store {
	t.Helper()
	store, err := ledgerstore.Create(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return store
}

// drainAndClose waits for the front door to resolve everything admitted
// and shuts it down.
func drainAndClose(t testing.TB, fd *FrontDoor) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := fd.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	fd.Close()
}

// TestFrontDoorDifferentialDigest is the acceptance differential: the
// same post-snapshot history, once through sequential replay.RunOpts and
// once as live submissions through the admission queue and the batch
// applier, must land on a bit-identical state digest. Equal fees
// make the escalation heap globally FIFO, and auto-sequencing mirrors
// replayTx's sequence rewrite, so apply order and applied bytes match.
func TestFrontDoorDifferentialDigest(t *testing.T) {
	pages := generate(t, 3000, 42)
	mid := pages[len(pages)/2].Header.Sequence
	store := storeWithHistory(t, pages)

	want, err := replay.RunOpts(store, mid, replay.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}

	eng, err := replay.BuildStateOpts(store, mid, replay.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	removedList := eng.RemoveMarketMakers()
	removed := make(map[addr.AccountID]bool, len(removedList))
	for _, a := range removedList {
		removed[a] = true
	}

	fd := New(eng, Options{QueueDepth: 512, BatchSize: 64, Backpressure: true, SubmitWait: 30 * time.Second})
	submitted := 0
	for _, p := range pages {
		if p.Header.Sequence <= mid {
			continue
		}
		for i, tx := range p.Txs {
			meta := p.Metas[i]
			// The replay.classify filters: trust-line updates not touching
			// removed accounts, successful indirect payments whose
			// endpoints survive the market-maker ablation.
			switch tx.Type {
			case ledger.TxTrustSet:
				if removed[tx.Account] || removed[tx.LimitPeer] {
					continue
				}
			case ledger.TxPayment:
				if !meta.Result.Succeeded() || tx.IsDirectXRP() {
					continue
				}
				if removed[tx.Account] || removed[tx.Destination] {
					continue
				}
			default:
				continue
			}
			sub := *tx
			sub.Sequence = 0 // auto-sequence, as replayTx rewrites
			if _, err := fd.Submit(&sub); err != nil {
				t.Fatalf("submit tx %d of page %d: %v", i, p.Header.Sequence, err)
			}
			submitted++
		}
	}
	drainAndClose(t, fd)

	if got := fd.StateDigest(); got != want.StateDigest {
		t.Fatalf("queued live submissions digest %s != sequential replay digest %s",
			got.Short(), want.StateDigest.Short())
	}
	st := fd.StatsNow()
	if st.Applied != uint64(submitted) {
		t.Errorf("applied = %d, want %d (every admitted tx resolved)", st.Applied, submitted)
	}
	if st.Shed != 0 || st.Rejected != 0 {
		t.Errorf("shed = %d rejected = %d, want 0/0 under backpressure", st.Shed, st.Rejected)
	}
	if submitted > 0 && st.Batches == 0 {
		t.Error("no batches recorded")
	}
	if st.PlannedAhead != 0 || st.Conflicts != 0 {
		t.Errorf("planned ahead %d, conflicts %d: the front door plans nothing ahead of its commits",
			st.PlannedAhead, st.Conflicts)
	}
	t.Logf("differential: %d txs, %d batches", submitted, st.Batches)
}

// TestFrontDoorConcurrentPerAccountOrdering hammers the queue from many
// account goroutines with explicit sequences and escalating fees. Any
// same-account reorder would apply a later sequence first and fail with
// BadSequence, so "every tx succeeded" is the ordering invariant.
func TestFrontDoorConcurrentPerAccountOrdering(t *testing.T) {
	const accounts = 8
	const perAccount = 40

	eng := payment.NewEngine()
	sink := acct(10_000)
	eng.Fund(sink, 1_000_000)
	senders := make([]addr.AccountID, accounts)
	for i := range senders {
		senders[i] = acct(uint64(100 + i))
		eng.Fund(senders[i], 100_000_000)
	}
	fd := New(eng, Options{QueueDepth: 64, BatchSize: 16, Backpressure: true, SubmitWait: 30 * time.Second})

	var wg sync.WaitGroup
	tickets := make([][]*Ticket, accounts)
	for i := range senders {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			from := senders[i]
			for s := 0; s < perAccount; s++ {
				tx := &ledger.Tx{
					Type:        ledger.TxPayment,
					Account:     from,
					Sequence:    uint32(1 + s), // funded accounts start at sequence 1
					Fee:         amount.Drops(10 + (s%7)*10),
					Destination: sink,
					Amount:      amount.XRPAmount(100),
				}
				tk, err := fd.Submit(tx)
				if err != nil {
					t.Errorf("account %d seq %d: %v", i, s+1, err)
					return
				}
				tickets[i] = append(tickets[i], tk)
			}
		}(i)
	}
	wg.Wait()
	drainAndClose(t, fd)

	ctx := context.Background()
	for i, tks := range tickets {
		for s, tk := range tks {
			st, err := tk.Wait(ctx)
			if err != nil {
				t.Fatalf("account %d seq %d status: %v", i, s+1, err)
			}
			if !st.Succeeded {
				t.Fatalf("account %d seq %d result %q — per-account sequence order violated", i, s+1, st.Result)
			}
		}
	}
	fd.WithEngine(func(eng *payment.Engine) {
		for i, from := range senders {
			if next := eng.NextSequence(from); next != perAccount+1 {
				t.Errorf("account %d next sequence = %d, want %d", i, next, perAccount+1)
			}
		}
	})
}

// TestFrontDoorShedFailFast pins the fail-fast admission path: with no
// backpressure a full queue sheds immediately with ErrQueueFull.
func TestFrontDoorShedFailFast(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{QueueDepth: 2, BatchSize: 256})

	// Depth 2: submissions beyond the queue bound shed until the applier
	// frees slots; at least one of an immediate burst of 50 must shed.
	var shed, admitted int
	for i := 0; i < 50; i++ {
		tx := &ledger.Tx{
			Type: ledger.TxPayment, Account: from, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(100),
		}
		_, err := fd.Submit(tx)
		switch {
		case err == nil:
			admitted++
		case errors.Is(err, ErrQueueFull):
			shed++
		default:
			t.Fatalf("unexpected submit error: %v", err)
		}
	}
	drainAndClose(t, fd)
	st := fd.StatsNow()
	if st.Offered != 50 {
		t.Fatalf("offered = %d, want 50", st.Offered)
	}
	if st.Shed != uint64(shed) || st.Applied != uint64(admitted) {
		t.Errorf("stats shed=%d applied=%d, observed shed=%d admitted=%d", st.Shed, st.Applied, shed, admitted)
	}
	if st.Shed+st.Applied+st.Rejected != st.Offered {
		t.Errorf("shed(%d) + applied(%d) + rejected(%d) != offered(%d)", st.Shed, st.Applied, st.Rejected, st.Offered)
	}
}

// FuzzAdmission fuzzes the admission boundary: arbitrary bursts against
// arbitrary queue depths, with a sprinkle of malformed submissions, must
// always account for every offer — shed + applied + rejected == offered
// — and never deadlock.
func FuzzAdmission(f *testing.F) {
	f.Add(uint8(8), uint8(2), false, uint8(0))
	f.Add(uint8(50), uint8(1), true, uint8(3))
	f.Add(uint8(200), uint8(16), false, uint8(7))
	f.Fuzz(func(t *testing.T, n, depth uint8, backpressure bool, malformedEvery uint8) {
		eng := payment.NewEngine()
		from := acct(1)
		eng.Fund(from, 1_000_000_000)
		fd := New(eng, Options{
			QueueDepth:   int(depth%16) + 1,
			BatchSize:    8,
			Backpressure: backpressure,
			SubmitWait:   20 * time.Second,
		})

		var wg sync.WaitGroup
		const submitters = 4
		for w := 0; w < submitters; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < int(n); i++ {
					var tx *ledger.Tx
					if malformedEvery > 0 && i%int(malformedEvery)+1 == 1 && w == 0 {
						tx = &ledger.Tx{Type: ledger.TxType(99)} // unknown type: rejected
					} else {
						tx = &ledger.Tx{
							Type: ledger.TxPayment, Account: from, Fee: 10,
							Destination: acct(2), Amount: amount.XRPAmount(10),
						}
					}
					_, err := fd.Submit(tx)
					if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrMalformed) {
						t.Errorf("submit: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		drainAndClose(t, fd)
		st := fd.StatsNow()
		if st.Shed+st.Applied+st.Rejected != st.Offered {
			t.Fatalf("shed(%d) + applied(%d) + rejected(%d) != offered(%d)",
				st.Shed, st.Applied, st.Rejected, st.Offered)
		}
		if backpressure && st.Offered == uint64(submitters)*uint64(n) && st.Depth != 0 {
			t.Fatalf("depth = %d after drain", st.Depth)
		}
	})
}

// TestFrontDoorMalformedRejected covers the pre-admission rejections.
func TestFrontDoorMalformedRejected(t *testing.T) {
	eng := payment.NewEngine()
	fd := New(eng, Options{QueueDepth: 4})
	defer fd.Close()
	if _, err := fd.Submit(nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("nil tx: err = %v, want ErrMalformed", err)
	}
	if _, err := fd.Submit(&ledger.Tx{Type: ledger.TxPayment}); !errors.Is(err, ErrMalformed) {
		t.Errorf("zero account: err = %v, want ErrMalformed", err)
	}
	// Duplicate detection covers queued transactions only, so the first of
	// the pair must still be queued when its duplicate arrives. Park the
	// applier: while this goroutine holds the engine read lock, a
	// sacrificial batch gets popped and its commit blocks on the write
	// lock, so nothing submitted before the lock is released is popped.
	fd.WithEngine(func(*payment.Engine) {
		if _, err := fd.Submit(&ledger.Tx{Type: ledger.TxPayment, Account: acct(3), Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(1)}); err != nil {
			t.Fatalf("sacrificial submit: %v", err)
		}
		for fd.q.size() > 0 {
			time.Sleep(50 * time.Microsecond)
		}
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: acct(1), Sequence: 3, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(1)}
		if _, err := fd.Submit(tx); err != nil {
			t.Fatalf("explicit sequence submit: %v", err)
		}
		dup := *tx
		if _, err := fd.Submit(&dup); !errors.Is(err, ErrDuplicateSequence) {
			t.Errorf("duplicate explicit sequence: err = %v, want ErrDuplicateSequence", err)
		}
		if st, ok := fd.Status(tx.Hash()); !ok || st.State != "queued" {
			t.Errorf("after the duplicate's rejection the queued original's hash resolves to %+v, %v", st, ok)
		}
	})
	st := fd.StatsNow()
	if st.Rejected != 3 {
		t.Errorf("rejected = %d, want 3", st.Rejected)
	}
}

// TestFrontDoorAccountSet pins that the front door admits every type
// the engine applies: an auto-sequenced AccountSet consumes its sequence,
// burns its fee, and leaves the digest a sequential Engine.Apply of the
// filled-in copy leaves.
func TestFrontDoorAccountSet(t *testing.T) {
	from := acct(1)
	const funds = 100_000_000
	eng, ref := payment.NewEngine(), payment.NewEngine()
	eng.Fund(from, funds)
	ref.Fund(from, funds)
	fd := New(eng, Options{QueueDepth: 4})
	tx := &ledger.Tx{Type: ledger.TxAccountSet, Account: from, Fee: 25}
	tk, err := fd.Submit(tx)
	if err != nil {
		t.Fatalf("submit AccountSet: %v", err)
	}
	st, err := tk.Wait(context.Background())
	if err != nil || !st.Succeeded || st.Sequence != 1 {
		t.Fatalf("AccountSet status = %+v, %v; want succeeded at sequence 1", st, err)
	}
	drainAndClose(t, fd)

	filled := *tx
	filled.Sequence = 1
	if meta, err := ref.Apply(&filled); err != nil || !meta.Result.Succeeded() {
		t.Fatalf("reference apply: %v, %v", meta, err)
	}
	if got, want := eng.NextSequence(from), uint32(2); got != want {
		t.Errorf("next sequence = %d, want %d", got, want)
	}
	if got, want := eng.XRPBalance(from), amount.Drops(funds-25); got != want {
		t.Errorf("balance = %d drops, want %d (fee burned)", got, want)
	}
	if eng.StateDigest() != ref.StateDigest() {
		t.Error("front-door digest differs from the sequential apply")
	}
}

// TestFrontDoorSubmitAfterClose pins ErrClosed.
func TestFrontDoorSubmitAfterClose(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 1_000_000)
	fd := New(eng, Options{QueueDepth: 4})
	fd.Close()
	tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
		Destination: acct(2), Amount: amount.XRPAmount(1)}
	if _, err := fd.Submit(tx); !errors.Is(err, ErrClosed) {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
}

// TestFrontDoorStatusLookup pins which hash reaches a status. An
// explicit-sequence submission is hashed at admission: its ticket
// carries its final hash, which resolves while it is queued and once it
// is applied. An auto-sequenced one is hashed only at apply: its ticket
// carries no hash, and its status reports the filled-in copy's.
func TestFrontDoorStatusLookup(t *testing.T) {
	setup := func(t *testing.T) (*FrontDoor, addr.AccountID) {
		eng := payment.NewEngine()
		from := acct(1)
		eng.Fund(from, 100_000_000)
		fd := New(eng, Options{QueueDepth: 4, Backpressure: true})
		t.Cleanup(func() { drainAndClose(t, fd) })
		return fd, from
	}
	applied := func(t *testing.T, tk *Ticket) TxStatus {
		t.Helper()
		st, err := tk.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if !st.Succeeded || st.State != "applied" || st.Sequence != 1 {
			t.Fatalf("status = %+v, want applied+succeeded at sequence 1", st)
		}
		if st.WaitNS <= 0 {
			t.Error("submit-to-applied latency not recorded")
		}
		if got, ok := tk.fd.Status(st.Hash); !ok || got != st {
			t.Errorf("Status(final hash) = %+v, %v; want %+v", got, ok, st)
		}
		return st
	}

	t.Run("explicit", func(t *testing.T) {
		fd, from := setup(t)
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Sequence: 1, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(500)}
		var tk *Ticket
		// While this goroutine holds the engine read lock, nothing applies.
		fd.WithEngine(func(*payment.Engine) {
			var err error
			if tk, err = fd.Submit(tx); err != nil {
				t.Fatal(err)
			}
			if tk.Hash != tx.Hash() {
				t.Fatalf("ticket hash %s, want the transaction's %s", tk.Hash.Short(), tx.Hash().Short())
			}
			if st, ok := fd.Status(tk.Hash); !ok || st.State != "queued" || st.Hash != tk.Hash {
				t.Errorf("queued: Status(ticket hash) = %+v, %v", st, ok)
			}
		})
		if st := applied(t, tk); st.Hash != tk.Hash {
			t.Errorf("applied under hash %s, want the ticket's %s", st.Hash.Short(), tk.Hash.Short())
		}
	})

	t.Run("auto", func(t *testing.T) {
		fd, from := setup(t)
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(500)}
		tk, err := fd.Submit(tx)
		if err != nil {
			t.Fatal(err)
		}
		if !tk.Hash.IsZero() {
			t.Errorf("auto-sequenced ticket carries hash %s, want zero", tk.Hash.Short())
		}
		st := applied(t, tk)
		filled := *tx
		filled.Sequence = st.Sequence
		if st.Hash != filled.Hash() {
			t.Errorf("status hash %s, want the filled-in copy's %s", st.Hash.Short(), filled.Hash().Short())
		}
		if _, ok := fd.Status(tx.Hash()); ok {
			t.Error("an unregistered as-submitted hash resolves")
		}
	})
}

// TestFrontDoorStatusRingGrowsOnDemand pins that New with default
// options does not allocate the full StatusCapacity ring: it holds
// exactly the statuses resolved so far.
func TestFrontDoorStatusRingGrowsOnDemand(t *testing.T) {
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{})
	defer drainAndClose(t, fd)
	ring := func() (n, c int) {
		fd.stMu.Lock()
		defer fd.stMu.Unlock()
		return len(fd.resolved), cap(fd.resolved)
	}
	if n, c := ring(); n != 0 || c != 0 {
		t.Fatalf("New allocated a status ring of %d/%d slots", n, c)
	}
	const resolutions = 5
	for i := 0; i < resolutions; i++ {
		tk, err := fd.Submit(&ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(amount.Drops(100 + i))})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n, c := ring(); n != resolutions || c >= fd.opts.StatusCapacity {
		t.Fatalf("after %d resolutions the ring holds %d of %d slots (capacity %d)", resolutions, n, c, fd.opts.StatusCapacity)
	}
}

// TestFrontDoorStatusEviction pins the retained-status window: after
// StatusCapacity more resolutions a status is unreachable by its final
// hash and by the as-submitted hash registered for it, its ticket's Wait
// reports the eviction, and registering it again restores nothing. A
// hash shared with a later submission keeps resolving to the later one,
// whichever registers first.
func TestFrontDoorStatusEviction(t *testing.T) {
	const capacity = 4
	eng := payment.NewEngine()
	from := acct(1)
	eng.Fund(from, 100_000_000)
	fd := New(eng, Options{QueueDepth: 4, Backpressure: true, StatusCapacity: capacity})
	defer drainAndClose(t, fd)
	ctx := context.Background()
	// submit resolves one auto-sequenced payment of drops to acct(2),
	// registering its as-submitted hash as HandleSubmit does, and
	// returns its ticket, that hash and its final status.
	submit := func(drops amount.Drops) (*Ticket, ledger.Hash, TxStatus) {
		t.Helper()
		tx := &ledger.Tx{Type: ledger.TxPayment, Account: from, Fee: 10,
			Destination: acct(2), Amount: amount.XRPAmount(drops)}
		tk, err := fd.Submit(tx)
		if err != nil {
			t.Fatal(err)
		}
		sub := tx.Hash()
		fd.register(tk.rec, sub)
		st, err := tk.Wait(ctx)
		if err != nil || !st.Succeeded {
			t.Fatalf("payment of %d drops: %+v, %v", drops, st, err)
		}
		if st.Hash == sub {
			t.Fatalf("payment of %d drops: auto-sequenced, yet applied as submitted", drops)
		}
		return tk, sub, st
	}
	reachable := func(h ledger.Hash, id uint64) bool {
		st, ok := fd.Status(h)
		return ok && st.ID == id
	}

	const n = 10
	tickets := make([]*Ticket, n)
	submitted := make([]ledger.Hash, n)
	applied := make([]ledger.Hash, n)
	for i := range tickets {
		var st TxStatus
		tickets[i], submitted[i], st = submit(amount.Drops(100 + i))
		applied[i] = st.Hash
	}
	for i, tk := range tickets {
		kept := i >= n-capacity
		for _, h := range []ledger.Hash{submitted[i], applied[i]} {
			if _, ok := fd.Status(h); ok != kept {
				t.Errorf("submission %d: Status(%s) found = %v, want %v", i, h.Short(), ok, kept)
			}
		}
		if _, err := tk.Wait(ctx); kept && err != nil {
			t.Errorf("submission %d: Wait = %v on a retained status", i, err)
		} else if !kept && !errors.Is(err, errEvicted) {
			t.Errorf("submission %d: Wait = %v, want %v", i, err, errEvicted)
		}
	}
	// A registration that arrives after the eviction (a slow handler)
	// must not bring the status back.
	fd.register(tickets[0].rec, submitted[0])
	if _, ok := fd.Status(submitted[0]); ok {
		t.Error("an evicted status was registered again")
	}

	// The same auto-sequenced payment twice shares its as-submitted hash;
	// the later submission owns it, also against a late registration of
	// the earlier one, and evicting the earlier must not take it away.
	first, firstSub, firstSt := submit(7)
	second, secondSub, secondSt := submit(7)
	if firstSub != secondSub {
		t.Fatal("identical auto-sequenced submissions hash differently")
	}
	if !reachable(firstSub, second.ID) {
		t.Error("shared as-submitted hash does not resolve to the later submission")
	}
	fd.register(first.rec, firstSub)
	if !reachable(firstSub, second.ID) {
		t.Error("a late registration of the earlier submission took the shared hash")
	}
	for i := 0; i < capacity-1; i++ {
		submit(amount.Drops(200 + i))
	}
	if _, ok := fd.Status(firstSt.Hash); ok {
		t.Error("evicted submission still resolves by its as-applied hash")
	}
	if !reachable(secondSub, second.ID) || !reachable(secondSt.Hash, second.ID) {
		t.Error("evicting the earlier submission took the later one's hashes with it")
	}
}
