package orderbook

import (
	"math/rand"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
)

// TestPropRandomOpsKeepInvariants drives random place/cancel/quote/apply
// sequences and verifies structural invariants after every operation:
// the owner index and the books agree, best-offer ordering holds, and
// consumed value respects offer quality.
func TestPropRandomOpsKeepInvariants(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	b := New()
	pair := Pair{Pays: amount.USD, Gets: amount.EUR}
	type ref struct {
		owner uint64
		seq   uint32
	}
	var standing []ref
	nextSeq := make(map[uint64]uint32)

	checkInvariants := func(step int) {
		// Owner index total equals NumOffers and book depths.
		ownerTotal := 0
		b.Owners(func(_ addr.AccountID, n int) { ownerTotal += n })
		depthTotal := 0
		b.Pairs(func(_ Pair, n int) { depthTotal += n })
		total := b.NumOffers()
		if ownerTotal != total || depthTotal != total {
			t.Fatalf("step %d: owner=%d depth=%d num=%d disagree", step, ownerTotal, depthTotal, total)
		}
		// Quote across the full depth must be sorted by quality: the
		// average unit price of a larger quote is never better than a
		// smaller one.
		q1, err1 := quoteBuy(b, pair, amount.MustParse("10"))
		q2, err2 := quoteBuy(b, pair, amount.MustParse("1000"))
		if err1 != nil || err2 != nil {
			t.Fatalf("step %d: quote errors %v %v", step, err1, err2)
		}
		if q1.TotalGets.IsPositive() && q2.TotalGets.IsPositive() {
			p1, e1 := q1.TotalPays.Div(q1.TotalGets)
			p2, e2 := q2.TotalPays.Div(q2.TotalGets)
			if e1 == nil && e2 == nil && p2.Cmp(p1) < 0 {
				// Allow one part in 1e12 of rounding slack.
				diff, _ := p1.Sub(p2)
				rel, err := diff.Div(p1)
				if err == nil && rel.Cmp(amount.MustValue(1, -12)) > 0 {
					t.Fatalf("step %d: larger quote has better price (%s < %s): book unsorted", step, p2, p1)
				}
			}
		}
	}

	for step := 0; step < 2000; step++ {
		switch op := r.Intn(10); {
		case op < 5: // place
			owner := uint64(1 + r.Intn(15))
			nextSeq[owner]++
			o := &Offer{
				Owner: acct(owner),
				Seq:   nextSeq[owner],
				Pays:  amount.New(amount.USD, amount.FromInt64(int64(50+r.Intn(200)))),
				Gets:  amount.New(amount.EUR, amount.FromInt64(int64(50+r.Intn(200)))),
			}
			if err := b.Place(o); err != nil {
				t.Fatalf("step %d: place: %v", step, err)
			}
			standing = append(standing, ref{owner, o.Seq})
		case op < 7: // cancel a random (possibly consumed) offer
			if len(standing) == 0 {
				continue
			}
			i := r.Intn(len(standing))
			b.Cancel(acct(standing[i].owner), standing[i].seq)
			standing = append(standing[:i], standing[i+1:]...)
		default: // quote+apply
			want := amount.FromInt64(int64(1 + r.Intn(300)))
			q, err := quoteBuy(b, pair, want)
			if err != nil {
				t.Fatalf("step %d: quote: %v", step, err)
			}
			if err := b.Apply(q); err != nil {
				t.Fatalf("step %d: apply: %v", step, err)
			}
		}
		checkInvariants(step)
	}
}
