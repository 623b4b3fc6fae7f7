package orderbook

import (
	"testing"

	"ripplestudy/internal/amount"
)

func TestLookup(t *testing.T) {
	b := New()
	o := offer(1, 7, "110", "100")
	if err := b.Place(o); err != nil {
		t.Fatal(err)
	}
	if got := b.Lookup(acct(1), 7); got != o {
		t.Fatalf("Lookup = %p, want the placed offer %p", got, o)
	}
	if b.Lookup(acct(1), 8) != nil || b.Lookup(acct(2), 7) != nil {
		t.Error("Lookup of a missing offer must be nil")
	}
	b.Cancel(acct(1), 7)
	if b.Lookup(acct(1), 7) != nil {
		t.Error("Lookup after cancel must be nil")
	}
}

// TestBestQuality: the best offer of a book carries the lowest
// memoized quality.
func TestBestQuality(t *testing.T) {
	b := New()
	if bestOffer(b, usdEUR()) != nil {
		t.Fatal("empty book reported a best offer")
	}
	for _, o := range []*Offer{
		offer(1, 1, "120", "100"), // 1.2
		offer(2, 1, "105", "100"), // 1.05
	} {
		if err := b.Place(o); err != nil {
			t.Fatal(err)
		}
	}
	if o := bestOffer(b, usdEUR()); o == nil || o.quality.Cmp(amount.MustParse("1.05")) != 0 {
		t.Fatalf("best offer = %+v, want quality 1.05", o)
	}
}

// TestQualityMemoRefreshedAfterPartialFill pins that a partially filled
// offer's memoized quality tracks its residual amounts, exactly as the
// pre-memoization code recomputed Pays/Gets on every read.
func TestQualityMemoRefreshedAfterPartialFill(t *testing.T) {
	b := New()
	o := offer(1, 1, "110", "100") // quality 1.1
	if err := b.Place(o); err != nil {
		t.Fatal(err)
	}
	q, err := quoteBuy(b, usdEUR(), amount.MustParse("40"))
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(q); err != nil {
		t.Fatal(err)
	}
	want, err := o.Pays.Value.Div(o.Gets.Value)
	if err != nil {
		t.Fatal(err)
	}
	if o.quality.Cmp(want) != 0 {
		t.Errorf("memoized quality = %s, want residual Pays/Gets = %s", o.quality, want)
	}
}

// TestQuoteBuyIntoFullFillExact pins the full-fill fast path: consuming
// a whole offer pays its exact asking amount, no multiply rounding.
func TestQuoteBuyIntoFullFillExact(t *testing.T) {
	b := New()
	// Quality 110/3 is not representable exactly; a naive take×quality
	// for the full fill would round.
	if err := b.Place(offer(1, 1, "110", "3")); err != nil {
		t.Fatal(err)
	}
	var q Quote
	if err := b.QuoteBuyInto(usdEUR(), amount.MustParse("3"), &q); err != nil {
		t.Fatal(err)
	}
	if q.TotalGets.Cmp(amount.MustParse("3")) != 0 {
		t.Fatalf("gets = %s, want 3", q.TotalGets)
	}
	if q.TotalPays.Cmp(amount.MustParse("110")) != 0 {
		t.Fatalf("full fill pays = %s, want exactly 110", q.TotalPays)
	}
}

// TestQuoteBuyIntoReusesFills pins the zero-alloc contract: quoting
// into a warm Quote allocates nothing.
func TestQuoteBuyIntoReusesFills(t *testing.T) {
	b := New()
	for i := uint32(1); i <= 4; i++ {
		if err := b.Place(offer(uint64(i), i, "110", "100")); err != nil {
			t.Fatal(err)
		}
	}
	var q Quote
	want := amount.MustParse("250")
	if err := b.QuoteBuyInto(usdEUR(), want, &q); err != nil {
		t.Fatal(err) // warm-up sizes q.Fills
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := b.QuoteBuyInto(usdEUR(), want, &q); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("QuoteBuyInto allocates %.1f per call, want 0", allocs)
	}
	if len(q.Fills) != 3 {
		t.Fatalf("fills = %d, want 3", len(q.Fills))
	}
}
