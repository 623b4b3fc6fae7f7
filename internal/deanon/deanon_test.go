package deanon

import (
	"reflect"
	"strings"
	"testing"

	"ripplestudy/internal/addr"
	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/synth"
)

func acct(seed uint64) addr.AccountID { return addr.KeyPairFromSeed(seed).AccountID() }

func TestRoundAmountTableI(t *testing.T) {
	tests := []struct {
		v    string
		c    amount.Currency
		res  AmountRes
		want string
	}{
		// Medium strength (USD): max=10^1, avg=10^2, low=10^3.
		{"4.5", amount.USD, AmountMax, "0"},
		{"47", amount.USD, AmountMax, "50"},
		{"447", amount.USD, AmountAvg, "400"},
		{"447", amount.USD, AmountLow, "0"},
		{"1447", amount.USD, AmountLow, "1000"},
		// Powerful (BTC): max=10^-3, avg=10^-2, low=10^-1.
		{"0.0042", amount.BTC, AmountMax, "0.004"},
		{"0.0042", amount.BTC, AmountAvg, "0"},
		{"0.042", amount.BTC, AmountAvg, "0.04"},
		{"0.26", amount.BTC, AmountLow, "0.3"},
		// Weak (XRP): max=10^5, avg=10^6, low=10^7.
		{"123456", amount.XRP, AmountMax, "100000"},
		{"1234567", amount.XRP, AmountAvg, "1000000"},
		{"12345678", amount.XRP, AmountLow, "10000000"},
		// Exact keeps full precision.
		{"4.5", amount.USD, AmountExact, "4.5"},
	}
	for _, tt := range tests {
		got := RoundAmount(amount.MustParse(tt.v), tt.c, tt.res)
		if got.String() != tt.want {
			t.Errorf("RoundAmount(%s/%s, %s) = %s, want %s", tt.v, tt.c, tt.res, got, tt.want)
		}
	}
}

func TestCoarsenTime(t *testing.T) {
	// 2015-08-24 15:41:03 per the paper's example.
	ct := ledger.CloseTimeFromTime(ledger.RippleEpoch.AddDate(15, 7, 23).Add(15*3600e9 + 41*60e9 + 3e9))
	tests := []struct {
		res  TimeRes
		want string
	}{
		{TimeSeconds, "15:41:03"},
		{TimeMinutes, "15:41:00"},
		{TimeHours, "15:00:00"},
		{TimeDays, "00:00:00"},
	}
	for _, tt := range tests {
		got := CoarsenTime(ct, tt.res).String()
		if !strings.HasSuffix(got, tt.want) {
			t.Errorf("CoarsenTime(%s) = %s, want suffix %s", tt.res, got, tt.want)
		}
		if !strings.HasPrefix(got, "2015-08-24") {
			t.Errorf("CoarsenTime(%s) = %s, date changed", tt.res, got)
		}
	}
	if CoarsenTime(ct, TimeOff) != 0 {
		t.Error("TimeOff should zero the timestamp")
	}
}

func feat(sender, dest uint64, cur amount.Currency, v string, tm uint32) Features {
	return Features{
		Sender:      acct(sender),
		Destination: acct(dest),
		Currency:    cur,
		Amount:      amount.MustParse(v),
		Time:        ledger.CloseTime(tm),
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := feat(1, 2, amount.USD, "45", 1000)
	full := Resolution{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true}
	fp := FingerprintOf(base, full)

	// Each feature change must alter the fingerprint.
	if FingerprintOf(feat(1, 3, amount.USD, "45", 1000), full) == fp {
		t.Error("destination not in fingerprint")
	}
	if FingerprintOf(feat(1, 2, amount.EUR, "45", 1000), full) == fp {
		t.Error("currency not in fingerprint")
	}
	if FingerprintOf(feat(1, 2, amount.USD, "85", 1000), full) == fp {
		t.Error("amount not in fingerprint")
	}
	if FingerprintOf(feat(1, 2, amount.USD, "45", 2000), full) == fp {
		t.Error("time not in fingerprint")
	}
	// The sender must NOT be in the fingerprint (it is the secret).
	if FingerprintOf(feat(9, 2, amount.USD, "45", 1000), full) != fp {
		t.Error("sender leaked into fingerprint")
	}
}

func TestFingerprintRespectsRounding(t *testing.T) {
	res := Resolution{Amount: AmountMax, Time: TimeMinutes, Currency: true, Destination: true}
	// 44 and 41 both round to 40 USD at max resolution; 1000s and 1001s
	// share the minute.
	a := FingerprintOf(feat(1, 2, amount.USD, "44", 1000), res)
	b := FingerprintOf(feat(3, 2, amount.USD, "41", 1001), res)
	if a != b {
		t.Error("observations equal after coarsening must share a fingerprint")
	}
}

func TestFingerprintOffFeaturesIgnored(t *testing.T) {
	res := Resolution{Amount: AmountOff, Time: TimeOff, Currency: false, Destination: true}
	a := FingerprintOf(feat(1, 2, amount.USD, "44", 1000), res)
	b := FingerprintOf(feat(3, 2, amount.EUR, "9999", 555), res)
	if a != b {
		t.Error("off features leaked into fingerprint")
	}
}

func TestStudyIGComputation(t *testing.T) {
	full := Resolution{Amount: AmountExact, Time: TimeSeconds, Currency: true, Destination: true}
	coarse := Resolution{Amount: AmountOff, Time: TimeOff, Currency: true, Destination: false}
	s := NewStudy([]Resolution{full, coarse})
	// Three payments: two share (currency) only; all unique at full res.
	s.Observe(feat(1, 2, amount.USD, "10", 1))
	s.Observe(feat(3, 4, amount.USD, "20", 2))
	s.Observe(feat(5, 6, amount.EUR, "30", 3))
	res := s.Results()
	if res[0].IG != 1.0 {
		t.Errorf("full-res IG = %v, want 1.0", res[0].IG)
	}
	// Currency-only: USD appears twice (not unique), EUR once.
	if got := res[1].IG; got < 0.33 || got > 0.34 {
		t.Errorf("currency-only IG = %v, want 1/3", got)
	}
	if s.Payments() != 3 {
		t.Errorf("payments = %d", s.Payments())
	}
}

func TestFromTransaction(t *testing.T) {
	p := &ledger.Page{Header: ledger.PageHeader{CloseTime: 777}}
	pay := &ledger.Tx{
		Type: ledger.TxPayment, Account: acct(1), Destination: acct(2),
		Amount: amount.MustAmount("4.5/USD"),
	}
	okMeta := &ledger.TxMeta{Result: ledger.ResultSuccess}
	f, ok := FromTransaction(p, pay, okMeta)
	if !ok {
		t.Fatal("successful payment rejected")
	}
	if f.Time != 777 || f.Sender != acct(1) || f.Currency != amount.USD {
		t.Errorf("features = %+v", f)
	}
	if _, ok := FromTransaction(p, pay, &ledger.TxMeta{Result: ledger.ResultPathDry}); ok {
		t.Error("failed payment accepted")
	}
	trust := &ledger.Tx{Type: ledger.TxTrustSet, Account: acct(1)}
	if _, ok := FromTransaction(p, trust, okMeta); ok {
		t.Error("non-payment accepted")
	}
}

// TestFromPaymentViewMatchesFromTransaction pins the zero-copy feed to
// the decoded one: over a generated history, ledger.ScanPayments
// projects exactly the payments FromTransaction accepts, in the same
// order and with the same features.
func TestFromPaymentViewMatchesFromTransaction(t *testing.T) {
	var want, got []Features
	failed := 0
	_, err := synth.Generate(synth.Config{Payments: 2000, Seed: 5, SkipSignatures: true}, func(p *ledger.Page) error {
		for i := range p.Txs {
			if f, ok := FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				want = append(want, f)
			} else if p.Txs[i].Type == ledger.TxPayment {
				failed++
			}
		}
		_, err := ledger.ScanPayments(p.Encode(nil), func(pv *ledger.PaymentView) error {
			got = append(got, FromPaymentView(pv))
			return nil
		})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) == 0 || failed == 0 {
		t.Fatalf("history has %d accepted and %d failed payments, want both", len(want), failed)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ScanPayments projected %d payments, FromTransaction accepted %d, or their features differ", len(got), len(want))
	}
}

func TestIndexLatteAttack(t *testing.T) {
	// The paper's running example: Alice overhears Bob's 4.5 USD latte.
	res := Resolution{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true}
	idx := NewIndex(res)
	bob, bar := acct(10), acct(20)
	latte := Features{
		Sender: bob, Destination: bar, Currency: amount.USD,
		Amount: amount.MustParse("4.5"), Time: 50000,
	}
	idx.Add(latte)
	// Background traffic at other times/destinations.
	for i := uint64(0); i < 100; i++ {
		idx.Add(feat(100+i, 200+i, amount.USD, "4.5", uint32(60000+i)))
	}
	// Alice's observation: she does not know the sender.
	observation := latte
	observation.Sender = addr.AccountID{}
	got := idx.Candidates(observation)
	if len(got) != 1 || got[0] != bob {
		t.Fatalf("candidates = %v, want exactly Bob", got)
	}
	if idx.Resolution() != res {
		t.Error("resolution accessor broken")
	}
}

func TestIndexDeduplicatesSenders(t *testing.T) {
	res := Resolution{Amount: AmountMax, Time: TimeDays, Currency: true, Destination: true}
	idx := NewIndex(res)
	// Bob buys the same latte twice on the same day: still one
	// candidate.
	for i := uint32(0); i < 2; i++ {
		idx.Add(feat(1, 2, amount.USD, "4.5", 1000+i))
	}
	got := idx.Candidates(feat(0, 2, amount.USD, "4.5", 1500))
	if len(got) != 1 {
		t.Fatalf("candidates = %d, want 1 (deduplicated)", len(got))
	}
}

func TestFigure3RowsWellFormed(t *testing.T) {
	if len(Figure3Rows) != 10 {
		t.Fatalf("Figure3Rows = %d rows, want 10", len(Figure3Rows))
	}
	if Figure3Rows[0].String() != "<Am;Tsc;C;D>" {
		t.Errorf("row 1 = %s", Figure3Rows[0])
	}
	if Figure3Rows[9].String() != "<Al;Tdy;-;->" {
		t.Errorf("row 10 = %s", Figure3Rows[9])
	}
}

func TestTableISpec(t *testing.T) {
	rows := TableISpec()
	if len(rows) != 3 {
		t.Fatalf("TableISpec rows = %d, want 3", len(rows))
	}
	if !strings.Contains(rows[0], "10^-3") {
		t.Errorf("powerful row = %q", rows[0])
	}
	if !strings.Contains(rows[2], "10^5") {
		t.Errorf("weak row = %q", rows[2])
	}
}

// TestFigure3ShapeOnSyntheticHistory is the core end-to-end check: over
// a generated history, the IG ordering and anchor points of Figure 3
// must reproduce.
func TestFigure3ShapeOnSyntheticHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 20k-payment history")
	}
	study := NewStudy(Figure3Rows)
	_, err := synth.Generate(synth.Config{
		Payments:       20_000,
		Seed:           42,
		SkipSignatures: true,
	}, func(p *ledger.Page) error {
		for i := range p.Txs {
			if f, ok := FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				study.Observe(f)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	res := study.Results()
	ig := make(map[string]float64, len(res))
	for _, r := range res {
		ig[r.Resolution.String()] = r.IG
		t.Logf("%-16s IG = %.4f", r.Resolution, r.IG)
	}

	// Anchor 1: full resolution de-anonymizes nearly everything
	// (paper: 99.83%).
	if got := ig["<Am;Tsc;C;D>"]; got < 0.95 {
		t.Errorf("IG<Am;Tsc;C;D> = %.4f, want ≥0.95", got)
	}
	// Anchor 2: dropping the currency barely matters (paper: equal).
	if full, noC := ig["<Am;Tsc;C;D>"], ig["<Am;Tsc;-;D>"]; full-noC > 0.02 {
		t.Errorf("dropping C changed IG too much: %.4f -> %.4f", full, noC)
	}
	// Anchor 3: the timestamp is the strongest feature — removing it
	// hurts far more than removing the amount (paper: 48.84 vs 89.86).
	if noT, noA := ig["<Am;-;C;D>"], ig["<-;Tsc;C;D>"]; noT >= noA {
		t.Errorf("IG without T (%.4f) should be well below IG without A (%.4f)", noT, noA)
	}
	if got := ig["<Am;-;C;D>"]; got < 0.25 || got > 0.75 {
		t.Errorf("IG<Am;-;C;D> = %.4f, want ≈0.5 (coin toss, paper 48.84%%)", got)
	}
	// Anchor 4: the minimum-information row collapses (paper: 1.28%).
	if got := ig["<Al;Tdy;-;->"]; got > 0.10 {
		t.Errorf("IG<Al;Tdy;-;-> = %.4f, want near zero", got)
	}
	// Anchor 5: monotone coarsening — each Figure 3 degradation row is
	// no better than full resolution.
	full := ig["<Am;Tsc;C;D>"]
	for _, key := range []string{"<Am;Tmn;C;D>", "<Aa;Thr;C;D>", "<Al;Tdy;C;D>"} {
		if ig[key] > full+1e-9 {
			t.Errorf("coarser %s has higher IG (%.4f) than full (%.4f)", key, ig[key], full)
		}
	}
	// And the coarsening ladder itself is monotone.
	if !(ig["<Am;Tmn;C;D>"] >= ig["<Aa;Thr;C;D>"] && ig["<Aa;Thr;C;D>"] >= ig["<Al;Tdy;C;D>"]) {
		t.Errorf("resolution ladder not monotone: %.4f, %.4f, %.4f",
			ig["<Am;Tmn;C;D>"], ig["<Aa;Thr;C;D>"], ig["<Al;Tdy;C;D>"])
	}
}
