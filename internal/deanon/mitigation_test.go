package deanon

import (
	"math/rand"
	"testing"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/synth"
)

// generateInto streams a small synthetic history into sink.
func generateInto(t *testing.T, sink func(*ledger.Page) error) error {
	t.Helper()
	_, err := synth.Generate(synth.Config{Payments: 8000, Seed: 3, SkipSignatures: true}, sink)
	return err
}

// mitFeatures builds a history of `perSender` payments for each of
// `senders` accounts, mostly with unique fingerprints.
func mitFeatures(senders, perSender int) []Features {
	r := rand.New(rand.NewSource(31))
	var out []Features
	tm := uint32(1000)
	for s := 0; s < senders; s++ {
		for p := 0; p < perSender; p++ {
			tm += uint32(1 + r.Intn(10))
			out = append(out, Features{
				Sender:      acct(uint64(s + 1)),
				Destination: acct(uint64(1000 + r.Intn(20))),
				Currency:    amount.USD,
				Amount:      amount.FromInt64(int64(10 * (1 + r.Intn(500)))),
				Time:        ledger.CloseTime(tm),
			})
		}
	}
	return out
}

func TestFeatureImportanceTimestampDominates(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a history")
	}
	s := NewImportanceStudy(0)
	defer s.Close()
	err := generateInto(t, func(p *ledger.Page) error {
		for i := range p.Txs {
			if f, ok := FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				s.Observe(f)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	full := s.FullIG()
	rows := s.Results()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		t.Logf("%-12s alone=%.4f dropped=%.4f marginal=%.4f", r.Feature, r.Alone, r.Dropped, full-r.Dropped)
	}
	// The paper's claim: the timestamp has the highest information gain
	// of all features, both alone and marginally.
	if rows[0].Feature != "timestamp" {
		t.Errorf("strongest marginal feature = %s, want timestamp", rows[0].Feature)
	}
	var byName = map[string]FeatureImportance{}
	for _, r := range rows {
		byName[r.Feature] = r
	}
	if byName["timestamp"].Alone <= byName["amount"].Alone {
		t.Errorf("timestamp alone (%.4f) should beat amount alone (%.4f)",
			byName["timestamp"].Alone, byName["amount"].Alone)
	}
	if byName["currency"].Alone > 0.05 {
		t.Errorf("currency alone = %.4f, should be nearly useless", byName["currency"].Alone)
	}
	// Dropping any single feature never increases IG.
	for _, r := range rows {
		if r.Dropped > full+1e-9 {
			t.Errorf("dropping %s increased IG", r.Feature)
		}
	}
}

func TestMitigationExposureDropsWithWallets(t *testing.T) {
	feats := mitFeatures(10, 40)
	rows := MitigationStudy(feats, []int{1, 2, 4, 8})
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Uniqueness is unaffected by splitting (the sender is not in the
	// fingerprint).
	for _, r := range rows[1:] {
		if r.UniqueRate != rows[0].UniqueRate {
			t.Errorf("k=%d changed unique rate %v -> %v", r.Wallets, rows[0].UniqueRate, r.UniqueRate)
		}
	}
	// Exposure at k=1 equals the unique rate (a unique payment exposes
	// the whole history).
	if diff := rows[0].Exposure - rows[0].UniqueRate; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("k=1 exposure %v != unique rate %v", rows[0].Exposure, rows[0].UniqueRate)
	}
	// Exposure decreases monotonically, roughly as 1/k.
	for i := 1; i < len(rows); i++ {
		if rows[i].Exposure >= rows[i-1].Exposure {
			t.Errorf("exposure not decreasing: k=%d %v -> k=%d %v",
				rows[i-1].Wallets, rows[i-1].Exposure, rows[i].Wallets, rows[i].Exposure)
		}
	}
	if rows[3].Exposure > rows[0].Exposure/4 {
		t.Errorf("k=8 exposure %v, want well under a quarter of k=1's %v",
			rows[3].Exposure, rows[0].Exposure)
	}
}

func TestMitigationCostGrowsLinearly(t *testing.T) {
	feats := mitFeatures(10, 40)
	rows := MitigationStudy(feats, []int{1, 2, 3})
	if rows[0].ExtraTrustLines != 0 || rows[0].ExtraReserveXRP != 0 {
		t.Errorf("k=1 has bootstrap cost: %+v", rows[0])
	}
	if rows[1].ExtraTrustLines == 0 {
		t.Error("k=2 has no trust-line cost")
	}
	if rows[2].ExtraTrustLines != 2*rows[1].ExtraTrustLines {
		t.Errorf("trust-line cost not linear: k=2 %d, k=3 %d",
			rows[1].ExtraTrustLines, rows[2].ExtraTrustLines)
	}
	if rows[1].ExtraReserveXRP <= 0 {
		t.Error("k=2 locks no reserve")
	}
}

func TestMitigationLinkability(t *testing.T) {
	// One sender paying the same destination repeatedly: with k wallets
	// the destination links all of them.
	var feats []Features
	for i := 0; i < 30; i++ {
		feats = append(feats, Features{
			Sender:      acct(1),
			Destination: acct(2),
			Currency:    amount.USD,
			Amount:      amount.FromInt64(int64(10 * (i + 1))),
			Time:        ledger.CloseTime(uint32(1000 + i)),
		})
	}
	rows := MitigationStudy(feats, []int{1, 4})
	if rows[0].LinkableAccounts != 0 {
		t.Errorf("k=1 linkable = %d, want 0 (nothing to link)", rows[0].LinkableAccounts)
	}
	if rows[1].LinkableAccounts != 4 {
		t.Errorf("k=4 linkable = %d, want 4 (the destination sees all wallets)", rows[1].LinkableAccounts)
	}
}

func TestMitigationOnSyntheticHistory(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a history")
	}
	// End-to-end over generated data, via the core-facade style path.
	var feats []Features
	study := func(p *ledger.Page) error {
		for i := range p.Txs {
			if f, ok := FromTransaction(p, p.Txs[i], p.Metas[i]); ok {
				feats = append(feats, f)
			}
		}
		return nil
	}
	if err := generateInto(t, study); err != nil {
		t.Fatal(err)
	}
	rows := MitigationStudy(feats, []int{1, 2, 4, 8, 16})
	prev := 2.0
	for _, r := range rows {
		t.Logf("k=%2d exposure=%.4f unique=%.4f extra-lines=%d reserve=%.0f XRP linkable=%d",
			r.Wallets, r.Exposure, r.UniqueRate, r.ExtraTrustLines, r.ExtraReserveXRP, r.LinkableAccounts)
		if r.Exposure > prev {
			t.Errorf("exposure increased at k=%d", r.Wallets)
		}
		prev = r.Exposure
	}
	// The paper's argument: even at high k, the attack itself still
	// works (uniqueness stays high) and the cost is real.
	if rows[len(rows)-1].UniqueRate < 0.9 {
		t.Errorf("unique rate = %v, splitting should not change it", rows[len(rows)-1].UniqueRate)
	}
	if rows[len(rows)-1].ExtraReserveXRP <= 0 {
		t.Error("no reserve cost at k=16")
	}
}
