package core

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
)

// smallDataset builds a shared in-memory dataset for the facade tests.
func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := BuildDataset(Config{Payments: 3000, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildDatasetInMemory(t *testing.T) {
	ds := smallDataset(t)
	st, err := ds.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Payments < 3000 {
		t.Errorf("payments = %d, want ≥3000", st.Payments)
	}
	if st.TotalPages == 0 || st.ActiveUsers == 0 || st.Offers == 0 {
		t.Errorf("stats incomplete: %+v", st)
	}
	if ds.result == nil {
		t.Error("generator result missing for in-memory dataset")
	}
}

func TestBuildDatasetWithStoreAndReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	ds, err := BuildDataset(Config{Payments: 1200, Seed: 6, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	st1, err := ds.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Reopen from disk: same statistics without the generator state.
	ds2, err := OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := ds2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st1 != st2 {
		t.Errorf("stats differ across reopen:\n%+v\n%+v", st1, st2)
	}
	if ds2.result != nil {
		t.Error("reopened dataset should have no generator result")
	}
	// Figure 7 must still work (state rebuilt by replay).
	top, err := ds2.Figure7(10)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) == 0 {
		t.Error("no intermediaries from reopened dataset")
	}
	if top[0].Profile.TrustReceived == 0 && top[0].Profile.TrustGiven == 0 {
		t.Error("profiles not filled from replayed state")
	}
}

// TestFigure4StoreScan: the store's segment-parallel ecosystem scan
// agrees with the in-memory walk of the same history, and a CRC-clean
// final record carrying bytes past its page encoding fails it with
// ErrCorrupted instead of being counted.
func TestFigure4StoreScan(t *testing.T) {
	cfg := Config{Payments: 1200, Seed: 6}
	mem, err := BuildDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, err := mem.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	cfg.StoreDir = filepath.Join(t.TempDir(), "store")
	if _, err := BuildDataset(cfg); err != nil {
		t.Fatal(err)
	}
	ds, err := OpenDataset(cfg.StoreDir)
	if err != nil {
		t.Fatal(err)
	}
	ds.SetWorkers(4)
	got, err := ds.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store Figure 4 = %v, want %v", got, want)
	}

	var last *ledger.Page
	if err := ds.Source().Pages(func(p *ledger.Page) error { last = p; return nil }); err != nil {
		t.Fatal(err)
	}
	payload := append(last.Encode(nil), 0)
	rec := binary.BigEndian.AppendUint32(nil, uint32(len(payload)))
	rec = append(rec, payload...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.ChecksumIEEE(payload))
	segs, err := filepath.Glob(filepath.Join(cfg.StoreDir, "segment-*"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	f, err := os.OpenFile(segs[len(segs)-1], os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(rec); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = OpenDataset(cfg.StoreDir); err != nil {
		t.Fatal(err)
	}
	if _, err := ds.Figure4(); !errors.Is(err, ledgerstore.ErrCorrupted) {
		t.Fatalf("Figure4 over a record with trailing bytes: err = %v, want ErrCorrupted", err)
	}
}

func TestFigure3Facade(t *testing.T) {
	ds := smallDataset(t)
	rows, err := ds.Figure3()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10", len(rows))
	}
	if rows[0].IG < 0.9 {
		t.Errorf("full-resolution IG = %.3f, want high", rows[0].IG)
	}
	if rows[9].IG > rows[0].IG {
		t.Error("minimum-information row beats full resolution")
	}
}

func TestFigure4And5Facade(t *testing.T) {
	ds := smallDataset(t)
	hist, err := ds.Figure4()
	if err != nil {
		t.Fatal(err)
	}
	if hist[0].Currency != amount.XRP {
		t.Errorf("top currency = %s, want XRP", hist[0].Currency)
	}
	curves, err := ds.Figure5()
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 8 || curves[0].Label != "Global" {
		t.Fatalf("curves = %d (first %q), want 8 with Global first", len(curves), curves[0].Label)
	}
	for _, c := range curves {
		if len(c.Points) == 0 {
			t.Errorf("curve %s has no points", c.Label)
		}
	}
}

func TestFigure6Facade(t *testing.T) {
	ds := smallDataset(t)
	hops, parallel, err := ds.Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if hops[8] == 0 {
		t.Error("8-hop spam spike missing")
	}
	if parallel[6] == 0 {
		t.Error("6-parallel-path spam spike missing")
	}
}

func TestTableIIFacade(t *testing.T) {
	ds := smallDataset(t)
	res, err := ds.TableII(0.7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cross.Delivered != 0 {
		t.Errorf("cross delivered = %d, want 0", res.Cross.Delivered)
	}
	if res.RemovedMarketMakers == 0 {
		t.Error("no market makers removed")
	}
	// Out-of-range fraction falls back to the default.
	if _, err := ds.TableII(0); err != nil {
		t.Errorf("default snapshot fraction failed: %v", err)
	}
}

func TestFigure2Facade(t *testing.T) {
	reports, err := Figure2(60, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 3 {
		t.Fatalf("reports = %d, want 3 periods", len(reports))
	}
	wantValidators := []int{34, 33, 39}
	for i, rep := range reports {
		if len(rep.Validators) != wantValidators[i] {
			t.Errorf("%s: %d validators, want %d", rep.Period, len(rep.Validators), wantValidators[i])
		}
	}
}

func TestTableIFacade(t *testing.T) {
	if rows := TableI(); len(rows) != 3 {
		t.Errorf("Table I rows = %d, want 3", len(rows))
	}
}

func TestMitigationFacade(t *testing.T) {
	ds := smallDataset(t)
	rows, err := ds.Mitigation([]int{1, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Exposure >= rows[0].Exposure {
		t.Error("exposure did not drop with wallet splitting")
	}
	if rows[1].ExtraTrustLines == 0 {
		t.Error("wallet splitting reported no cost")
	}
}

func TestIncentivesFacade(t *testing.T) {
	scenarios := Incentives(60)
	if len(scenarios) != 3 {
		t.Fatalf("scenarios = %d", len(scenarios))
	}
	noReward := scenarios[0].Series[len(scenarios[0].Series)-1].Validators
	strong := scenarios[2].Series[len(scenarios[2].Series)-1].Validators
	if noReward >= strong {
		t.Errorf("no-reward equilibrium (%d) should be below strong-tax (%d)", noReward, strong)
	}
}

func TestSpamCostFacade(t *testing.T) {
	ds := smallDataset(t)
	top, total, err := ds.SpamCost(5)
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 || len(top) != 5 {
		t.Fatalf("total=%d top=%d", total, len(top))
	}
	if top[0].Fees < top[4].Fees {
		t.Error("fee payers not sorted")
	}
}

func TestOfferConcentrationFacade(t *testing.T) {
	ds := smallDataset(t)
	conc, err := ds.OfferConcentration()
	if err != nil {
		t.Fatal(err)
	}
	if conc[10] <= 0 || conc[10] > conc[100] {
		t.Errorf("concentration = %v", conc)
	}
}
