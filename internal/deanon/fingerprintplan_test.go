package deanon

import (
	"math/rand"
	"testing"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// TestAppendFingerprintsMatchesFingerprintOf pins the planned
// fingerprint path (shared prefixes + register-lane folds)
// bit-identical to the per-resolution reference for every resolution
// combination. allResolutions() has 50 destination rows, so the
// eight-lane shared fold is exercised past one group.
func TestAppendFingerprintsMatchesFingerprintOf(t *testing.T) {
	plans := map[string][]Resolution{
		"figure3":    Figure3Rows,
		"importance": importanceRows(),
		"all":        allResolutions(),
		"single":     {{Amount: AmountMax, Time: TimeSeconds, Currency: true, Destination: true}},
		"empty":      {},
	}
	for name, rows := range plans {
		plan := NewFingerprintPlan(rows)
		if plan.Rows() != len(rows) {
			t.Fatalf("%s: plan.Rows() = %d, want %d", name, plan.Rows(), len(rows))
		}
		var fps []Fingerprint
		for _, f := range randomFeatures(300, 11) {
			enc := EncodeFeatures(f)
			fps = enc.AppendFingerprints(plan, fps[:0])
			if len(fps) != len(rows) {
				t.Fatalf("%s: got %d fingerprints, want %d", name, len(fps), len(rows))
			}
			for i, res := range rows {
				if want := FingerprintOf(f, res); fps[i] != want {
					t.Fatalf("%s row %d (%s): planned fingerprint %x, FingerprintOf %x",
						name, i, res, fps[i], want)
				}
			}
		}
	}
}

// TestAppendFingerprintsAppends verifies the append contract: existing
// elements are preserved and new fingerprints land after them.
func TestAppendFingerprintsAppends(t *testing.T) {
	plan := NewFingerprintPlan(Figure3Rows)
	f := randomFeatures(1, 3)[0]
	enc := EncodeFeatures(f)
	out := []Fingerprint{42, 43}
	out = enc.AppendFingerprints(plan, out)
	if len(out) != 2+len(Figure3Rows) || out[0] != 42 || out[1] != 43 {
		t.Fatalf("append clobbered prefix: %v", out[:2])
	}
	for i, res := range Figure3Rows {
		if want := FingerprintOf(f, res); out[2+i] != want {
			t.Fatalf("row %d: %x, want %x", i, out[2+i], want)
		}
	}
}

// checkPlanned appends fingerprints for every feature set under rows
// and holds each against FingerprintOf and the hash/fnv reference.
func checkPlanned(t *testing.T, name string, rows []Resolution, feats []Features) {
	t.Helper()
	plan := NewFingerprintPlan(rows)
	var fps []Fingerprint
	for _, f := range feats {
		enc := EncodeFeatures(f)
		fps = enc.AppendFingerprints(plan, fps[:0])
		if len(fps) != len(rows) {
			t.Fatalf("%s: got %d fingerprints, want %d", name, len(fps), len(rows))
		}
		for i, res := range rows {
			want, ref := FingerprintOf(f, res), refFingerprint(f, res)
			if fps[i] != want || fps[i] != ref {
				t.Fatalf("%s row %d (%s): planned %x, FingerprintOf %x, hash/fnv %x",
					name, i, res, fps[i], want, ref)
			}
		}
	}
}

// TestAppendFingerprintsEveryLaneTail runs every group width the folds
// have: currency and destination selections of 1–17 rows (two full
// eight-lane groups and every padded tail after them) against 1–25
// distinct (amount, time) prefixes (up to all 20 timed ones, so every
// four-lane tail), with AmountOff and TimeOff rows and a repeated row.
func TestAppendFingerprintsEveryLaneTail(t *testing.T) {
	var prefixes []Resolution
	for a := AmountOff; a <= AmountExact; a++ {
		for ti := TimeOff; ti <= TimeDays; ti++ {
			prefixes = append(prefixes, Resolution{Amount: a, Time: ti})
		}
	}
	rand.New(rand.NewSource(38)).Shuffle(len(prefixes), func(i, j int) {
		prefixes[i], prefixes[j] = prefixes[j], prefixes[i]
	})
	feats := randomFeatures(12, 38)
	for nPre := 1; nPre <= len(prefixes); nPre++ {
		for nCur := 1; nCur <= 17; nCur++ {
			nDst := 18 - nCur
			n := max(nPre, nCur, nDst)
			rows := make([]Resolution, n, n+1)
			for i := range rows {
				rows[i] = prefixes[i%nPre]
				rows[i].Currency = i < nCur
				rows[i].Destination = i >= n-nDst
			}
			rows = append(rows, rows[0])
			checkPlanned(t, "tail", rows, feats)
		}
	}
}

// TestNewFingerprintPlanRejectsOutOfRange checks that a level outside
// Table I's panics when the plan is built, as Fingerprint panics on it,
// rather than reading another prefix's state.
func TestNewFingerprintPlanRejectsOutOfRange(t *testing.T) {
	for _, r := range []Resolution{
		{Amount: AmountExact + 1},
		{Amount: -1, Time: TimeDays},
		{Time: TimeDays + 1},
		{Amount: AmountMax, Time: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewFingerprintPlan(%+v) did not panic", r)
				}
			}()
			NewFingerprintPlan([]Resolution{Figure3Rows[0], r})
		}()
	}
}

// FuzzAppendFingerprints holds random resolution lists (1–30 rows, one
// byte each) over random features against both references.
func FuzzAppendFingerprints(f *testing.F) {
	f.Add([]byte{99, 0, 42, 7}, int64(123456), 0, false, "USD", []byte("dest"), uint32(500_000_000))
	f.Add([]byte{3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3}, int64(-5), -3, true, "BTC", []byte{}, uint32(0))
	f.Fuzz(func(t *testing.T, spec []byte, mant int64, exp int, neg bool, cur string, dst []byte, tm uint32) {
		if len(spec) == 0 {
			spec = []byte{0}
		}
		rows := make([]Resolution, 0, 30)
		for _, b := range spec[:min(len(spec), 30)] {
			b %= 100
			rows = append(rows, Resolution{
				Amount:      AmountRes(b % 5),
				Time:        TimeRes(b / 5 % 5),
				Currency:    b/25%2 == 1,
				Destination: b/50 == 1,
			})
		}
		v, err := amount.NewValue(mant, exp%20)
		if err != nil {
			t.Skip()
		}
		if neg {
			v = v.Neg()
		}
		feat := Features{Amount: v, Time: ledger.CloseTime(tm)}
		copy(feat.Currency[:], cur)
		copy(feat.Destination[:], dst)
		checkPlanned(t, "fuzz", rows, []Features{feat})
	})
}

// TestCountTableUniquesIncremental pins the O(1) uniques counter to the
// O(capacity) scan across growth, saturation, and the zero key.
func TestCountTableUniquesIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	tab := newCountTable()
	// A small key pool forces repeats (saturation) while still growing
	// the table several times; key 0 exercises the out-of-band slot.
	for i := 0; i < 50_000; i++ {
		tab.incr(Fingerprint(rng.Intn(8000)))
		if i%997 == 0 {
			if got, want := tab.unique(), tab.uniqueScan(); got != want {
				t.Fatalf("after %d incrs: unique() = %d, scan = %d", i+1, got, want)
			}
		}
	}
	if got, want := tab.unique(), tab.uniqueScan(); got != want {
		t.Fatalf("final: unique() = %d, scan = %d", got, want)
	}
	s := tab.seal()
	if got, want := s.unique(), tab.uniqueScan(); got != want {
		t.Fatalf("seal: unique() = %d, scan = %d", got, want)
	}
	if got, want := s.distinct(), tab.distinct(); got != want {
		t.Fatalf("seal: distinct() = %d, table %d", got, want)
	}
}

// TestParallelStudyCloseIdempotent checks Close is safe (idempotent,
// post-Results) and that a study built after another's Close still
// produces correct results.
func TestParallelStudyCloseIdempotent(t *testing.T) {
	feats := randomFeatures(5_000, 17)
	want := NewStudy(Figure3Rows)
	for _, f := range feats {
		want.Observe(f)
	}
	wantRows := want.Results()

	for round := 0; round < 3; round++ {
		par := NewParallelStudy(Figure3Rows, 2)
		for _, f := range feats {
			par.Observe(f)
		}
		rows := par.Results()
		for i := range wantRows {
			if rows[i].Unique != wantRows[i].Unique || rows[i].Total != wantRows[i].Total {
				t.Fatalf("round %d row %d: got %+v, want %+v", round, i, rows[i], wantRows[i])
			}
		}
		par.Close()
		par.Close() // idempotent
	}
}
