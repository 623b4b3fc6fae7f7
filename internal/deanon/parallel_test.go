package deanon

import (
	"hash/fnv"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ripplestudy/internal/amount"
	"ripplestudy/internal/ledger"
)

// refFingerprint is the original hash.Hash-based implementation, kept
// as the bit-compatibility oracle for the inlined FNV path.
func refFingerprint(f Features, res Resolution) Fingerprint {
	h := fnv.New64a()
	var buf [16]byte
	if res.Amount != AmountOff {
		v := RoundAmount(f.Amount, f.Currency, res.Amount)
		m := v.Mantissa()
		e := uint64(int64(v.Exponent()))
		s := uint64(0)
		if v.IsNegative() {
			s = 1
		}
		for i := 0; i < 8; i++ {
			buf[i] = byte(m >> (56 - 8*i))
			buf[8+i] = byte((e<<1 | s) >> (56 - 8*i))
		}
		h.Write([]byte{'A'})
		h.Write(buf[:])
	}
	if res.Time != TimeOff {
		t := uint64(CoarsenTime(f.Time, res.Time))
		for i := 0; i < 8; i++ {
			buf[i] = byte(t >> (56 - 8*i))
		}
		h.Write([]byte{'T'})
		h.Write(buf[:8])
	}
	if res.Currency {
		h.Write([]byte{'C'})
		h.Write(f.Currency[:])
	}
	if res.Destination {
		h.Write([]byte{'D'})
		h.Write(f.Destination[:])
	}
	return Fingerprint(h.Sum64())
}

// allResolutions enumerates every feature on/off + level combination.
func allResolutions() []Resolution {
	var out []Resolution
	for a := AmountOff; a <= AmountExact; a++ {
		for ti := TimeOff; ti <= TimeDays; ti++ {
			for _, c := range []bool{false, true} {
				for _, d := range []bool{false, true} {
					out = append(out, Resolution{Amount: a, Time: ti, Currency: c, Destination: d})
				}
			}
		}
	}
	return out
}

// randomFeatures builds a deterministic feature stream with deliberate
// fingerprint collisions (small value/time/destination pools).
func randomFeatures(n int, seed int64) []Features {
	r := rand.New(rand.NewSource(seed))
	curs := []amount.Currency{amount.USD, amount.EUR, amount.BTC, amount.XRP, amount.MTL}
	out := make([]Features, 0, n)
	for i := 0; i < n; i++ {
		v, err := amount.NewValue(int64(r.Intn(5000)+1), r.Intn(4)-2)
		if err != nil {
			panic(err)
		}
		if r.Intn(11) == 0 {
			v = v.Neg()
		}
		out = append(out, Features{
			Sender:      acct(uint64(r.Intn(500) + 1)),
			Destination: acct(uint64(r.Intn(40) + 1000)),
			Currency:    curs[r.Intn(len(curs))],
			Amount:      v,
			Time:        ledger.CloseTime(500_000_000 + r.Intn(5000)),
		})
	}
	return out
}

func TestFingerprintBitIdenticalToFNVReference(t *testing.T) {
	feats := randomFeatures(200, 7)
	for _, res := range allResolutions() {
		for _, f := range feats {
			if got, want := FingerprintOf(f, res), refFingerprint(f, res); got != want {
				t.Fatalf("FingerprintOf(%+v, %s) = %x, reference = %x", f, res, got, want)
			}
		}
	}
}

func TestEncodeFeaturesMatchesFingerprintOf(t *testing.T) {
	feats := randomFeatures(200, 8)
	for _, f := range feats {
		enc := EncodeFeatures(f)
		for _, res := range allResolutions() {
			if got, want := enc.Fingerprint(res), FingerprintOf(f, res); got != want {
				t.Fatalf("FeatureEnc.Fingerprint(%s) = %x, FingerprintOf = %x", res, got, want)
			}
		}
	}
}

func TestParallelStudyConcurrentFeeders(t *testing.T) {
	feats := randomFeatures(8000, 10)
	seq := NewStudy(Figure3Rows)
	for _, f := range feats {
		seq.Observe(f)
	}
	want := seq.Results()

	const producers = 8
	par := NewParallelStudy(Figure3Rows, 3)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		fd := par.Feeder()
		wg.Add(1)
		go func(p int, fd *Feeder) {
			defer wg.Done()
			for i := p; i < len(feats); i += producers {
				fd.Observe(feats[i])
			}
		}(p, fd)
	}
	wg.Wait()
	if got := par.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("concurrent feeders diverge\ngot  %+v\nwant %+v", got, want)
	}
}

// TestSaturatingCounterBoundary exercises the 0→1→2 (saturated)
// transitions that the information gain hinges on: a fingerprint seen
// once is unique, seen twice is not, and further repetitions must not
// wrap the uint8 counter back into "unique".
func TestSaturatingCounterBoundary(t *testing.T) {
	res := Resolution{Amount: AmountExact, Time: TimeSeconds, Currency: true, Destination: true}
	once := feat(1, 2, amount.USD, "10", 100)
	twice := feat(3, 4, amount.USD, "20", 200)
	many := feat(5, 6, amount.USD, "30", 300)

	par := NewParallelStudy([]Resolution{res}, 2)
	par.Observe(once)
	par.Observe(twice)
	par.Observe(twice)
	// 300 repetitions would wrap an unsaturated uint8 to 44; saturation
	// must pin it at 2.
	for i := 0; i < 300; i++ {
		par.Observe(many)
	}
	rows := par.Results()
	if rows[0].Unique != 1 {
		t.Fatalf("unique = %d, want 1 (only the once-seen fingerprint)", rows[0].Unique)
	}
	if rows[0].Total != 303 {
		t.Fatalf("total = %d, want 303", rows[0].Total)
	}
	if distinct := sumPerResolution(par.finish(), (*countTable).distinct); distinct[0] != 3 {
		t.Fatalf("distinct fingerprints = %d, want 3", distinct[0])
	}
}

// TestShardMergeAcrossShards verifies that the lock-free merge over a
// multi-shard partition counts exactly once per fingerprint: repeated
// observations of one payment land in the same shard (same fingerprint,
// same high bits), never double-counting across shards.
func TestShardMergeAcrossShards(t *testing.T) {
	feats := randomFeatures(2000, 11)
	par := NewParallelStudy(Figure3Rows, 4) // 16 shards
	for _, f := range feats {
		par.Observe(f)
		par.Observe(f) // every payment twice: nothing may stay unique
	}
	for _, row := range par.Results() {
		if row.Unique != 0 {
			t.Fatalf("%s: unique = %d after duplicating every payment", row.Resolution, row.Unique)
		}
		if row.Total != 2*len(feats) {
			t.Fatalf("%s: total = %d, want %d", row.Resolution, row.Total, 2*len(feats))
		}
	}
	// The shards partition the fingerprint space: summing shard map
	// sizes must equal the true distinct-fingerprint count — any
	// double-count across shards would inflate it.
	parDistinct := sumPerResolution(par.finish(), (*countTable).distinct)
	for i, res := range Figure3Rows {
		distinct := make(map[Fingerprint]struct{})
		for _, f := range feats {
			distinct[FingerprintOf(f, res)] = struct{}{}
		}
		if parDistinct[i] != len(distinct) {
			t.Fatalf("%s: shards hold %d fingerprints, want %d", res, parDistinct[i], len(distinct))
		}
	}
}

// TestImportanceStudyParallelMatchesSequential pins the sharded
// importance study to the map-based Study over the same nine rows.
func TestImportanceStudyParallelMatchesSequential(t *testing.T) {
	feats := randomFeatures(3000, 12)
	seq := NewStudy(importanceRows())
	parImp := NewImportanceStudy(3)
	defer parImp.Close()
	if parImp.Parallel().Shards() != 8 {
		t.Fatalf("Parallel() study runs %d shards, want 8", parImp.Parallel().Shards())
	}
	for _, f := range feats {
		seq.Observe(f)
		parImp.Observe(f)
	}
	rows := seq.Results()
	if rows[0].IG != parImp.FullIG() {
		t.Fatalf("FullIG diverges: %v != %v", rows[0].IG, parImp.FullIG())
	}
	if got, want := parImp.Results(), importanceOf(rows); !reflect.DeepEqual(got, want) {
		t.Fatalf("importance rows diverge\ngot  %+v\nwant %+v", got, want)
	}
}

// TestFeederAfterResultsPanics pins the batch face's contract — no
// observation may follow Results — on every way in: a new Feeder, an
// existing Feeder's Observe, and the study's own Observe.
func TestFeederAfterResultsPanics(t *testing.T) {
	par := NewParallelStudy(Figure3Rows, 1)
	defer par.Close()
	fd := par.Feeder()
	f := feat(1, 2, amount.USD, "10", 100)
	par.Observe(f)
	fd.Observe(f)
	want := par.Results()
	for name, misuse := range map[string]func(){
		"Feeder":                func() { par.Feeder() },
		"Feeder.Observe":        func() { fd.Observe(f) },
		"ParallelStudy.Observe": func() { par.Observe(f) },
	} {
		func() {
			defer func() {
				if r := recover(); r != errAfterResults {
					t.Errorf("%s after Results: recovered %v, want the worded panic", name, r)
				}
			}()
			misuse()
		}()
	}
	if got := par.Results(); !reflect.DeepEqual(got, want) {
		t.Fatal("a refused observation changed later Results")
	}
}

// TestIndexHotFingerprint drives one fingerprint past the linear-scan
// threshold (the MTL-spam shape) and checks order, dedup, and lookup.
func TestIndexHotFingerprint(t *testing.T) {
	res := Resolution{Amount: AmountOff, Time: TimeOff, Currency: true, Destination: false}
	idx := NewIndex(res)
	const senders = 200
	// Every payment shares the currency-only fingerprint; each sender
	// appears three times.
	for round := 0; round < 3; round++ {
		for s := uint64(1); s <= senders; s++ {
			idx.Add(feat(s, 2, amount.MTL, "1", uint32(s)))
		}
	}
	got := idx.Candidates(feat(0, 9, amount.MTL, "2", 77))
	if len(got) != senders {
		t.Fatalf("candidates = %d, want %d (deduplicated)", len(got), senders)
	}
	for i := 0; i < senders; i++ {
		if got[i] != acct(uint64(i+1)) {
			t.Fatalf("candidate %d out of first-seen order", i)
		}
	}
}

// TestCountTable exercises the open-addressed shard table directly:
// growth across several doublings, the all-zero fingerprint (which is
// also the empty-slot sentinel), and counter saturation.
func TestCountTable(t *testing.T) {
	tab := newCountTable()
	ref := make(map[Fingerprint]int)
	rng := rand.New(rand.NewSource(7))
	// Enough distinct keys to force multiple grow() cycles past the
	// 256-slot initial capacity; every third key observed twice.
	for i := 0; i < 5000; i++ {
		fp := Fingerprint(rng.Uint64())
		n := 1 + i%3/2
		for j := 0; j < n; j++ {
			tab.incr(fp)
			ref[fp]++
		}
	}
	tab.incr(0)
	ref[0]++
	wantUnique, wantDistinct := 0, len(ref)
	for _, c := range ref {
		if c == 1 {
			wantUnique++
		}
	}
	if got := tab.unique(); got != wantUnique {
		t.Errorf("unique = %d, want %d", got, wantUnique)
	}
	if got := tab.distinct(); got != wantDistinct {
		t.Errorf("distinct = %d, want %d", got, wantDistinct)
	}
	// Saturation: hammering one key keeps the counter at 2 and the key
	// counted as distinct but not unique.
	hot := Fingerprint(0xdeadbeef)
	for i := 0; i < 1000; i++ {
		tab.incr(hot)
	}
	if got := tab.distinct(); got != wantDistinct+1 {
		t.Errorf("distinct after hot key = %d, want %d", got, wantDistinct+1)
	}
	if got := tab.unique(); got != wantUnique {
		t.Errorf("unique after hot key = %d, want %d", got, wantUnique)
	}
	// The zero key saturates out-of-band too.
	tab.incr(0)
	tab.incr(0)
	if got := tab.unique(); got != wantUnique-1 {
		t.Errorf("unique after re-observing zero = %d, want %d", got, wantUnique-1)
	}
	if tab.bytes() < 5000*9 {
		t.Errorf("bytes = %d, implausibly small for %d entries", tab.bytes(), tab.distinct())
	}
}
