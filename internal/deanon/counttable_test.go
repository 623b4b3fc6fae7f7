package deanon

import (
	"fmt"
	"maps"
	"math/rand"
	"sync"
	"testing"
)

// sealEpoch is one seal of the model test: the snapshot, the map model
// of every row's saturated counts at that seal, and the keys generated
// so far (a prefix of the append-only key list), which the checks look
// up whether or not this epoch has seen them.
type sealEpoch struct {
	snap     *IncSnapshot
	model    []map[Fingerprint]uint8
	payments int
	keys     [][]Fingerprint
}

// check compares one epoch's snapshot with its model over every key
// (every stride-th key, for the concurrent readers).
func (e *sealEpoch) check(t *testing.T, what string, stride int) bool {
	t.Helper()
	if e.snap.Payments() != e.payments {
		t.Errorf("%s: Payments() = %d, want %d", what, e.snap.Payments(), e.payments)
		return false
	}
	distinct := sumPerResolution(e.snap.tables, (*sealedTable).distinct)
	for r, res := range e.snap.Results() {
		unique := 0
		for _, c := range e.model[r] {
			if c == 1 {
				unique++
			}
		}
		if res.Unique != unique || res.Total != e.payments || distinct[r] != len(e.model[r]) {
			t.Errorf("%s row %d: unique %d total %d distinct %d, model %d / %d / %d",
				what, r, res.Unique, res.Total, distinct[r], unique, e.payments, len(e.model[r]))
			return false
		}
		for i := 0; i < len(e.keys[r]); i += stride {
			fp := e.keys[r][i]
			if got, want := e.snap.LookupFingerprint(r, fp), e.model[r][fp]; got != want {
				t.Errorf("%s row %d: Lookup(%x) = %d, model %d", what, r, fp, got, want)
				return false
			}
		}
	}
	return true
}

// TestSealedTableMatchesModel drives random increments, growth and seals
// through ShardedIncStudy against a map model captured at each seal.
// Every snapshot must keep answering for its own epoch (Lookup, Results,
// distinct counts) through later seals, grows, its study's Close and
// a second study's counting, while reader goroutines query earlier
// snapshots concurrently: under -race, a seal that wrote into a
// published page is a race. Between two seals of one table, an unchanged
// table is the previous seal itself, and every page whose contents did
// not change is the previous seal's page by pointer — unless half the
// pages or more changed, when the table is copied whole and shares none.
// A grown table shares no page with any earlier seal, and a study
// started after another study's Close publishes no page of that study.
func TestSealedTableMatchesModel(t *testing.T) {
	rows := Figure3Rows[:3]
	// repeat[r] is how often row r re-observes a known key: row 0 grows
	// its tables several times, row 2 saturates early.
	repeat := []float64{0.2, 0.6, 0.95}
	rng := rand.New(rand.NewSource(61))
	keys := make([][]Fingerprint, len(rows))

	var mu sync.Mutex
	var published []*sealEpoch
	stop := make(chan struct{})
	var readers sync.WaitGroup
	stopReaders := sync.OnceFunc(func() {
		close(stop)
		readers.Wait()
	})
	defer stopReaders()
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(seed int64) {
			defer readers.Done()
			rr := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				n := len(published)
				var e *sealEpoch
				if n > 0 {
					e = published[rr.Intn(n)]
				}
				mu.Unlock()
				if e != nil && !e.check(t, "concurrent reader", 7) {
					return
				}
			}
		}(int64(g))
	}

	// run feeds one study payments and seals it at random intervals,
	// returning its epochs.
	run := func(study *ShardedIncStudy, payments int) []*sealEpoch {
		model := make([]map[Fingerprint]uint8, len(rows))
		for r := range model {
			model[r] = map[Fingerprint]uint8{}
		}
		var epochs []*sealEpoch
		seal := func(p int) {
			e := &sealEpoch{snap: study.Seal(), payments: p, keys: make([][]Fingerprint, len(rows))}
			for r := range rows {
				e.model = append(e.model, maps.Clone(model[r]))
				e.keys[r] = keys[r][:len(keys[r]):len(keys[r])]
			}
			epochs = append(epochs, e)
			mu.Lock()
			published = append(published, e)
			mu.Unlock()
		}
		fps := make([]Fingerprint, len(rows))
		next := 0
		for p := 0; p < payments; p++ {
			for p == next {
				seal(p)
				// A quarter of the intervals are empty (a seal with nothing
				// new), a quarter a handful of payments (a few dirty pages),
				// the rest dirty many pages, often half (a whole copy).
				switch rng.Intn(4) {
				case 0:
				case 1:
					next += 1 + rng.Intn(5)
				default:
					next += 50 + rng.Intn(400)
				}
			}
			for r := range rows {
				switch {
				case r == 1 && rng.Intn(100) == 0:
					fps[r] = 0
				case len(keys[r]) > 0 && rng.Float64() < repeat[r]:
					fps[r] = keys[r][rng.Intn(len(keys[r]))]
				default:
					fps[r] = Fingerprint(rng.Uint64())
					keys[r] = append(keys[r], fps[r])
				}
				model[r][fps[r]] = min(model[r][fps[r]]+1, countSaturated)
			}
			study.ObserveFingerprints(fps)
		}
		seal(payments)
		return epochs
	}

	// pages collects every page pointer of a set of epochs.
	pages := func(epochs []*sealEpoch) map[*[sealPageSlots]Fingerprint]bool {
		out := map[*[sealPageSlots]Fingerprint]bool{}
		for _, e := range epochs {
			for _, tables := range e.snap.tables {
				for _, st := range tables {
					if st != emptySealed {
						for _, pg := range st.keys {
							out[pg] = true
						}
					}
				}
			}
		}
		return out
	}

	// sharing checks the copy-on-write discipline between consecutive
	// seals of one study.
	sharing := func(epochs []*sealEpoch) {
		for i := 1; i < len(epochs); i++ {
			for sh, tables := range epochs[i].snap.tables {
				for r, cur := range tables {
					prev := epochs[i-1].snap.tables[sh][r]
					if prev == emptySealed || cur == prev {
						continue
					}
					if len(cur.keys) != len(prev.keys) {
						old := map[*[sealPageSlots]Fingerprint]bool{}
						for _, pg := range prev.keys {
							old[pg] = true
						}
						for _, pg := range cur.keys {
							if old[pg] {
								t.Fatalf("seal %d shard %d row %d: grown table shares a page with its previous seal", i, sh, r)
							}
						}
						continue
					}
					// Increments only ever change a page, so the changed
					// pages are the dirty ones.
					changed := 0
					for p := range cur.keys {
						if *cur.keys[p] != *prev.keys[p] || *cur.counts[p] != *prev.counts[p] {
							changed++
						}
					}
					if changed == 0 && cur.zeroCount == prev.zeroCount {
						t.Fatalf("seal %d shard %d row %d: unchanged table resealed, not shared whole", i, sh, r)
					}
					whole := 2*changed >= len(cur.keys)
					for p := range cur.keys {
						clean := *cur.keys[p] == *prev.keys[p] && *cur.counts[p] == *prev.counts[p]
						want := clean && !whole
						if (cur.keys[p] == prev.keys[p]) != want || (cur.counts[p] == prev.counts[p]) != want {
							t.Fatalf("seal %d shard %d row %d page %d: clean=%v, %d of %d pages changed, yet shared keys %v counts %v",
								i, sh, r, p, clean, changed, len(cur.keys), cur.keys[p] == prev.keys[p], cur.counts[p] == prev.counts[p])
						}
					}
				}
			}
		}
	}

	first := NewShardedIncStudy(rows, 1)
	firstEpochs := run(first, 6000)
	sharing(firstEpochs)
	// A study started after the first's Close counts in tables of its
	// own: none of its seals may publish a page of the first study.
	first.Close()
	second := NewShardedIncStudy(rows, 1)
	secondEpochs := run(second, 400)
	sharing(secondEpochs)
	old := pages(firstEpochs)
	for pg := range pages(secondEpochs) {
		if old[pg] {
			t.Fatal("a new study's seals publish a page of a closed study")
		}
	}
	second.Close()

	stopReaders()
	for i, e := range append(firstEpochs, secondEpochs...) {
		if !e.check(t, fmt.Sprintf("epoch %d", i), 1) {
			t.FailNow()
		}
	}
	if len(firstEpochs) < 20 {
		t.Fatalf("only %d seals; the interval mix is off", len(firstEpochs))
	}

	// The zero key's count lives outside the pages, so a seal in which
	// only it changed has no dirty page and must still publish anew.
	tab := newCountTable()
	tab.incr(5)
	before := tab.seal()
	tab.incr(0)
	if after := tab.seal(); after == before || after.get(0) != 1 || before.get(0) != 0 {
		t.Fatalf("zero-key-only seal: shared=%v, counts %d then %d", after == before, before.get(0), after.get(0))
	}
}

// TestSealCopyTrafficBounded feeds uniform fingerprints to a
// ShardedIncStudy sealed under the serving view's doubling gate — at a
// batch boundary, once the study has doubled since its previous seal —
// and then once more ungated, as a Drain ends. The bytes of the pages
// each seal does not share with the previous seal must sum to at most 3×
// the final CountBytes: about 2× from the gated seals, whose tables
// double between them, and 1× from the final seal. The bound is reached
// when the final tables are the size the last gated seal copied; here
// they are twice that, and the sum reads about 2×. A larger study counts
// and closes first, so the bound also holds for a study whose process
// has run another: its tables grow from the minimum, not from the size
// the earlier study reached.
func TestSealCopyTrafficBounded(t *testing.T) {
	rows := Figure3Rows
	rng := rand.New(rand.NewSource(83))
	fps := make([]Fingerprint, len(rows))
	observe := func(study *ShardedIncStudy) {
		for r := range fps {
			fps[r] = Fingerprint(rng.Uint64())
		}
		study.ObserveFingerprints(fps)
	}
	const payments, batch = 60_000, 256

	earlier := NewShardedIncStudy(rows, 2)
	for range 2 * payments {
		observe(earlier)
	}
	earlier.Close()

	study := NewShardedIncStudy(rows, 2)
	defer study.Close()
	var prev *IncSnapshot
	copied, seals, lastSeal := 0, 0, 0
	seal := func() {
		snap := study.Seal()
		copied += unsharedPageBytes(prev, snap)
		prev, lastSeal = snap, snap.Payments()
		seals++
	}
	for p := 1; p <= payments; p++ {
		observe(study)
		if p%batch == 0 && study.Payments() >= 2*lastSeal {
			seal()
		}
	}
	seal()
	final := prev.CountBytes()
	if copied > 3*final {
		t.Fatalf("%d seals copied %d bytes, %.2f× the final %d count bytes; want ≤ 3×",
			seals, copied, float64(copied)/float64(final), final)
	}
	t.Logf("%d seals copied %.2f× the final %d count bytes", seals, float64(copied)/float64(final), final)
}

// unsharedPageBytes sums the bytes of cur's pages that prev (nil before
// the first seal) does not hold in the same table: what sealing cur
// copied. The shared empty placeholder is never copied.
func unsharedPageBytes(prev, cur *IncSnapshot) int {
	n := 0
	for sh, tables := range cur.tables {
		for r, st := range tables {
			if st == emptySealed {
				continue
			}
			old := map[*[sealPageSlots]Fingerprint]bool{}
			if prev != nil {
				for _, pg := range prev.tables[sh][r].keys {
					old[pg] = true
				}
			}
			for _, pg := range st.keys {
				if !old[pg] {
					n += sealPageSlots * 9
				}
			}
		}
	}
	return n
}
