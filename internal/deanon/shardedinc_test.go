package deanon

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// TestShardedIncMatchesBatchStudy is the one differential over both
// faces of the sharded count-table core: for every shard fan-out and
// producer count, ParallelStudy.Results ≡ ShardedIncStudy.Seal().Results
// ≡ the map-based Study over the same stream; every mid-stream seal ≡
// Study over exactly the observed prefix; a sealed lookup ≡ the Study's
// count saturated at 2; and sealed epochs stay frozen through later
// observes, seals and Close. The incremental study has one producer, its
// default intake; the parallel study is fed by one producer, or by
// several concurrent feeders split over contiguous chunks — run under
// -race.
func TestShardedIncMatchesBatchStudy(t *testing.T) {
	feats := randomFeatures(4000, 31)
	cuts := []int{len(feats) / 5, len(feats) / 2, len(feats)}
	batch := NewStudy(Figure3Rows)
	var wants [][]RowResult
	prev := 0
	for _, cut := range cuts {
		for _, f := range feats[prev:cut] {
			batch.Observe(f)
		}
		prev = cut
		wants = append(wants, batch.Results())
	}
	final := wants[len(wants)-1]

	for _, shardBits := range []int{0, 1, 3} {
		for _, producers := range []int{1, 3} {
			t.Run(fmt.Sprintf("shardBits=%d/producers=%d", shardBits, producers), func(t *testing.T) {
				par := NewParallelStudy(Figure3Rows, shardBits)
				defer par.Close()
				inc := NewShardedIncStudy(Figure3Rows, shardBits)
				defer inc.Close()
				if inc.Shards() != 1<<shardBits || par.Shards() != 1<<shardBits {
					t.Fatalf("got %d and %d shards, want %d", inc.Shards(), par.Shards(), 1<<shardBits)
				}
				// feedInc folds one chunk into the incremental study through
				// fingerprints precomputed by its plan.
				feedInc := func(chunk []Features) {
					var fps []Fingerprint
					for _, f := range chunk {
						enc := EncodeFeatures(f)
						fps = enc.AppendFingerprints(inc.Plan(), fps[:0])
						inc.ObserveFingerprints(fps)
					}
				}
				var parFeeders []*Feeder
				if producers > 1 {
					for p := 0; p < producers; p++ {
						parFeeders = append(parFeeders, par.Feeder())
					}
				}

				var snaps []*IncSnapshot
				prev := 0
				for ci, cut := range cuts {
					part := feats[prev:cut]
					prev = cut
					if producers == 1 {
						for _, f := range part {
							par.Observe(f)
						}
					} else {
						var wg sync.WaitGroup
						per := (len(part) + producers - 1) / producers
						for p := 0; p < producers; p++ {
							wg.Add(1)
							go func(p int) {
								defer wg.Done()
								for _, f := range part[min(p*per, len(part)):min((p+1)*per, len(part))] {
									parFeeders[p].Observe(f)
								}
							}(p)
						}
						wg.Wait()
					}
					feedInc(part)
					snap := inc.Seal()
					if snap.Payments() != cut {
						t.Fatalf("cut=%d: sealed %d payments", cut, snap.Payments())
					}
					if got := snap.Results(); !reflect.DeepEqual(got, wants[ci]) {
						t.Fatalf("cut=%d: epoch diverges from batch prefix\ngot  %+v\nwant %+v", cut, got, wants[ci])
					}
					snaps = append(snaps, snap)
				}

				if got := par.Results(); !reflect.DeepEqual(got, final) {
					t.Fatalf("ParallelStudy results diverge\ngot  %+v\nwant %+v", got, final)
				}
				if par.Payments() != batch.Payments() {
					t.Fatalf("ParallelStudy payments %d != %d", par.Payments(), batch.Payments())
				}
				// Results must be re-readable (the importance study reads twice).
				if again := par.Results(); !reflect.DeepEqual(again, final) {
					t.Fatal("second ParallelStudy.Results call diverged")
				}

				last := snaps[len(snaps)-1]
				for fi, f := range feats[:400] {
					for row, res := range Figure3Rows {
						fp := FingerprintOf(f, res)
						want := uint8(min(batch.counts[row][fp], countSaturated))
						if got := last.LookupFingerprint(row, fp); got != want {
							t.Fatalf("feat=%d row=%d: lookup %d, batch count saturates to %d", fi, row, got, want)
						}
						if got := last.Lookup(row, f); got != want {
							t.Fatalf("feat=%d row=%d: Lookup %d != LookupFingerprint %d", fi, row, got, want)
						}
					}
				}

				// Immutability: every epoch still answers as it did when
				// sealed, despite later observes, seals, and Close.
				inc.Close()
				for i, snap := range snaps {
					if got := snap.Results(); !reflect.DeepEqual(got, wants[i]) {
						t.Fatalf("snapshot %d mutated after later seals and Close", i)
					}
				}
			})
		}
	}
}

// TestShardedIncObserveFingerprintsMatchesObserve pins the projected
// fast path (fingerprints precomputed upstream through the study plan)
// to the Observe path.
func TestShardedIncObserveFingerprintsMatchesObserve(t *testing.T) {
	feats := randomFeatures(2000, 41)
	ref := NewShardedIncStudy(Figure3Rows, 2)
	defer ref.Close()
	pre := NewShardedIncStudy(Figure3Rows, 2)
	defer pre.Close()

	var fps []Fingerprint
	for _, f := range feats {
		ref.Observe(f)
		enc := EncodeFeatures(f)
		fps = enc.AppendFingerprints(pre.Plan(), fps[:0])
		pre.ObserveFingerprints(fps)
	}
	want, got := ref.Seal(), pre.Seal()
	if !reflect.DeepEqual(got.Results(), want.Results()) {
		t.Fatalf("ObserveFingerprints diverges from Observe\ngot  %+v\nwant %+v", got.Results(), want.Results())
	}
	for _, f := range feats[:200] {
		for row := range Figure3Rows {
			if a, b := got.Lookup(row, f), want.Lookup(row, f); a != b {
				t.Fatalf("row %d: lookup %d != %d", row, a, b)
			}
		}
	}
}

// TestShardedIncUnseenLookups checks that fingerprints never observed
// report count 0 in a sealed snapshot.
func TestShardedIncUnseenLookups(t *testing.T) {
	inc := NewShardedIncStudy(Figure3Rows, 3)
	defer inc.Close()
	for _, f := range randomFeatures(500, 43) {
		inc.Observe(f)
	}
	snap := inc.Seal()
	// Different destination pool than randomFeatures uses → disjoint
	// fingerprints for every destination-selecting row.
	unseen := Features{Destination: acct(999_999)}
	for row, res := range Figure3Rows {
		if !res.Destination {
			continue
		}
		if got := snap.Lookup(row, unseen); got != 0 {
			t.Fatalf("row %d: unseen feature reported count %d", row, got)
		}
	}
}

// TestShardedIncConcurrentReaders hammers sealed snapshots from reader
// goroutines while the producer keeps observing and sealing — the
// serving pattern, run under -race in CI.
func TestShardedIncConcurrentReaders(t *testing.T) {
	feats := randomFeatures(2400, 47)
	inc := NewShardedIncStudy(Figure3Rows, 2)
	defer inc.Close()

	snapCh := make(chan *IncSnapshot, 16)
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for snap := range snapCh {
				for _, f := range feats[:50] {
					for row := range Figure3Rows {
						snap.Lookup(row, f)
					}
				}
				snap.Results()
			}
		}()
	}
	for i, f := range feats {
		inc.Observe(f)
		if i%200 == 199 {
			snapCh <- inc.Seal()
		}
	}
	close(snapCh)
	wg.Wait()

	batch := NewStudy(Figure3Rows)
	for _, f := range feats {
		batch.Observe(f)
	}
	if got, want := inc.Seal().Results(), batch.Results(); !reflect.DeepEqual(got, want) {
		t.Fatalf("final seal diverges from batch\ngot  %+v\nwant %+v", got, want)
	}
}
