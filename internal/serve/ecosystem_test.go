package serve

import (
	"testing"
)

// TestEcoShardsRecycledSealParity pins the seal path across epochs: the
// multi-shard ecosystem view folds each epoch's shard deltas into one
// cumulative collector and Resets the shards, and every seal along the
// way must be byte-identical (as JSON) to a single-shot merge into a
// brand-new collector over the same records.
func TestEcoShardsRecycledSealParity(t *testing.T) {
	pages := genPages(t, 1500, 47)
	fpSt := newFingerprintState(1, 1)
	defer fpSt.close()
	proj := newProjector(fpSt.plan())
	recs := ecoPartsOf(proj, pages)

	const shards = 3
	recycled := newEcoShards(shards)
	cuts := []int{len(recs) / 4, len(recs) / 2, len(recs)}
	prev := 0
	for epoch, cut := range cuts {
		for i, rec := range recs[prev:cut] {
			recycled.apply((prev+i)%shards, rec)
		}
		// Reference: the same prefix, same partition, sealed by a shard
		// set that has never sealed before (merged target allocated fresh).
		fresh := newEcoShards(shards)
		for i, rec := range recs[:cut] {
			fresh.apply(i%shards, rec)
		}
		got := ecoJSON(t, recycled.snapshot(uint64(epoch), 99))
		want := ecoJSON(t, fresh.snapshot(uint64(epoch), 99))
		if string(got) != string(want) {
			t.Fatalf("seal %d (through %d records): recycled merge target diverges\ngot  %s\nwant %s",
				epoch, cut, got, want)
		}
		prev = cut
	}
}

// TestEcoShardsSealCostFollowsDelta pins the delta design: the shards
// hold only the records since the last seal, so a seal after one new
// record allocates the same after 500 records of history as after 2,000.
// Both histories are followed by the same new records, because what a
// record allocates depends on its payments (a Reset shard allocates a
// histogram per currency it sees).
func TestEcoShardsSealCostFollowsDelta(t *testing.T) {
	const shards, runs = 4, 50
	pages := genPages(t, 4000, 48)
	if len(pages) < 2000+runs+1 {
		t.Fatalf("fixture has %d pages, need %d", len(pages), 2000+runs+1)
	}
	fpSt := newFingerprintState(1, 1)
	defer fpSt.close()
	proj := newProjector(fpSt.plan())
	recs := ecoPartsOf(proj, pages)

	sealAllocs := func(history int) float64 {
		e := newEcoShards(shards)
		for i, rec := range recs[:history] {
			e.apply(i%shards, rec)
		}
		e.snapshot(0, 1)
		next := 2000
		return testing.AllocsPerRun(runs, func() {
			e.apply(next%shards, recs[next])
			next++
			e.snapshot(1, 1)
		})
	}
	short, long := sealAllocs(500), sealAllocs(2000)
	t.Logf("allocs per one-record seal: %.0f after 500 records, %.0f after 2000", short, long)
	if short != long {
		t.Errorf("a one-record seal allocates %.0f after 2000 records but %.0f after 500: the seal is not O(delta)", long, short)
	}
}
