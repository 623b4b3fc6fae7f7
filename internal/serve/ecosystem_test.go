package serve

import (
	"testing"
)

// TestEcoShardsRecycledSealParity pins the seal-path recycling: the
// multi-shard ecosystem view reuses one merge-target collector across
// seals (Reset + re-merge) instead of allocating a fresh one per epoch,
// and every seal along the way must be byte-identical (as JSON) to a
// single-shot merge into a brand-new collector over the same records.
func TestEcoShardsRecycledSealParity(t *testing.T) {
	pages := genPages(t, 1500, 47)
	fpSt := newFingerprintState(1, 1)
	defer fpSt.close()
	proj := newProjector(fpSt.plan())
	recs := make([]*pageRecord, len(pages))
	for i, p := range pages {
		recs[i] = new(pageRecord)
		proj.fromPage(p, recs[i])
	}

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

// TestEcoShardsSealReusesMergeTarget asserts the optimization is
// actually on: steady-state seals allocate measurably less than seals
// forced to rebuild the merge target from scratch, because the Reset
// collector keeps its map buckets.
func TestEcoShardsSealReusesMergeTarget(t *testing.T) {
	pages := genPages(t, 2000, 48)
	fpSt := newFingerprintState(1, 1)
	defer fpSt.close()
	proj := newProjector(fpSt.plan())

	const shards = 4
	e := newEcoShards(shards)
	rec := new(pageRecord)
	for i, p := range pages {
		proj.fromPage(p, rec)
		e.apply(i%shards, rec)
		rec = new(pageRecord)
	}
	e.snapshot(0, 1) // warm the merge target

	recycledAllocs := testing.AllocsPerRun(5, func() {
		e.snapshot(1, 1)
	})
	coldAllocs := testing.AllocsPerRun(5, func() {
		e.merged = nil // force a fresh merge target, the pre-pooling path
		e.snapshot(1, 1)
	})
	t.Logf("seal allocs: recycled=%.0f cold=%.0f", recycledAllocs, coldAllocs)
	if recycledAllocs >= coldAllocs {
		t.Errorf("recycled seal allocates %.0f, cold %.0f — pooling is not saving allocations",
			recycledAllocs, coldAllocs)
	}
}
