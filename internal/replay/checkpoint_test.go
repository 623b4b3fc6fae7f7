package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/synth"
)

// storeWithHistory persists pages into a fresh disk store and returns
// the reopened store plus the last page sequence.
func storeWithHistory(t *testing.T, pages []*ledger.Page) (*ledgerstore.Store, uint64) {
	t.Helper()
	dir := t.TempDir()
	store, err := ledgerstore.Create(dir, ledgerstore.WithSegmentBytes(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pages {
		if err := store.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}
	return store, pages[len(pages)-1].Header.Sequence
}

// TestCheckpointResumeMatchesCold is the resume differential: replays
// resumed from a checkpoint must be bit-identical — rows, digest, and
// sealed state root — to cold replays, for checkpoints strictly before,
// exactly on, and after the snapshot sequence. `make race` runs it
// under the race detector.
func TestCheckpointResumeMatchesCold(t *testing.T) {
	pages, _ := generate(t, 4000, 9)
	store, last := storeWithHistory(t, pages)
	snap := pages[len(pages)*7/10].Header.Sequence

	// Seed the sidecar across the FULL history, so later snapshots have
	// checkpoints past them (the resume must ignore those).
	const every = 40
	if _, err := BuildStateOpts(store, last, BuildOptions{CheckpointEvery: every, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	metas, err := ledgerstore.ListCheckpoints(store.CheckpointDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(metas) < 3 {
		t.Fatalf("only %d checkpoints written; test needs several", len(metas))
	}
	if metas[len(metas)-1].Seq <= snap {
		t.Fatalf("no checkpoint past the snapshot (last %d, snap %d)", metas[len(metas)-1].Seq, snap)
	}

	// A checkpoint exactly on the snapshot, and one strictly before it.
	onSnap := uint64(0)
	for _, m := range metas {
		if m.Seq <= snap {
			onSnap = m.Seq
		}
	}
	if onSnap == 0 {
		t.Fatal("no checkpoint at or before the snapshot")
	}
	for _, tc := range []struct {
		name string
		snap uint64
	}{
		{"checkpoint-before-snapshot", snap},
		{"checkpoint-on-snapshot", onSnap},
		{"checkpoints-after-snapshot", metas[0].Seq + 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cold, err := RunOpts(store, tc.snap, BuildOptions{DisableResume: true})
			if err != nil {
				t.Fatal(err)
			}
			resumed, err := RunOpts(store, tc.snap, BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			sameResult(t, cold, resumed, "resumed")
		})
	}

	// BuildState itself must agree too, at a snapshot between checkpoints.
	coldEng, err := BuildStateOpts(store, snap, BuildOptions{DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}
	resumedEng, err := BuildStateOpts(store, snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if coldEng.StateDigest() != resumedEng.StateDigest() {
		t.Error("BuildState digest differs cold vs resumed")
	}
	coldRoot, err := coldEng.SealState()
	if err != nil {
		t.Fatal(err)
	}
	resumedRoot, err := resumedEng.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if coldRoot != resumedRoot {
		t.Errorf("BuildState root %s cold vs %s resumed", coldRoot.Short(), resumedRoot.Short())
	}
}

// TestCheckpointCorruptionFallsBackCold damages a checkpoint batch and
// checks that resume silently degrades to a cold replay with identical
// results — corruption can slow a replay down but never change it.
func TestCheckpointCorruptionFallsBackCold(t *testing.T) {
	pages, _ := generate(t, 2000, 10)
	store, _ := storeWithHistory(t, pages)
	snap := pages[len(pages)*7/10].Header.Sequence

	if _, err := BuildStateOpts(store, snap, BuildOptions{CheckpointEvery: 30, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	cold, err := RunOpts(store, snap, BuildOptions{DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}

	// Flip one byte in the middle of the first batch file: its CRC check
	// fails on open, which poisons the whole layered load.
	metas, err := ledgerstore.ListCheckpoints(store.CheckpointDir())
	if err != nil || len(metas) == 0 {
		t.Fatalf("checkpoints: %v (%d found)", err, len(metas))
	}
	nodesPath := filepath.Join(store.CheckpointDir(), "cp-"+pad16(metas[0].Seq)+".nodes")
	blob, err := os.ReadFile(nodesPath)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x40
	if err := os.WriteFile(nodesPath, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	resumed, err := RunOpts(store, snap, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, cold, resumed, "fallback after corruption")
}

// TestCheckpointCorruptionFallsBackOneCheckpoint damages batches from
// the snapshot's side of the sidecar inward and checks that each costs
// one checkpoint, not all of them: a batch past the snapshot is not even
// opened, the newest eligible one sends the resume to the one before it,
// and so on down — with Table II unchanged.
func TestCheckpointCorruptionFallsBackOneCheckpoint(t *testing.T) {
	pages, _ := generate(t, 2000, 10)
	store, last := storeWithHistory(t, pages)
	snap := pages[len(pages)*7/10].Header.Sequence
	if _, err := BuildStateOpts(store, last, BuildOptions{CheckpointEvery: 30, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	cold, err := RunOpts(store, snap, BuildOptions{DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}
	dir := store.CheckpointDir()
	metas, err := ledgerstore.ListCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	newest := -1 // newest checkpoint at or before the snapshot
	for i, m := range metas {
		if m.Seq <= snap {
			newest = i
		}
	}
	if newest < 3 || newest+1 >= len(metas) {
		t.Fatalf("checkpoint %d of %d is the newest before the snapshot; test needs three before it and one after", newest, len(metas))
	}
	for _, tc := range []struct{ damage, resume int }{
		{newest + 1, newest},
		{newest, newest - 1},
		{newest - 2, newest - 3}, // skipping one: the damage decides, not the count
	} {
		path := filepath.Join(dir, "cp-"+pad16(metas[tc.damage].Seq)+".nodes")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x40
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, seq, ok := resumeFromCheckpoint(dir, snap); !ok || seq != metas[tc.resume].Seq {
			t.Fatalf("batch %d damaged: resumed from %d (ok=%v), want checkpoint %d at %d", tc.damage, seq, ok, tc.resume, metas[tc.resume].Seq)
		}
		resumed, err := RunOpts(store, snap, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, cold, resumed, "resumed behind a damaged batch")
	}
}

// TestCheckpointCorruptionSweep damages the sidecar one file at a time —
// every batch and every manifest, a flipped byte at positions that land in
// record headers, hashes, payloads and CRCs, and truncations from nothing
// to one byte short — and holds the restart to three things: it never
// fails, it ends in the cold rebuild's digest and sealed root, and it
// gives up no more than it must: the resume point is the newest checkpoint
// older than the damaged one (the batch of checkpoint k carries nodes every
// later tree still uses, so k and everything after it is lost), and the
// replay is cold only when the first is hit.
//
// The flip sets a byte's top bit, which no JSON manifest survives. A
// manifest has no checksum, so a flip that turns one hex digit of
// state_digest into another is a different, valid manifest; catching that
// takes a format change this sidecar has not had.
func TestCheckpointCorruptionSweep(t *testing.T) {
	// A small population keeps the state, and so each of the restarts
	// below, small; the sidecar's shape does not depend on it.
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{Payments: 400, Seed: 12, Users: 40, MarketMakers: 8, SkipSignatures: true},
		func(p *ledger.Page) error {
			pages = append(pages, p)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	store, last := storeWithHistory(t, pages)
	every := uint64(len(pages)) * 2 / 11 // five checkpoints and a tail
	cold, err := BuildStateOpts(store, last, BuildOptions{CheckpointEvery: every, DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}
	wantDigest := cold.StateDigest()
	wantRoot, err := cold.SealState()
	if err != nil {
		t.Fatal(err)
	}
	dir := store.CheckpointDir()
	metas, err := ledgerstore.ListCheckpoints(dir)
	if err != nil || len(metas) < 4 {
		t.Fatalf("checkpoints: %v (%d found, test needs 4)", err, len(metas))
	}
	if _, seq, ok := resumeFromCheckpoint(dir, last); !ok || seq != metas[len(metas)-1].Seq {
		t.Fatalf("undamaged sidecar resumes from %d (ok=%v), newest checkpoint is %d", seq, ok, metas[len(metas)-1].Seq)
	}

	cases := 0
	check := func(k int, path, what string, damaged []byte) {
		t.Helper()
		cases++
		pristine, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := os.WriteFile(path, pristine, 0o644); err != nil {
				t.Fatal(err)
			}
		}()
		wantSeq := uint64(0)
		if k > 0 {
			wantSeq = metas[k-1].Seq
		}
		if _, seq, ok := resumeFromCheckpoint(dir, last); seq != wantSeq || ok != (k > 0) {
			t.Errorf("%s, %s: resumed from %d (ok=%v), want %d", filepath.Base(path), what, seq, ok, wantSeq)
		}
		eng, err := BuildStateOpts(store, last, BuildOptions{})
		if err != nil {
			t.Fatalf("%s, %s: restart failed: %v", filepath.Base(path), what, err)
		}
		root, err := eng.SealState()
		if err != nil {
			t.Fatal(err)
		}
		if eng.StateDigest() != wantDigest || root != wantRoot {
			t.Errorf("%s, %s: restart reached digest %s root %s, cold %s / %s", filepath.Base(path), what,
				eng.StateDigest().Short(), root.Short(), wantDigest.Short(), wantRoot.Short())
		}
	}
	for k, m := range metas {
		for _, ext := range []string{".nodes", ".json"} {
			path := filepath.Join(dir, "cp-"+pad16(m.Seq)+ext)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// A stride through the whole file; in a batch also the first
			// record's length, hash and payload and the last record's CRC.
			var at []int
			if ext == ".nodes" {
				at = []int{0, 3, 4, 20, 36, 40, len(blob) - 4, len(blob) - 1}
			}
			for i := len(blob) / 6; i < len(blob); i += len(blob)/6 | 1 {
				at = append(at, i)
			}
			for _, i := range at {
				flipped := append([]byte(nil), blob...)
				flipped[i] ^= 0x80
				check(k, path, fmt.Sprintf("byte %d of %d flipped", i, len(blob)), flipped)
			}
			for _, n := range []int{0, 39, len(blob) / 2, len(blob) - 2} {
				check(k, path, fmt.Sprintf("truncated to %d of %d bytes", n, len(blob)), blob[:n])
			}
		}
	}
	t.Logf("%d damaged sidecars over %d checkpoints", cases, len(metas))
}

// pad16 renders a sequence like the checkpoint file naming does.
func pad16(seq uint64) string {
	const digits = "0123456789"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[seq%10]
		seq /= 10
	}
	return string(b[:])
}

// TestMemorySourceHasNoCheckpoints pins the zero-config behavior: a
// memory source neither writes nor resumes, and options asking for
// checkpointing on it are a quiet no-op.
func TestMemorySourceHasNoCheckpoints(t *testing.T) {
	pages, _ := generate(t, 800, 11)
	last := pages[len(pages)-1].Header.Sequence
	a, err := BuildStateOpts(FromPages(pages), last, BuildOptions{CheckpointEvery: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildState(FromPages(pages), last)
	if err != nil {
		t.Fatal(err)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Error("checkpoint options changed a memory-source replay")
	}
}
