package replay

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/payment"
	"ripplestudy/internal/shamap"
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

	// A build to the snapshot leaves the base of the checkpoint on it, so
	// the same resume runs once from that base and, with it deleted, once
	// from the union of batches.
	if _, err := BuildStateOpts(store, snap, BuildOptions{CheckpointEvery: every, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	cold, err := RunOpts(store, snap, BuildOptions{DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}
	onSnapRoot := ledger.Hash{}
	for _, m := range metas {
		if m.Seq == onSnap {
			onSnapRoot = m.Root
		}
	}
	base, err := ledgerstore.OpenCheckpointBase(store.CheckpointDir(), onSnap)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := shamap.Load(onSnapRoot, base.Get); err != nil {
		t.Fatalf("the base at %d does not load on its own: %v", onSnap, err)
	}
	for _, from := range []string{"base", "union"} {
		if _, seq, ok := resumeFromCheckpoint(store.CheckpointDir(), snap); !ok || seq != onSnap {
			t.Fatalf("from the %s: resumed from %d (ok=%v), want %d", from, seq, ok, onSnap)
		}
		resumed, err := RunOpts(store, snap, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, cold, resumed, "resumed from the "+from)
		if from == "base" {
			if err := os.Remove(filepath.Join(store.CheckpointDir(), "cp-"+pad16(onSnap)+".base")); err != nil {
				t.Fatal(err)
			}
		}
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
	// fails on open, which poisons the whole layered load. The base would
	// restore the newest checkpoint on its own, so it goes first.
	metas, err := ledgerstore.ListCheckpoints(store.CheckpointDir())
	if err != nil || len(metas) == 0 {
		t.Fatalf("checkpoints: %v (%d found)", err, len(metas))
	}
	basePath := filepath.Join(store.CheckpointDir(), "cp-"+pad16(metas[len(metas)-1].Seq)+".base")
	if err := os.Remove(basePath); err != nil {
		t.Fatal(err)
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

	if _, seq, ok := resumeFromCheckpoint(store.CheckpointDir(), snap); ok {
		t.Fatalf("resumed from %d behind a damaged first batch", seq)
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

// sidecar is a small history with five checkpoints and a tail, written
// by one cold build to its end, which also left the base of the newest
// checkpoint; digest and root are where that build ended.
type sidecar struct {
	store        *ledgerstore.Store
	dir          string
	last, every  uint64
	metas        []ledgerstore.CheckpointMeta
	digest, root ledger.Hash
}

func newSidecar(t *testing.T) *sidecar {
	t.Helper()
	// A small population keeps the state, and so each restart a test
	// makes, small; the sidecar's shape does not depend on it.
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{Payments: 400, Seed: 12, Users: 40, MarketMakers: 8, SkipSignatures: true},
		func(p *ledger.Page) error {
			pages = append(pages, p)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	sc := &sidecar{}
	sc.store, sc.last = storeWithHistory(t, pages)
	sc.dir = sc.store.CheckpointDir()
	sc.every = uint64(len(pages)) * 2 / 11 // five checkpoints and a tail
	cold, err := BuildStateOpts(sc.store, sc.last, BuildOptions{CheckpointEvery: sc.every, DisableResume: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.digest = cold.StateDigest()
	if sc.root, err = cold.SealState(); err != nil {
		t.Fatal(err)
	}
	if sc.metas, err = ledgerstore.ListCheckpoints(sc.dir); err != nil || len(sc.metas) < 4 {
		t.Fatalf("checkpoints: %v (%d found, test needs 4)", err, len(sc.metas))
	}
	return sc
}

func (sc *sidecar) path(seq uint64, ext string) string {
	return filepath.Join(sc.dir, "cp-"+pad16(seq)+ext)
}

func (sc *sidecar) newest() uint64 { return sc.metas[len(sc.metas)-1].Seq }

// loadBase loads the newest checkpoint's tree from its base alone.
func (sc *sidecar) loadBase() error {
	cp := sc.metas[len(sc.metas)-1]
	base, err := ledgerstore.OpenCheckpointBase(sc.dir, cp.Seq)
	if err != nil {
		return err
	}
	_, err = shamap.Load(cp.Root, base.Get)
	return err
}

// restart holds a restart to the end of history to resuming from wantSeq
// (ok=false and 0 for a cold replay) and to ending where the cold build
// did.
func (sc *sidecar) restart(t *testing.T, what string, wantSeq uint64) {
	t.Helper()
	if _, seq, ok := resumeFromCheckpoint(sc.dir, sc.last); seq != wantSeq || ok != (wantSeq > 0) {
		t.Errorf("%s: resumed from %d (ok=%v), want %d", what, seq, ok, wantSeq)
	}
	eng, err := BuildStateOpts(sc.store, sc.last, BuildOptions{})
	if err != nil {
		t.Fatalf("%s: restart failed: %v", what, err)
	}
	root, err := eng.SealState()
	if err != nil {
		t.Fatal(err)
	}
	if eng.StateDigest() != sc.digest || root != sc.root {
		t.Errorf("%s: restart reached digest %s root %s, cold %s / %s", what,
			eng.StateDigest().Short(), root.Short(), sc.digest.Short(), sc.root.Short())
	}
}

// damages returns the flips and truncations a sweep writes over one
// file: a flipped byte at a stride through the whole file (in a batch
// also the first record's length, hash and payload and the last
// record's CRC), and truncations from nothing to one byte short.
func damages(blob []byte, batch bool) []damage {
	var at []int
	if batch {
		at = []int{0, 3, 4, 20, 36, 40, len(blob) - 4, len(blob) - 1}
	}
	for i := len(blob) / 6; i < len(blob); i += len(blob)/6 | 1 {
		at = append(at, i)
	}
	var out []damage
	for _, i := range at {
		flipped := append([]byte(nil), blob...)
		flipped[i] ^= 0x80
		out = append(out, damage{fmt.Sprintf("byte %d of %d flipped", i, len(blob)), flipped})
	}
	for _, n := range []int{0, 39, len(blob) / 2, len(blob) - 2} {
		out = append(out, damage{fmt.Sprintf("truncated to %d of %d bytes", n, len(blob)), blob[:n]})
	}
	return out
}

// damage is one damaged copy of a sidecar file.
type damage struct {
	what  string
	bytes []byte
}

// withFile runs fn with path holding damaged, then puts the file back.
func withFile(t *testing.T, path string, damaged []byte, fn func()) {
	t.Helper()
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
	fn()
}

// TestCheckpointCorruptionSweep damages the sidecar one file at a time —
// every batch and every manifest, a flipped byte at positions that land in
// record headers, hashes, payloads and CRCs, and truncations from nothing
// to one byte short — and holds the restart to three things: it never
// fails, it ends in the cold rebuild's digest and sealed root, and it
// gives up no more than it must: the resume point is the newest checkpoint
// older than the damaged one (the batch of checkpoint k carries nodes every
// later tree still uses, so k and everything after it is lost), and the
// replay is cold only when the first is hit. The base is deleted first, so
// every restart reads the incremental batches; TestCheckpointBaseSweep
// damages the base.
//
// The flip sets a byte's top bit, which no JSON manifest survives. A
// manifest has no checksum, so a flip that turns one hex digit of
// state_digest into another is a different, valid manifest; catching that
// takes a format change this sidecar has not had.
func TestCheckpointCorruptionSweep(t *testing.T) {
	sc := newSidecar(t)
	if err := os.Remove(sc.path(sc.newest(), ".base")); err != nil {
		t.Fatal(err)
	}
	sc.restart(t, "undamaged sidecar", sc.newest())

	cases := 0
	for k, m := range sc.metas {
		wantSeq := uint64(0)
		if k > 0 {
			wantSeq = sc.metas[k-1].Seq
		}
		for _, ext := range []string{".nodes", ".json"} {
			path := sc.path(m.Seq, ext)
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, d := range damages(blob, ext == ".nodes") {
				cases++
				withFile(t, path, d.bytes, func() {
					sc.restart(t, filepath.Base(path)+", "+d.what, wantSeq)
				})
			}
		}
	}
	t.Logf("%d damaged sidecars over %d checkpoints", cases, len(sc.metas))
}

// TestCheckpointBaseRestoresAlone damages every incremental batch, which
// leaves the union path nothing to load, and holds the restart to the
// newest checkpoint read from its base alone, ending where a cold
// replay does.
func TestCheckpointBaseRestoresAlone(t *testing.T) {
	sc := newSidecar(t)
	for _, m := range sc.metas {
		path := sc.path(m.Seq, ".nodes")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		blob[len(blob)/2] ^= 0x40 // same size, so the manifest still lists it
		if err := os.WriteFile(path, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ledgerstore.OpenCheckpointNodes(sc.dir, sc.metas[:1]); err == nil {
		t.Fatal("the damaged first batch still opens")
	}
	sc.restart(t, "every batch damaged", sc.newest())
}

// TestCheckpointBaseSweep flips and truncates the base at strides. No
// damaged base loads on its own, and each time the restart falls back to
// the incremental batches at the same checkpoint.
func TestCheckpointBaseSweep(t *testing.T) {
	sc := newSidecar(t)
	path := sc.path(sc.newest(), ".base")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range damages(blob, true) {
		withFile(t, path, d.bytes, func() {
			if sc.loadBase() == nil {
				t.Errorf("base, %s: still loads on its own", d.what)
			}
			sc.restart(t, "base, "+d.what, sc.newest())
		})
	}
}

// TestCheckpointBaseStaleTmp leaves the debris of an interrupted base
// write behind: a restart ignores it, and the next build that writes the
// base replaces it with a base that loads on its own.
func TestCheckpointBaseStaleTmp(t *testing.T) {
	sc := newSidecar(t)
	path := sc.path(sc.newest(), ".base")
	if err := os.Rename(path, path+".tmp"); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path + ".tmp")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path+".tmp", blob[:len(blob)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	sc.restart(t, "torn base tmp", sc.newest())

	if _, err := BuildStateOpts(sc.store, sc.last, BuildOptions{CheckpointEvery: sc.every, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("the stale tmp survived the base write: %v", err)
	}
	if err := sc.loadBase(); err != nil {
		t.Fatalf("the rewritten base does not load on its own: %v", err)
	}
	sc.restart(t, "rewritten base", sc.newest())
}

// TestCheckpointBaseSupersedesOlder holds a sidecar to the base of the
// newest checkpoint a build sealed: a build to an earlier snapshot
// leaves the base there, and a later build to the end deletes it once
// the newer base has committed.
func TestCheckpointBaseSupersedesOlder(t *testing.T) {
	sc := newSidecar(t)
	bases := func() []string {
		t.Helper()
		matches, err := filepath.Glob(filepath.Join(sc.dir, "*.base*"))
		if err != nil {
			t.Fatal(err)
		}
		for i, m := range matches {
			matches[i] = filepath.Base(m)
		}
		return matches
	}
	if err := os.RemoveAll(sc.dir); err != nil {
		t.Fatal(err)
	}
	mid := sc.metas[2].Seq
	if _, err := BuildStateOpts(sc.store, mid, BuildOptions{CheckpointEvery: sc.every, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	if got, want := bases(), []string{filepath.Base(sc.path(mid, ".base"))}; !slices.Equal(got, want) {
		t.Fatalf("after a build to %d: bases %v, want %v", mid, got, want)
	}
	if _, err := BuildStateOpts(sc.store, sc.last, BuildOptions{CheckpointEvery: sc.every, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	if got, want := bases(), []string{filepath.Base(sc.path(sc.newest(), ".base"))}; !slices.Equal(got, want) {
		t.Fatalf("after a build to the end: bases %v, want %v", got, want)
	}
	sc.restart(t, "superseded base", sc.newest())
}

// TestCheckpointBaseRootGuard holds the base writer to the tree of the
// checkpoint it names: a state root that moved since that checkpoint
// fails the build, and nothing is written.
func TestCheckpointBaseRootGuard(t *testing.T) {
	eng := payment.NewEngine(payment.WithStateTree())
	root, err := eng.SealState()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	cw := &checkpointWriter{dir: dir, last: &ledgerstore.CheckpointMeta{Seq: 7, Root: root}}
	cw.last.Root[0] ^= 1
	if err := cw.writeBase(eng); err == nil {
		t.Fatal("a base was written for a root the checkpoint does not have")
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
		t.Fatalf("the refused write left %d files (%v)", len(entries), err)
	}
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
	b, err := BuildStateOpts(FromPages(pages), last, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.StateDigest() != b.StateDigest() {
		t.Error("checkpoint options changed a memory-source replay")
	}
}
