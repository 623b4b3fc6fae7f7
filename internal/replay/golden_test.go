package replay

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"ripplestudy/internal/ledgerstore"
)

// TestGeneratedHistoryGolden pins, as literals, what the payment engine
// produces on a fixed generated history: the chain of page header hashes,
// the full page encodings (every TxMeta — path hops, intermediaries — is
// encoded into its page), the generator engine's state digest, and the
// Table II replay over it. Every other differential in
// the tree compares two users of the same engine, so a change to the
// pathfinder's visit order or parent choice would pass them all; this is
// the test it cannot pass. The literals were derived at commit 388ecfd;
// a change that moves them has changed routing, not just its speed.
func TestGeneratedHistoryGolden(t *testing.T) {
	for _, g := range []struct {
		seed                        int64
		chain, pageBytes, genDigest string
		crossSub, crossDel          int
		singleSub, singleDel        int
		removed                     int
		replayDigest, replayRoot    string
	}{
		{
			seed:      1,
			chain:     "ec36abd1d3e05de163959f82055fdbf951a1f1003bccc28b056cf09a78c3e106",
			pageBytes: "82d18cfdaf4968f69645e3ee57c76f5d6a999b2394fa7eb0a6ae6c4a34660d21",
			genDigest: "A6CD4DBB3DF6519F2CE1E41CC5E2C3625B3BBEF5AE8E0EB4E47702C7AE325B6E",
			crossSub:  13, crossDel: 0, singleSub: 120, singleDel: 21, removed: 131,
			replayDigest: "F8A5C4674BF2730125FC8CB7F0194DD5FC00873A15A4A685700CA18FB1536026",
			replayRoot:   "3F3457E3D911301F45BA8D9FF9254F52F3D542995D1AC62F1E3947F4D2E94787",
		},
		{
			seed:      2,
			chain:     "a1c01b09db677bbdb69337f42ebb9abd5de5f5f207d79dce305541bef420585b",
			pageBytes: "9c7afa9a6a01d9883285963ef9d90b35b6ed6b3e34968665ded1f9aa62796a35",
			genDigest: "BF2A2FA96B397FEFC2B2DFAC636E956A1CC8FD642A0B42DC627E9A3CABBD254A",
			crossSub:  10, crossDel: 0, singleSub: 115, singleDel: 7, removed: 131,
			replayDigest: "4A914B591DCEEAF42B0D29D89A07534736268454277B31F6BF32668AAA6FA83D",
			replayRoot:   "324CE407D3EDDEEAF787017BC696B928C1F368BFF4CD31933A0AFDCDC481BC5B",
		},
	} {
		pages, gen := generate(t, 3000, g.seed)
		chain, body := sha256.New(), sha256.New()
		var buf []byte
		for _, p := range pages {
			h := p.Header.Hash()
			chain.Write(h[:])
			buf = p.Encode(buf[:0])
			body.Write(buf)
		}
		if got := hex.EncodeToString(chain.Sum(nil)); got != g.chain {
			t.Errorf("seed %d: page-hash chain = %s, want %s", g.seed, got, g.chain)
		}
		if got := hex.EncodeToString(body.Sum(nil)); got != g.pageBytes {
			t.Errorf("seed %d: page encodings = %s, want %s", g.seed, got, g.pageBytes)
		}
		if got := gen.Engine.StateDigest().String(); got != g.genDigest {
			t.Errorf("seed %d: generator state digest = %s, want %s", g.seed, got, g.genDigest)
		}
		snap := uint64(float64(gen.LastSeq) * 0.7)
		store, _ := storeWithHistory(t, pages)
		res, err := RunOpts(store, snap, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Cross.Submitted != g.crossSub || res.Cross.Delivered != g.crossDel ||
			res.Single.Submitted != g.singleSub || res.Single.Delivered != g.singleDel ||
			res.RemovedMarketMakers != g.removed {
			t.Errorf("seed %d: Table II = cross %d/%d single %d/%d removed %d, want cross %d/%d single %d/%d removed %d",
				g.seed, res.Cross.Submitted, res.Cross.Delivered, res.Single.Submitted, res.Single.Delivered, res.RemovedMarketMakers,
				g.crossSub, g.crossDel, g.singleSub, g.singleDel, g.removed)
		}
		if got := res.StateDigest.String(); got != g.replayDigest {
			t.Errorf("seed %d: replay state digest = %s, want %s", g.seed, got, g.replayDigest)
		}
		if got := res.StateRoot.String(); got != g.replayRoot {
			t.Errorf("seed %d: replay state root = %s, want %s", g.seed, got, g.replayRoot)
		}
	}
}

// TestCheckpointSidecarGolden pins the checkpoint sidecar's bytes as a
// literal: every file name, length and content after a checkpointed
// build over half of a generated history, then a Table II run that
// resumes from that build's base and checkpoints on to its snapshot. So
// it covers batches and bases written from a fresh tree and from one
// loaded back off disk, the manifests, and the base the second run
// supersedes. The literal was taken at commit 66f088f; a change that
// moves it has changed what a checkpoint writes, not just how fast.
func TestCheckpointSidecarGolden(t *testing.T) {
	const want = "34aab8468b74e22ab5601a2f79cc811e70e45ed972d9b78e6309c8e86102cad4"
	pages, _ := generate(t, 8000, 7)
	store, _ := storeWithHistory(t, pages)
	half := pages[len(pages)/2].Header.Sequence
	snap := pages[len(pages)*7/10].Header.Sequence
	if _, err := BuildStateOpts(store, half, BuildOptions{CheckpointEvery: 300, DisableResume: true}); err != nil {
		t.Fatal(err)
	}
	dir := store.CheckpointDir()
	metas, err := ledgerstore.ListCheckpoints(dir)
	if err != nil || len(metas) == 0 {
		t.Fatalf("checkpoints after the first build: %v (%d found)", err, len(metas))
	}
	resumedAt := metas[len(metas)-1].Seq
	if _, seq, ok := resumeFromCheckpoint(dir, snap); !ok || seq != resumedAt {
		t.Fatalf("resume point %d (ok=%v), want %d", seq, ok, resumedAt)
	}
	if _, err := RunOpts(store, snap, BuildOptions{CheckpointEvery: 300}); err != nil {
		t.Fatal(err)
	}
	if metas, err = ledgerstore.ListCheckpoints(dir); err != nil || metas[len(metas)-1].Seq <= resumedAt {
		t.Fatalf("the resumed run wrote no checkpoint past %d (%v)", resumedAt, err)
	}

	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(sum, "%s %d\n", e.Name(), len(data))
		sum.Write(data)
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != want {
		t.Errorf("sidecar of %d files hashes to %s, want %s", len(entries), got, want)
	}
}
