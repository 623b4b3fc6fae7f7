// Checkpoint sidecar: alongside the page segments (and seqindex.json),
// a store directory may carry a `checkpoints/` subdirectory holding
// sealed replay state. Each checkpoint is a pair of files named by the
// page sequence it was sealed at:
//
//	cp-%016d.nodes  — nodestore batch: the state-tree nodes NEW since
//	                  the previous checkpoint (content-addressed records,
//	                  see internal/nodestore framing)
//	cp-%016d.json   — manifest: the sealed root, the engine scalars the
//	                  tree cannot carry (the history-chained StateDigest),
//	                  and integrity counts for the nodes file
//
// Batches are incremental: reconstructing the tree at checkpoint N
// requires the union of every cp-*.nodes with sequence ≤ N, read back
// under one index. A missing or damaged batch makes the checkpoints from
// it onward unloadable, and the replayer resumes from the newest one
// before it (or rebuilds cold when there is none).
//
// A build that writes checkpoints ends by writing one more file, the
// base of the newest checkpoint it sealed:
//
//	cp-%016d.base   — nodestore batch: EVERY node of that checkpoint's
//	                  tree, parents first, so a restart from it opens
//	                  one file sized by the state rather than by the
//	                  history of batches
//
// A base has no manifest of its own: it is read under its checkpoint's
// manifest, and the load checks every record's CRC and every node's hash
// against that manifest's root, so a damaged or foreign base fails the
// load and the restart reads the incremental batches instead. Writing a
// base deletes the bases of older checkpoints once it is durable; the
// incremental batches are never deleted, so every checkpoint stays
// loadable.
//
// Every file is committed the same way (commitFile): written to a tmp
// name and synced, renamed into place, and the directory synced. A
// manifest is committed after its nodes file is synced, so a manifest's
// existence implies a complete batch.
package ledgerstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/nodestore"
)

// CheckpointDirName is the sidecar subdirectory inside a store dir.
const CheckpointDirName = "checkpoints"

// CheckpointDir returns the store's checkpoint sidecar path (which may
// not exist yet).
func (s *Store) CheckpointDir() string { return filepath.Join(s.dir, CheckpointDirName) }

// CheckpointMeta is one checkpoint's manifest.
type CheckpointMeta struct {
	// Seq is the page sequence the checkpoint was sealed after: replaying
	// every transaction in pages ≤ Seq produces exactly this state.
	Seq uint64 `json:"seq"`
	// Root is the sealed state-tree root.
	Root ledger.Hash `json:"root"`
	// StateDigest is the engine's history-chained digest at Seq. It is
	// not derivable from the tree, so the manifest carries it.
	StateDigest ledger.Hash `json:"state_digest"`
	// TotalDrops and FeesDestroyed cross-check the tree's meta leaf.
	TotalDrops    uint64 `json:"total_drops"`
	FeesDestroyed int64  `json:"fees_destroyed"`
	// NewNodes and NodesBytes describe the sibling .nodes batch; the
	// loader rejects batches whose size disagrees.
	NewNodes   int   `json:"new_nodes"`
	NodesBytes int64 `json:"nodes_bytes"`
}

func checkpointBase(seq uint64) string { return fmt.Sprintf("cp-%016d", seq) }
func checkpointNodesPath(dir string, seq uint64) string {
	return filepath.Join(dir, checkpointBase(seq)+".nodes")
}
func checkpointMetaPath(dir string, seq uint64) string {
	return filepath.Join(dir, checkpointBase(seq)+".json")
}

// WriteCheckpoint persists one checkpoint into dir (created on demand):
// emit streams the new tree nodes into the batch file, then the
// manifest commits the checkpoint atomically. A checkpoint that already
// exists at meta.Seq is left untouched. The NewNodes/NodesBytes fields
// of meta are filled in by the write.
func WriteCheckpoint(dir string, meta *CheckpointMeta, emit func(put func(h ledger.Hash, data []byte) error) (int, error)) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	metaPath := checkpointMetaPath(dir, meta.Seq)
	if _, err := os.Stat(metaPath); err == nil {
		return nil // already checkpointed (idempotent resume-and-continue)
	}
	nodesPath := checkpointNodesPath(dir, meta.Seq)
	// A nodes file without a manifest is debris from an interrupted
	// write; replace it.
	_ = os.Remove(nodesPath)
	fw, err := nodestore.CreateFile(nodesPath)
	if err != nil {
		return err
	}
	n, err := emit(fw.Put)
	if err != nil {
		fw.Close()
		return err
	}
	meta.NewNodes = n
	meta.NodesBytes = fw.Bytes()
	if err := fw.Close(); err != nil {
		return err
	}

	blob, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return err
	}
	return commitFile(metaPath, func(tmp string) error {
		f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
		if err != nil {
			return err
		}
		_, err = f.Write(append(blob, '\n'))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	})
}

// commitFile makes path appear whole and durably, or not at all: write
// creates, fills and syncs path+".tmp" (a stale one, left by a commit
// that was interrupted, is removed first), which is then renamed over
// path, and the directory is synced so that the rename survives a crash.
func commitFile(path string, write func(tmp string) error) error {
	tmp := path + ".tmp"
	_ = os.Remove(tmp)
	if err := write(tmp); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

func checkpointBasePath(dir string, seq uint64) string {
	return filepath.Join(dir, checkpointBase(seq)+".base")
}

// WriteCheckpointBase commits the base of the checkpoint at seq: emit
// streams every node of that checkpoint's tree into one batch, committed
// by commitFile. Once it is durable, the bases of older checkpoints are
// deleted, and so are the tmp files interrupted writes of them left. A
// newer base stays: a build that stops short of it has not superseded it.
func WriteCheckpointBase(dir string, seq uint64, emit func(put func(h ledger.Hash, data []byte) error) (int, error)) error {
	path := checkpointBasePath(dir, seq)
	err := commitFile(path, func(tmp string) error {
		fw, err := nodestore.CreateFile(tmp)
		if err != nil {
			return err
		}
		if _, err := emit(fw.Put); err != nil {
			fw.Close()
			return err
		}
		return fw.Close()
	})
	if err != nil {
		return err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".base") && !strings.HasSuffix(name, ".base.tmp") {
			continue
		}
		var older uint64
		if _, err := fmt.Sscanf(name, "cp-%016d.base", &older); err != nil || older >= seq {
			continue
		}
		if err := os.Remove(filepath.Join(dir, name)); err != nil {
			return err
		}
	}
	return nil
}

// OpenCheckpointBase opens the base of the checkpoint at seq as a store,
// CRC-verifying every record. It fails when there is no such base.
func OpenCheckpointBase(dir string, seq uint64) (*nodestore.FileStore, error) {
	return nodestore.OpenFile(checkpointBasePath(dir, seq))
}

// ListCheckpoints returns the usable checkpoints in dir, sorted by
// sequence. Manifests that are unreadable, or whose nodes batch is
// missing or has the wrong size, are skipped (not errors): a damaged
// checkpoint merely shrinks how far a resume can jump.
func ListCheckpoints(dir string) ([]CheckpointMeta, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var metas []CheckpointMeta
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, "cp-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			continue
		}
		// A manifest carries no checksum, so what no writer produces is
		// damage: a key unknown here (one flipped byte in "state_digest"
		// must not restore a zero digest), bytes after the closing brace.
		var meta CheckpointMeta
		dec := json.NewDecoder(bytes.NewReader(blob))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&meta); err != nil {
			continue
		}
		if _, err := dec.Token(); err != io.EOF {
			continue
		}
		fi, err := os.Stat(checkpointNodesPath(dir, meta.Seq))
		if err != nil || fi.Size() != meta.NodesBytes {
			continue
		}
		metas = append(metas, meta)
	}
	sort.Slice(metas, func(i, j int) bool { return metas[i].Seq < metas[j].Seq })
	return metas, nil
}

// OpenCheckpointNodes opens the node batches of the given checkpoints,
// oldest first, as one content-addressed store. Every batch is
// CRC-verified whole as it is added. At the first damaged batch it stops
// and returns the error together with the store over the batches before
// it, which still holds the full tree of every checkpoint older than the
// damage: records are content-addressed and tree loads verify every
// hash, so a short store can fail a load but never falsify one.
func OpenCheckpointNodes(dir string, metas []CheckpointMeta) (*nodestore.FileStore, error) {
	store := &nodestore.FileStore{}
	for _, m := range metas {
		if err := store.Add(checkpointNodesPath(dir, m.Seq)); err != nil {
			return store, err
		}
	}
	return store, nil
}
