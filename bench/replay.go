package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ripplestudy/internal/core"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/replay"
)

const (
	replayCheckpoints = 16 // checkpoints a cold pass writes across the history
	replayMinCold     = 3
	replayMinResumes  = 10
	replaySnapshot    = 0.7 // Table II snapshot fraction, the paper's
)

// replayCheckpoint is the write chain in batch: rebuild the engine state
// from the store while checkpointing (what ripple-serve -txq does on a
// first start), run the Table II ablation replay from the checkpoint
// sidecar, then time how long a restart takes to be ready again.
type replayCheckpoint struct {
	payments int

	rc   *runCtx
	fix  *fixture
	last uint64
	snap uint64

	wantDigest ledger.Hash    // generator's live engine at the end of history
	want       *replay.Result // sequential replay.Run, no checkpoints
}

func (r *replayCheckpoint) header() string {
	return fmt.Sprintf("digest=%s pages=%d payments=%d events=0 transactions=%d snapshot_seq=%d",
		r.fix.digest, r.fix.npages, r.fix.payments, r.fix.txs, r.snap)
}

func (r *replayCheckpoint) prepare(rc *runCtx) error {
	r.rc = rc
	fix, err := buildFixture(fixtureOpts{payments: r.payments, seed: rc.seed, storeDir: filepath.Join(rc.dir, "store")})
	if err != nil {
		return err
	}
	r.fix = fix
	r.last = fix.lastSeq()
	r.snap = max(uint64(float64(r.last)*replaySnapshot), 1)
	// The generator's own engine applied exactly this history, so its
	// digest is the reference for every rebuild, cold or resumed.
	r.wantDigest = fix.res.Engine.StateDigest()
	if r.want, err = replay.RunOpts(fix.store, r.snap, replay.BuildOptions{DisableResume: true}); err != nil {
		return fmt.Errorf("sequential reference replay: %w", err)
	}
	return nil
}

// every is the checkpoint cadence of a cold pass, in pages: the history
// holds replayCheckpoints and a half periods, so the newest checkpoint
// lies half a period before the end, the average case for a server that
// stops at an arbitrary moment, and a resume replays a tail of the same
// relative length whatever the seed.
func (r *replayCheckpoint) every() uint64 {
	return max(uint64(float64(r.fix.npages)/(replayCheckpoints+0.5)), 1)
}

// cold is one cold pass, credited to the recorder with the number of
// transactions the engine executed in it.
func (r *replayCheckpoint) cold(out *outcome, tr *tracer, pass int, rec *recorder) error {
	runtime.GC()
	dir := r.fix.store.CheckpointDir()
	root := tr.begin("cold_pass", 0, pass)
	rec.begin()
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	var digest ledger.Hash
	err := tr.call("replay.BuildStateOpts", root, pass, func() error {
		eng, err := replay.BuildStateOpts(r.fix.store, r.last, replay.BuildOptions{CheckpointEvery: r.every()})
		if err == nil {
			digest = eng.StateDigest()
		}
		return err
	})
	if err != nil {
		return err
	}
	var res *replay.Result
	err = tr.call("core.TableII", root, pass, func() error {
		ds, err := core.OpenDataset(r.fix.storeDir)
		if err != nil {
			return err
		}
		ds.SetWorkers(r.rc.workers)
		res, err = ds.TableII(replaySnapshot)
		return err
	})
	if err != nil {
		return err
	}
	// The checkpoint the Table II run resumed from is still on disk, so
	// the tail it re-applied can be counted exactly.
	tail, err := r.tailTxs(r.snap)
	if err != nil {
		return err
	}
	rec.end(float64(r.fix.txs + tail + res.Total().Submitted))
	tr.end(root)

	out.attempted++
	switch {
	case digest != r.wantDigest:
		out.failf("cold pass %d: rebuilt digest %s, generator's engine %s", pass, digest, r.wantDigest)
	case res.Cross != r.want.Cross || res.Single != r.want.Single || res.RemovedMarketMakers != r.want.RemovedMarketMakers:
		out.failf("cold pass %d: Table II %+v/%+v, sequential %+v/%+v", pass, res.Cross, res.Single, r.want.Cross, r.want.Single)
	case res.StateDigest != r.want.StateDigest || res.StateRoot != r.want.StateRoot:
		out.failf("cold pass %d: Table II final digest differs from sequential replay.Run", pass)
	}
	return nil
}

// tailTxs counts the transactions a resume to upTo re-applies: those in
// pages after the newest checkpoint at or before upTo.
func (r *replayCheckpoint) tailTxs(upTo uint64) (int, error) {
	from, err := r.resumePoint(upTo)
	if err != nil {
		return 0, err
	}
	n := 0
	for i, seq := range r.fix.pageSeqs {
		if seq > from && seq <= upTo {
			n += int(r.fix.pageTxs[i])
		}
	}
	return n, nil
}

// resumePoint is the sequence of the newest checkpoint at or before upTo
// (0 when there is none).
func (r *replayCheckpoint) resumePoint(upTo uint64) (uint64, error) {
	metas, err := ledgerstore.ListCheckpoints(r.fix.store.CheckpointDir())
	if err != nil {
		return 0, err
	}
	var from uint64
	for _, m := range metas {
		if m.Seq <= upTo {
			from = m.Seq
		}
	}
	return from, nil
}

// resume is the workload's op: a restart with the sidecar present,
// from nothing to an engine at the end of history.
func (r *replayCheckpoint) resume(out *outcome, tr *tracer, pass int) (time.Duration, error) {
	runtime.GC()
	id := tr.begin("replay.BuildStateOpts/resume", 0, pass)
	t0 := time.Now()
	eng, err := replay.BuildStateOpts(r.fix.store, r.last, replay.BuildOptions{})
	d := time.Since(t0)
	tr.end(id)
	if err != nil {
		return 0, err
	}
	out.attempted++
	if got := eng.StateDigest(); got != r.wantDigest {
		out.failf("resume %d: digest %s, cold %s", pass, got, r.wantDigest)
	}
	return d, nil
}

func (r *replayCheckpoint) measure(budget time.Duration, tr *tracer) *outcome {
	out := &outcome{layer: map[string]float64{}}
	rec := newRecorder(r.rc.speed)
	// Every cold pass and every resume is a window of its own.
	colds := 0
	start := time.Now()
	for ; colds < replayMinCold || time.Since(start) < budget*6/10; colds++ {
		if err := r.cold(out, tr, colds, rec); err != nil {
			out.failf("cold pass %d: %v", colds, err)
			return out
		}
		rec.closeWindow()
	}
	from, err := r.resumePoint(r.last)
	if err != nil || from == 0 {
		out.failf("no checkpoint to resume from (err %v)", err)
		return out
	}
	resumes := 0
	for ; resumes < replayMinResumes || time.Since(start) < budget; resumes++ {
		d, err := r.resume(out, tr, resumes)
		if err != nil {
			out.failf("resume %d: %v", resumes, err)
			return out
		}
		rec.op(d)
		rec.closeWindow()
	}
	rec.finish(out)
	tailPages := 0
	for _, seq := range r.fix.pageSeqs {
		if seq > from {
			tailPages++
		}
	}
	out.infof("timed: %d cold passes (checkpoint every %d pages); op = resume to ready, %d samples, each replaying a tail of %d pages",
		colds, r.every(), resumes, tailPages)
	out.layer["replay.resume_tail_pages"] = float64(tailPages)
	return out
}

func (r *replayCheckpoint) close() {
	if r.fix != nil {
		r.fix.close()
	}
}
