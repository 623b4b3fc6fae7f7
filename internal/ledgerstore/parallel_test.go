package ledgerstore

import (
	"context"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ripplestudy/internal/ledger"
)

// The tests below hold forEachSegmentParallel to its contract through
// PayloadsParallel, the walker that hands it out most directly.

// payloadSeq reads a record's page sequence from its header.
func payloadSeq(t *testing.T, payload []byte) uint64 {
	h, _, err := ledger.DecodeHeader(payload)
	if err != nil {
		t.Error(err)
	}
	return h.Sequence
}

// parallelSeqs runs PayloadsParallel and collects the observed page
// sequences.
func parallelSeqs(t *testing.T, s *Store, workers int) []uint64 {
	t.Helper()
	var mu sync.Mutex
	var seqs []uint64
	err := s.PayloadsParallel(context.Background(), workers, func(w int, payload []byte) error {
		mu.Lock()
		seqs = append(seqs, payloadSeq(t, payload))
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

func TestPagesParallelMatchesSequential(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: one page per segment, so every worker gets work.
	want := writeStore(t, dir, 23, 2, WithSegmentBytes(1))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 1, 2, 4, 16, 100} {
		seqs := parallelSeqs(t, s, workers)
		if len(seqs) != len(want) {
			t.Fatalf("workers=%d: saw %d pages, want %d", workers, len(seqs), len(want))
		}
		sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
		for i, seq := range seqs {
			if seq != uint64(i+1) {
				t.Fatalf("workers=%d: page multiset broken: %v", workers, seqs)
			}
		}
	}
}

func TestPagesParallelPreservesSegmentOrder(t *testing.T) {
	dir := t.TempDir()
	// Multiple pages per segment: within a segment order must hold.
	writeStore(t, dir, 40, 1, WithSegmentBytes(2048))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := segmentFiles(s.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 2 {
		t.Fatalf("need multiple segments, got %d", len(segs))
	}
	// With one worker the scan degenerates to the sequential segment
	// walk, so the global page order must match Pages exactly.
	var sequential []uint64
	if err := s.Pages(func(p *ledger.Page) error {
		sequential = append(sequential, p.Header.Sequence)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	err = s.PayloadsParallel(context.Background(), 1, func(w int, payload []byte) error {
		got = append(got, payloadSeq(t, payload))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sequential) {
		t.Fatalf("read %d pages, want %d", len(got), len(sequential))
	}
	for i := range got {
		if got[i] != sequential[i] {
			t.Fatalf("order diverged at %d: %d != %d", i, got[i], sequential[i])
		}
	}

	// Multi-worker: each worker's intra-segment runs still ascend; a
	// worker never revisits a sequence.
	perWorker := make([][]uint64, 4)
	var mu sync.Mutex
	err = s.PayloadsParallel(context.Background(), 4, func(w int, payload []byte) error {
		mu.Lock()
		perWorker[w] = append(perWorker[w], payloadSeq(t, payload))
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for w, seqs := range perWorker {
		seen := make(map[uint64]bool, len(seqs))
		for _, seq := range seqs {
			if seen[seq] {
				t.Fatalf("worker %d saw duplicate seq %d", w, seq)
			}
			seen[seq] = true
		}
	}
}

func TestPagesParallelPropagatesError(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 12, 1, WithSegmentBytes(1))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	var calls atomic.Int64
	err = s.PayloadsParallel(context.Background(), 3, func(w int, payload []byte) error {
		if calls.Add(1) == 4 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestPagesParallelHonorsContext(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 12, 1, WithSegmentBytes(1))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	var calls atomic.Int64
	err = s.PayloadsParallel(ctx, 2, func(w int, payload []byte) error {
		if calls.Add(1) == 2 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestPagesParallelDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 8, 2, WithSegmentBytes(1))
	segs, err := segmentFiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(segs[3])
	if err != nil {
		t.Fatal(err)
	}
	data[10] ^= 0xff
	if err := os.WriteFile(segs[3], data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	err = s.PayloadsParallel(context.Background(), 4, func(int, []byte) error { return nil })
	if !errors.Is(err, ErrCorrupted) {
		t.Fatalf("err = %v, want ErrCorrupted", err)
	}
}

func TestPagesParallelWorkerIndexBounds(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 6, 1, WithSegmentBytes(1))
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 3
	var bad atomic.Int64
	err = s.PayloadsParallel(context.Background(), workers, func(w int, payload []byte) error {
		if w < 0 || w >= workers {
			bad.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad.Load() != 0 {
		t.Error("worker index out of [0, workers)")
	}
}
