package faultnet

import (
	"bytes"
	"io"
	"net"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// pipeWrite pushes chunks through a wrapped net.Pipe and returns what
// the far end received.
func pipeWrite(t *testing.T, cfg Config, chunks [][]byte) ([]byte, Stats) {
	t.Helper()
	client, server := net.Pipe()
	var tally counters
	wrapped := newConn(server, cfg, cfg.Seed, &tally)
	done := make(chan []byte, 1)
	go func() {
		data, _ := io.ReadAll(client)
		done <- data
	}()
	for _, chunk := range chunks {
		if _, err := wrapped.Write(chunk); err != nil {
			break // injected disconnect
		}
	}
	wrapped.Close()
	return <-done, tally.snapshot()
}

func testChunks(n int) [][]byte {
	chunks := make([][]byte, n)
	for i := range chunks {
		chunk := make([]byte, 64)
		for j := range chunk {
			chunk[j] = byte(i + j)
		}
		chunks[i] = chunk
	}
	return chunks
}

// TestDeterministicInjection: identical seeds inject identical faults.
func TestDeterministicInjection(t *testing.T) {
	cfg := Config{Seed: 7, CorruptRate: 0.2, TruncateRate: 0.1}
	a, sa := pipeWrite(t, cfg, testChunks(200))
	b, sb := pipeWrite(t, cfg, testChunks(200))
	if sa != sb {
		t.Fatalf("stats differ across identical runs:\n%v\n%v", sa, sb)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("received bytes differ across identical runs")
	}
	if sa.Corrupted == 0 || sa.Truncated == 0 {
		t.Errorf("expected injected faults, got %v", sa)
	}
	clean, _ := pipeWrite(t, Config{Seed: 7}, testChunks(200))
	if bytes.Equal(a, clean) {
		t.Error("faulty run delivered the same bytes as the clean run")
	}
	if got := sa.FaultRate(); got < 0.15 || got > 0.45 {
		t.Errorf("fault rate %.2f far from configured 0.30", got)
	}
}

// TestInjectedDisconnect closes the connection mid-write.
func TestInjectedDisconnect(t *testing.T) {
	cfg := Config{Seed: 3, DropRate: 1}
	received, st := pipeWrite(t, cfg, testChunks(5))
	if st.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1 (first write kills the conn)", st.Dropped)
	}
	if len(received) != 32 {
		t.Errorf("far end received %d bytes, want the 32-byte prefix", len(received))
	}
}

// TestListenerWrapsEveryConn: a wrapped listener degrades accepted
// connections deterministically per accept index.
func TestListenerWrapsEveryConn(t *testing.T) {
	raw, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ln := Wrap(raw, Config{Seed: 11, CorruptRate: 1})
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		conn.Write([]byte("hello hello hello hello"))
		conn.Close()
	}()
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	got, _ := io.ReadAll(conn)
	if bytes.Equal(got, []byte("hello hello hello hello")) {
		t.Error("corruption rate 1 delivered pristine bytes")
	}
	if st := ln.Stats(); st.Corrupted == 0 {
		t.Errorf("listener stats = %v, want corrupted writes", st)
	}
}

func TestFileHelpers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "data")
	content := bytes.Repeat([]byte{0xAA}, 1024)
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}

	if err := FlipBitAt(path, 10, 3); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got[10] != 0xAA^(1<<3) {
		t.Errorf("byte 10 = %#x, want %#x", got[10], 0xAA^(1<<3))
	}
	for i, b := range got {
		if i != 10 && b != 0xAA {
			t.Fatalf("byte %d changed unexpectedly", i)
		}
	}

	off1, bit1, err := FlipRandomBit(path, 99)
	if err != nil {
		t.Fatal(err)
	}
	// Undo, then re-apply with the same seed: same position.
	if err := FlipBitAt(path, off1, bit1); err != nil {
		t.Fatal(err)
	}
	off2, bit2, err := FlipRandomBit(path, 99)
	if err != nil {
		t.Fatal(err)
	}
	if off1 != off2 || bit1 != bit2 {
		t.Errorf("seeded corruption not deterministic: (%d,%d) vs (%d,%d)", off1, bit1, off2, bit2)
	}

	if err := TruncateTail(path, 100); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() != 924 {
		t.Errorf("size after TruncateTail = %d, want 924", info.Size())
	}
}
