package main

import (
	"reflect"
	"testing"

	"ripplestudy/internal/serve"
	"ripplestudy/internal/txq"
)

// TestFlagDefaultsAreLibraryDefaults: with no flags, every serve, txq
// and backfill knob is left at its zero value, so the library's own
// default applies and the binary runs the configuration the tests and
// the benchmark measure.
func TestFlagDefaultsAreLibraryDefaults(t *testing.T) {
	c := parseFlags(nil)
	if !reflect.DeepEqual(c.serve, serve.Options{}) {
		t.Errorf("serve options = %+v, want the zero serve.Options", c.serve)
	}
	if c.txq != (txq.Options{}) {
		t.Errorf("txq options = %+v, want the zero txq.Options", c.txq)
	}
	if c.workers != 0 {
		t.Errorf("-workers = %d, want 0 (GOMAXPROCS)", c.workers)
	}
}

// TestFlagsReachOptions: each tuning flag lands in its option field.
func TestFlagsReachOptions(t *testing.T) {
	c := parseFlags([]string{"-queue", "7", "-batch", "9", "-max-inflight", "3", "-workers", "2",
		"-txq-depth", "11", "-txq-batch", "13", "-txq-cache", "17", "-txq-backpressure"})
	wantServe := serve.Options{QueueSize: 7, PublishBatch: 9, MaxConcurrent: 3}
	if !reflect.DeepEqual(c.serve, wantServe) {
		t.Errorf("serve options = %+v, want %+v", c.serve, wantServe)
	}
	wantTxq := txq.Options{QueueDepth: 11, BatchSize: 13, CacheSize: 17, Backpressure: true}
	if c.txq != wantTxq {
		t.Errorf("txq options = %+v, want %+v", c.txq, wantTxq)
	}
	if c.workers != 2 {
		t.Errorf("-workers = %d, want 2", c.workers)
	}
}
