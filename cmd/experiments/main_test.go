package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ripplestudy/internal/core"
	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
	"ripplestudy/internal/synth"
)

// capture runs run(o) with stdout redirected through a pipe and returns
// what it printed.
func capture(t *testing.T, o options) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan string)
	go func() {
		var b bytes.Buffer
		io.Copy(&b, r)
		done <- b.String()
	}()
	stdout := os.Stdout
	os.Stdout = w
	runErr := run(o)
	os.Stdout = stdout
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

// storeOptions writes a small generated history to a fresh store and
// returns options that reuse it.
func storeOptions(t *testing.T) options {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "history")
	if _, err := core.BuildDataset(core.Config{Payments: 1500, Seed: 3, StoreDir: dir}); err != nil {
		t.Fatal(err)
	}
	return options{payments: 50_000, seed: 7, storeDir: dir, workers: 1, top: 50, samples: 200}
}

// TestRunSections: each -only value prints its own section and no
// other, and a reused store never claims to have been built. Figure 2
// runs at a reduced -rounds and never opens the store.
func TestRunSections(t *testing.T) {
	o := storeOptions(t)
	o.rounds = 100
	headers := map[string]string{
		"fig2":       "=== Figure 2: validator pages",
		"integrity":  "store integrity ok: ",
		"fig3":       "=== Figure 3: information gain",
		"importance": "Feature importance (full-resolution IG ",
		"cluster":    "Activation clustering: ",
		"attack":     "Attack demo at <Am;Tsc;C;D> over 200 sampled observations:",
	}
	extra := map[string][]string{
		"fig2": {"summary: ", "churn: ", " recurring active contributors (≥5 % of busiest) in all three periods, of ",
			" validators observed (paper: 9 of 70)"},
		// The sidecar is absent until the first run builds it.
		"integrity":  {"note: seqindex sidecar absent; built fresh"},
		"fig3":       {" unique of "},
		"importance": {"  feature             alone      dropped     marginal"},
		"cluster":    {"(de-anonymizing any member exposes the whole cluster's history)"},
		"attack":     {"all unique identifications correct: true"},
	}
	for _, only := range []string{"fig2", "integrity", "fig3", "importance", "cluster", "attack"} {
		o.only = only
		out, err := capture(t, o)
		if err != nil {
			t.Fatalf("-only %s: %v", only, err)
		}
		wants := append([]string{headers[only]}, extra[only]...)
		if only != "fig2" {
			wants = append(wants, "(reusing existing store ")
		} else if strings.Contains(out, "history: ") {
			t.Errorf("-only fig2 read the history:\n%s", out)
		}
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Errorf("-only %s: output lacks %q:\n%s", only, want, out)
			}
		}
		for other, header := range headers {
			if other != only && strings.Contains(out, header) {
				t.Errorf("-only %s: output has %s's section %q", only, other, header)
			}
		}
		if strings.Contains(out, "Building synthetic history") {
			t.Errorf("-only %s: reused store printed the build header:\n%s", only, out)
		}
	}
}

// TestRunTopK: -top K lists K Figure 7 rows.
func TestRunTopK(t *testing.T) {
	o := storeOptions(t)
	o.only, o.top = "fig7", 5
	out, err := capture(t, o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "=== Figure 7: the 5 most frequent intermediaries ===") {
		t.Errorf("Figure 7 header does not name K:\n%s", out)
	}
	_, table, ok := strings.Cut(out, "\naccount ")
	if !ok {
		t.Fatalf("no Figure 7 table:\n%s", out)
	}
	rows := strings.Split(strings.TrimSpace(table), "\n")[1:] // drop the header's tail
	if len(rows) != o.top {
		t.Errorf("Figure 7 listed %d rows, want %d:\n%s", len(rows), o.top, table)
	}
}

// TestRunIntegrityBrokenChain: a store with a broken parent-hash link
// gets the WARNING and is never reported as intact.
func TestRunIntegrityBrokenChain(t *testing.T) {
	var pages []*ledger.Page
	_, err := synth.Generate(synth.Config{Payments: 600, Seed: 3, SkipSignatures: true}, func(p *ledger.Page) error {
		pages = append(pages, p)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	broken := pages[len(pages)/2]
	broken.Header.ParentHash = ledger.Hash{0xba, 0xd0}
	dir := filepath.Join(t.TempDir(), "history")
	store, err := ledgerstore.Create(dir)
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

	out, err := capture(t, options{storeDir: dir, only: "integrity", top: 50, samples: 1})
	if err != nil {
		t.Fatal(err)
	}
	warning := fmt.Sprintf("WARNING: store integrity: chainOK=false (broken at %d), 0 corrupt pages", broken.Header.Sequence)
	if !strings.Contains(out, warning) {
		t.Errorf("output lacks %q:\n%s", warning, out)
	}
	if strings.Contains(out, "integrity ok") {
		t.Errorf("broken chain reported as intact:\n%s", out)
	}
}

// TestRunUsageErrors: flag combinations that cannot run are usage
// errors, not NaN output.
func TestRunUsageErrors(t *testing.T) {
	for _, o := range []options{
		{only: "attack", samples: 0, top: 50},
		{only: "integrity", samples: 1, top: 50},
	} {
		out, err := capture(t, o)
		if !errors.Is(err, errUsage) {
			t.Errorf("%+v: err = %v, want a usage error", o, err)
		}
		if out != "" {
			t.Errorf("%+v: printed %q before refusing", o, out)
		}
	}
}
