package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: ripplestudy
cpu: Test CPU
BenchmarkFigure3/parallel-8  92  12812383 ns/op  1523 B/op  4 allocs/op  936578 payments/s
BenchmarkStoreScan-8  10  98765432 ns/op
PASS
ok  	ripplestudy	2.071s
`

func parseString(t *testing.T, s string) *Output {
	t.Helper()
	out, err := parse(bufio.NewScanner(strings.NewReader(s)))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestParseBenchOutput(t *testing.T) {
	out := parseString(t, sampleOutput)
	if len(out.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(out.Benchmarks))
	}
	e := out.Benchmarks[0]
	if e.Name != "BenchmarkFigure3/parallel-8" || e.Iterations != 92 {
		t.Fatalf("entry 0 = %+v", e)
	}
	want := map[string]float64{
		"ns/op": 12812383, "B/op": 1523, "allocs/op": 4, "payments/s": 936578,
	}
	if !reflect.DeepEqual(e.Metrics, want) {
		t.Fatalf("metrics = %v, want %v", e.Metrics, want)
	}
	if out.Context["cpu"] != "Test CPU" {
		t.Fatalf("context = %v", out.Context)
	}
	if _, ok := out.Context["pkg"]; ok || e.Pkg != "ripplestudy" || out.Benchmarks[1].Pkg != "ripplestudy" {
		t.Fatalf("pkg must be recorded per entry, not in the context: %v / %+v", out.Context, out.Benchmarks)
	}
}

func TestParseRejectsEmptyInput(t *testing.T) {
	if _, err := parse(bufio.NewScanner(strings.NewReader("PASS\nok x 1s\n"))); err == nil {
		t.Fatal("no error for input without benchmark lines")
	}
}

func TestParseSkipsMalformedLines(t *testing.T) {
	out := parseString(t, "BenchmarkBad notanumber 5 ns/op\nBenchmarkGood-4 7 100 ns/op\n")
	if len(out.Benchmarks) != 1 || out.Benchmarks[0].Name != "BenchmarkGood-4" {
		t.Fatalf("benchmarks = %+v", out.Benchmarks)
	}
}

// TestJSONSchemaRoundTrip pins the archived document shape: encode,
// decode, and compare — CI consumers rely on these field names.
func TestJSONSchemaRoundTrip(t *testing.T) {
	out := parseString(t, sampleOutput)
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"context"`, `"benchmarks"`, `"name"`, `"iterations"`, `"metrics"`, `"ns/op"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("encoded document missing %s: %s", key, data)
		}
	}
	var back Output
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&back, out) {
		t.Fatalf("round trip changed the document:\n%+v\n%+v", &back, out)
	}
}

// TestOutFileMergesExisting covers the -out path: a second run into the
// same file replaces re-measured entries, keeps absent ones, and
// appends new ones.
func TestOutFileMergesExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")

	if err := run(strings.NewReader(sampleOutput), nil, path); err != nil {
		t.Fatal(err)
	}

	second := `goos: linux
cpu: Other CPU
BenchmarkStoreScan-8  20  555 ns/op
BenchmarkServeLookup-8  1000  42 ns/op
`
	if err := run(strings.NewReader(second), nil, path); err != nil {
		t.Fatal(err)
	}

	merged, err := readExisting(path)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(merged.Benchmarks))
	for i, e := range merged.Benchmarks {
		names[i] = e.Name
	}
	want := []string{"BenchmarkFigure3/parallel-8", "BenchmarkStoreScan-8", "BenchmarkServeLookup-8"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("merged names = %v, want %v", names, want)
	}
	if merged.Benchmarks[1].Metrics["ns/op"] != 555 {
		t.Fatalf("re-measured entry not replaced: %+v", merged.Benchmarks[1])
	}
	if merged.Benchmarks[0].Iterations != 92 {
		t.Fatalf("absent entry not kept: %+v", merged.Benchmarks[0])
	}
	if merged.Context["cpu"] != "Other CPU" {
		t.Fatalf("context merge wrong: %v", merged.Context)
	}
}

// TestMergeRecordsPkgPerEntry: an archive fed from two packages keeps
// each entry's own package; the second pass must not relabel the first
// (it used to overwrite one document-wide context.pkg).
func TestMergeRecordsPkgPerEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	first := "pkg: ripplestudy\nBenchmarkTable2Replay/sequential-8  5  300 ns/op\n"
	second := "pkg: ripplestudy/internal/shamap\nBenchmarkShamapSeal-8  9  70 ns/op\n"
	for _, in := range []string{first, second} {
		if err := run(strings.NewReader(in), nil, path); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := readExisting(path)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range merged.Benchmarks {
		got[e.Name] = e.Pkg
	}
	want := map[string]string{
		"BenchmarkTable2Replay/sequential-8": "ripplestudy",
		"BenchmarkShamapSeal-8":              "ripplestudy/internal/shamap",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("entry packages = %v, want %v", got, want)
	}
	if pkg, ok := merged.Context["pkg"]; ok {
		t.Fatalf("context still claims one package for the document: %q", pkg)
	}
}

// TestMergeDropsVanishedBenchmarks: re-measuring a package drops its
// archived entries that the fresh run no longer reports (the benchmark
// was deleted), keeps other packages' entries, and reads an archive
// from before entries carried their package through its context.pkg.
func TestMergeDropsVanishedBenchmarks(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	legacy := `{"context": {"pkg": "ripplestudy/internal/ledgerstore"}, "benchmarks": [
		{"name": "BenchmarkPagesParallel/workers=1", "iterations": 1, "metrics": {"ns/op": 1}},
		{"name": "BenchmarkScanPayments/mmap", "iterations": 1, "metrics": {"ns/op": 2}},
		{"name": "BenchmarkShamapSeal", "pkg": "ripplestudy/internal/shamap", "iterations": 1, "metrics": {"ns/op": 3}}]}`
	if err := os.WriteFile(path, []byte(legacy), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh := "pkg: ripplestudy/internal/ledgerstore\nBenchmarkScanPayments/mmap  7  20 ns/op\n"
	if err := run(strings.NewReader(fresh), nil, path); err != nil {
		t.Fatal(err)
	}
	merged, err := readExisting(path)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range merged.Benchmarks {
		names = append(names, e.Name)
	}
	want := []string{"BenchmarkScanPayments/mmap", "BenchmarkShamapSeal"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("merged names = %v, want %v", names, want)
	}
	if merged.Benchmarks[0].Metrics["ns/op"] != 20 {
		t.Fatalf("re-measured entry not replaced: %+v", merged.Benchmarks[0])
	}
}

// TestOutFileRejectsCorruptExisting refuses to silently clobber a file
// that is not a benchmark archive.
func TestOutFileRejectsCorruptExisting(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleOutput), nil, path); err == nil {
		t.Fatal("no error merging into a corrupt archive")
	}
}

// TestStdoutModeUnchanged: without -out the document goes to the given
// writer and no file is touched.
func TestStdoutModeUnchanged(t *testing.T) {
	var buf bytes.Buffer
	if err := run(strings.NewReader(sampleOutput), &buf, ""); err != nil {
		t.Fatal(err)
	}
	var out Output
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("stdout document has %d benchmarks, want 2", len(out.Benchmarks))
	}
}

// checkString runs -check against a baseline built from baselineOut.
func checkString(t *testing.T, baselineOut, freshOut string, tolerance float64) (string, error) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader(baselineOut), nil, path); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err := runCheck(strings.NewReader(freshOut), &buf, path, tolerance)
	return buf.String(), err
}

// TestCheckPassesWithinTolerance: a small slowdown and any improvement
// both pass; the report lists every comparison.
func TestCheckPassesWithinTolerance(t *testing.T) {
	baseline := "BenchmarkServeLookup-8  1000  100 ns/op\nBenchmarkServeIngestPage-8  100  5000 ns/op\n"
	fresh := "BenchmarkServeLookup-8  1000  110 ns/op\nBenchmarkServeIngestPage-8  100  3000 ns/op\n"
	report, err := checkString(t, baseline, fresh, 20)
	if err != nil {
		t.Fatalf("check failed within tolerance: %v\n%s", err, report)
	}
	if !strings.Contains(report, "ok: 2 benchmarks within 20%") {
		t.Fatalf("report = %q", report)
	}
}

// TestCheckFailsOnRegression: one benchmark past tolerance fails the
// whole check and is named in the error.
func TestCheckFailsOnRegression(t *testing.T) {
	baseline := "BenchmarkServeLookup-8  1000  100 ns/op\nBenchmarkServeIngestPage-8  100  5000 ns/op\n"
	fresh := "BenchmarkServeLookup-8  1000  121 ns/op\nBenchmarkServeIngestPage-8  100  5000 ns/op\n"
	report, err := checkString(t, baseline, fresh, 20)
	if err == nil {
		t.Fatalf("no error for a 21%% regression\n%s", report)
	}
	if !strings.Contains(err.Error(), "BenchmarkServeLookup") {
		t.Fatalf("error does not name the regressed benchmark: %v", err)
	}
	if !strings.Contains(report, "REGRESSED") {
		t.Fatalf("report = %q", report)
	}
}

// TestCheckMatchesAcrossCoreCounts: the -GOMAXPROCS suffix must not
// defeat the comparison when baseline and fresh run on different
// machines.
func TestCheckMatchesAcrossCoreCounts(t *testing.T) {
	baseline := "BenchmarkServeLookup-8  1000  100 ns/op\n"
	fresh := "BenchmarkServeLookup  1000  90 ns/op\n"
	report, err := checkString(t, baseline, fresh, 20)
	if err != nil {
		t.Fatalf("suffix mismatch broke the comparison: %v\n%s", err, report)
	}
	fresh = "BenchmarkServeLookup-2  1000  90 ns/op\n"
	if report, err = checkString(t, baseline, fresh, 20); err != nil {
		t.Fatalf("suffix mismatch broke the comparison: %v\n%s", err, report)
	}
}

// TestCheckNewBenchmarksNeverFail: a benchmark missing from the
// baseline is reported as skipped, and a run whose entries ALL miss the
// baseline errs (the check would be vacuous).
func TestCheckNewBenchmarksNeverFail(t *testing.T) {
	baseline := "BenchmarkServeLookup-8  1000  100 ns/op\n"
	fresh := "BenchmarkServeLookup-8  1000  100 ns/op\nBenchmarkBrandNew-8  10  999999 ns/op\n"
	report, err := checkString(t, baseline, fresh, 20)
	if err != nil {
		t.Fatalf("new benchmark failed the check: %v", err)
	}
	if !strings.Contains(report, "skip: BenchmarkBrandNew") {
		t.Fatalf("report = %q", report)
	}
	if _, err = checkString(t, baseline, "BenchmarkBrandNew-8  10  1 ns/op\n", 20); err == nil {
		t.Fatal("no error for a run with zero comparable benchmarks")
	}
}

// TestParseRecordsGomaxprocs pins the context key derived from the -N
// name suffix: 8 for an 8-core run, 1 when go test omits the suffix.
func TestParseRecordsGomaxprocs(t *testing.T) {
	if got := parseString(t, sampleOutput).Context["gomaxprocs"]; got != "8" {
		t.Fatalf("gomaxprocs = %q, want 8", got)
	}
	single := parseString(t, "BenchmarkServeIngestThroughput/workers=1  10  100 ns/op\n")
	if got := single.Context["gomaxprocs"]; got != "1" {
		t.Fatalf("gomaxprocs = %q, want 1", got)
	}
}

// TestMergeReplacesAcrossCoreCounts: re-measuring on a machine with a
// different GOMAXPROCS replaces the entry instead of duplicating it.
func TestMergeReplacesAcrossCoreCounts(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := run(strings.NewReader("BenchmarkServeLookup-8  1000  100 ns/op\n"), nil, path); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader("BenchmarkServeLookup-4  1000  90 ns/op\n"), nil, path); err != nil {
		t.Fatal(err)
	}
	merged, err := readExisting(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Benchmarks) != 1 {
		t.Fatalf("merged %d entries, want 1: %+v", len(merged.Benchmarks), merged.Benchmarks)
	}
	if e := merged.Benchmarks[0]; e.Name != "BenchmarkServeLookup-4" || e.Metrics["ns/op"] != 90 {
		t.Fatalf("entry = %+v", e)
	}
}

// TestMergeDropsStaleDedupDuplicates: an archive holding both
// "workers=1" and go test's "workers=1#01" collision entry loses the
// stale duplicate once a fresh run measures "workers=1" alone — but a
// run that still produces both keeps both.
func TestMergeDropsStaleDedupDuplicates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	collided := "BenchmarkServeIngestThroughput/workers=1  10  100 ns/op\n" +
		"BenchmarkServeIngestThroughput/workers=1#01  10  120 ns/op\n"
	if err := run(strings.NewReader(collided), nil, path); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(collided), nil, path); err != nil {
		t.Fatal(err)
	}
	merged, err := readExisting(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Benchmarks) != 2 {
		t.Fatalf("re-measured collision collapsed: %+v", merged.Benchmarks)
	}

	fixed := "BenchmarkServeIngestThroughput/workers=1  10  95 ns/op\n"
	if err := run(strings.NewReader(fixed), nil, path); err != nil {
		t.Fatal(err)
	}
	if merged, err = readExisting(path); err != nil {
		t.Fatal(err)
	}
	if len(merged.Benchmarks) != 1 {
		t.Fatalf("stale #01 duplicate survived the deduplicated run: %+v", merged.Benchmarks)
	}
	if e := merged.Benchmarks[0]; e.Name != "BenchmarkServeIngestThroughput/workers=1" || e.Metrics["ns/op"] != 95 {
		t.Fatalf("entry = %+v", e)
	}
}

// TestCheckSkipsOversubscribedWorkers: a workers=N sweep entry with N
// beyond the fresh run's GOMAXPROCS must not gate — an oversubscribed
// pipeline measures scheduler churn — while in-budget fan-outs still
// compare.
func TestCheckSkipsOversubscribedWorkers(t *testing.T) {
	baseline := "BenchmarkServeIngestThroughput/workers=1-8  10  100 ns/op\n" +
		"BenchmarkServeIngestThroughput/workers=4-8  10  30 ns/op\n"
	// Fresh run on a single-core machine: no -N suffix, workers=4 badly
	// oversubscribed. Only workers=1 may gate.
	fresh := "BenchmarkServeIngestThroughput/workers=1  10  105 ns/op\n" +
		"BenchmarkServeIngestThroughput/workers=4  10  500 ns/op\n"
	report, err := checkString(t, baseline, fresh, 20)
	if err != nil {
		t.Fatalf("oversubscribed sweep entry failed the check: %v\n%s", err, report)
	}
	if !strings.Contains(report, "skip: BenchmarkServeIngestThroughput/workers=4 (oversubscribed") {
		t.Fatalf("report = %q", report)
	}
	if !strings.Contains(report, "ok: 1 benchmarks within 20%") {
		t.Fatalf("report = %q", report)
	}

	// On a machine with the cores to back it, workers=4 gates again.
	fresh = "BenchmarkServeIngestThroughput/workers=1-4  10  105 ns/op\n" +
		"BenchmarkServeIngestThroughput/workers=4-4  10  32 ns/op\n"
	if report, err = checkString(t, baseline, fresh, 20); err != nil {
		t.Fatalf("in-budget sweep failed: %v\n%s", err, report)
	}
	if !strings.Contains(report, "ok: 2 benchmarks within 20%") {
		t.Fatalf("report = %q", report)
	}
}

// TestCheckMissingBaseline errors instead of vacuously passing.
func TestCheckMissingBaseline(t *testing.T) {
	var buf bytes.Buffer
	err := runCheck(strings.NewReader(sampleOutput), &buf, filepath.Join(t.TempDir(), "nope.json"), 20)
	if err == nil {
		t.Fatal("no error for a missing baseline archive")
	}
}
