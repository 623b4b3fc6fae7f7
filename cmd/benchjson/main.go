// Command benchjson converts `go test -bench` text output (read from
// stdin) into a JSON benchmark record, so CI can archive a perf
// trajectory across PRs:
//
//	go test -run '^$' -bench Figure3 -benchmem . | benchjson > BENCH_deanon.json
//
// Each benchmark line becomes an entry keyed by benchmark name with its
// iteration count and every reported metric (ns/op, B/op, allocs/op,
// and custom metrics like payments/s) as a unit→value map.
//
// With -out, the document is written to a file instead of stdout, and
// an existing file is merged rather than clobbered: entries for
// re-measured benchmark names are replaced in place, entries of
// packages not in this run are kept, and new names append — so one
// archive can accumulate results from several `go test -bench` passes,
// one pass per package. Every entry records the package it was measured
// in (the "pkg:" header above it), and an archived entry of a package
// this run re-measured whose name the run no longer reports is dropped:
// the benchmark behind it is gone.
// Merging keys on the name with the trailing -GOMAXPROCS suffix
// stripped (a re-measure on a different core count replaces, not
// duplicates) while go test's #NN same-name dedup suffix is preserved;
// a stale #NN duplicate whose base name was re-measured without it is
// dropped, so a collision from an earlier duplicated sweep entry cannot
// outlive the run that fixed it.
//
// With -check, the run is instead compared against an archived baseline
// and the command fails when any benchmark's ns/op regressed by more
// than -tolerance percent:
//
//	go test -run '^$' -bench Serve -benchmem ./internal/serve | benchjson -check BENCH_serve.json -tolerance 20
//
// Names are matched with the trailing -GOMAXPROCS suffix stripped, so a
// baseline archived on an 8-core runner still gates a 4-core laptop.
// Benchmarks absent from the baseline are reported but never fail the
// check (they gate once archived), and improvements are never failures.
// Sub-benchmarks that sweep pipeline fan-out (".../workers=N") are
// skipped when N exceeds the fresh run's GOMAXPROCS: an oversubscribed
// configuration measures scheduler churn, not a regression. The run's
// GOMAXPROCS is derived from the -N name suffix and archived in the
// context as "gomaxprocs".
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"strconv"
	"strings"
)

// Entry is one benchmark result line.
type Entry struct {
	Name string `json:"name"`
	// Pkg is the import path of the package the benchmark ran in.
	Pkg        string             `json:"pkg,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output is the archived document.
type Output struct {
	// Context lines: the goos/goarch/cpu header go test prints. (The
	// pkg line is per entry: one archive holds several packages.)
	Context    map[string]string `json:"context,omitempty"`
	Benchmarks []Entry           `json:"benchmarks"`
}

func main() {
	outPath := flag.String("out", "", "write (and merge into) this file instead of stdout")
	checkPath := flag.String("check", "", "compare against this baseline archive and fail on regression")
	tolerance := flag.Float64("tolerance", 20, "max allowed ns/op regression in percent for -check")
	flag.Parse()
	var err error
	if *checkPath != "" {
		err = runCheck(os.Stdin, os.Stdout, *checkPath, *tolerance)
	} else {
		err = run(os.Stdin, os.Stdout, *outPath)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// runCheck compares a fresh `go test -bench` run (stdin) against an
// archived baseline and errors if any shared benchmark's ns/op
// regressed by more than tolerance percent.
func runCheck(in io.Reader, out io.Writer, baselinePath string, tolerance float64) error {
	fresh, err := parse(bufio.NewScanner(in))
	if err != nil {
		return err
	}
	base, err := readExisting(baselinePath)
	if err != nil {
		return err
	}
	if base == nil {
		return fmt.Errorf("baseline %s does not exist", baselinePath)
	}
	compared, regressed := compare(base, fresh, tolerance, out)
	if compared == 0 {
		return fmt.Errorf("no benchmark in this run matches a baseline entry in %s", baselinePath)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d of %d benchmarks regressed more than %g%% vs %s: %s",
			len(regressed), compared, tolerance, baselinePath, strings.Join(regressed, ", "))
	}
	fmt.Fprintf(out, "ok: %d benchmarks within %g%% of %s\n", compared, tolerance, baselinePath)
	return nil
}

// baseName strips the trailing -GOMAXPROCS suffix go test appends to
// benchmark names, so archives compare across machines with different
// core counts. go test's #NN same-name dedup suffix is kept: two
// entries that collided in one run are genuinely distinct measurements.
func baseName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// dedupRoot strips go test's trailing #NN duplicate-name suffix from an
// already baseName'd benchmark name.
func dedupRoot(name string) string {
	i := strings.LastIndexByte(name, '#')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

// nameGomaxprocs reads the -GOMAXPROCS suffix off one benchmark name;
// go test only appends it when GOMAXPROCS != 1, so no suffix means 1.
func nameGomaxprocs(name string) int {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return 1
	}
	n, err := strconv.Atoi(name[i+1:])
	if err != nil || n < 1 {
		return 1
	}
	return n
}

// sweepWorkers extracts N from a ".../workers=N" fan-out sweep
// sub-benchmark name (GOMAXPROCS suffix already stripped); ok is false
// for benchmarks that don't sweep worker counts.
func sweepWorkers(name string) (int, bool) {
	i := strings.LastIndex(name, "workers=")
	if i < 0 {
		return 0, false
	}
	digits := name[i+len("workers="):]
	if j := strings.IndexFunc(digits, func(r rune) bool { return r < '0' || r > '9' }); j >= 0 {
		digits = digits[:j]
	}
	n, err := strconv.Atoi(digits)
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// compare writes one report line per fresh benchmark and returns how
// many had a baseline ns/op to compare against plus the names that
// regressed beyond tolerance. Worker-sweep sub-benchmarks whose fan-out
// exceeds the fresh run's GOMAXPROCS are skipped: oversubscribed timing
// is scheduler noise, not a perf signal.
func compare(base, fresh *Output, tolerance float64, w io.Writer) (compared int, regressed []string) {
	maxprocs := 1
	if n, err := strconv.Atoi(fresh.Context["gomaxprocs"]); err == nil && n > maxprocs {
		maxprocs = n
	}
	baseline := make(map[string]Entry, len(base.Benchmarks))
	for _, e := range base.Benchmarks {
		baseline[baseName(e.Name)] = e
	}
	for _, e := range fresh.Benchmarks {
		name := baseName(e.Name)
		if workers, ok := sweepWorkers(name); ok && workers > maxprocs {
			fmt.Fprintf(w, "skip: %s (oversubscribed: %d workers on GOMAXPROCS=%d)\n", name, workers, maxprocs)
			continue
		}
		got, okGot := e.Metrics["ns/op"]
		b, okBase := baseline[name]
		want, okWant := b.Metrics["ns/op"]
		if !okGot || !okBase || !okWant || want <= 0 {
			fmt.Fprintf(w, "skip: %s (no baseline ns/op)\n", name)
			continue
		}
		compared++
		delta := (got - want) / want * 100
		status := "ok"
		if delta > tolerance {
			status = "REGRESSED"
			regressed = append(regressed, name)
		}
		fmt.Fprintf(w, "%s: %s ns/op %.0f vs baseline %.0f (%+.1f%%)\n", status, name, got, want, delta)
	}
	return compared, regressed
}

func run(in io.Reader, stdout io.Writer, outPath string) error {
	out, err := parse(bufio.NewScanner(in))
	if err != nil {
		return err
	}
	if outPath != "" {
		prev, err := readExisting(outPath)
		if err != nil {
			return err
		}
		if prev != nil {
			out = merge(prev, out)
		}
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		stdout = f
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// readExisting loads a previous archive; a missing file is not an
// error (nil, nil), a corrupt one is.
func readExisting(path string) (*Output, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var prev Output
	if err := json.Unmarshal(data, &prev); err != nil {
		return nil, fmt.Errorf("existing %s: %w", path, err)
	}
	// Archives written before entries carried their package recorded one
	// pkg for the whole document.
	if pkg, ok := prev.Context["pkg"]; ok {
		for i := range prev.Benchmarks {
			if prev.Benchmarks[i].Pkg == "" {
				prev.Benchmarks[i].Pkg = pkg
			}
		}
		delete(prev.Context, "pkg")
	}
	return &prev, nil
}

// merge folds fresh results into a previous archive: re-measured names
// are replaced in place (keeping their position), new names append, and
// context keys from the fresh run win. Names are keyed with the
// -GOMAXPROCS suffix stripped, so a re-measure on a different core
// count replaces its entry instead of duplicating it, while the #NN
// dedup suffix stays significant. A previous entry whose dedup root was
// re-measured under a different dedup suffix set (e.g. a stale
// "workers=1#01" after the sweep stopped duplicating "workers=1") is
// dropped rather than kept forever, and so is a previous entry of a
// package the fresh run measured that the fresh run does not name: its
// benchmark no longer exists.
func merge(prev, fresh *Output) *Output {
	merged := &Output{Context: map[string]string{}}
	for k, v := range prev.Context {
		merged.Context[k] = v
	}
	for k, v := range fresh.Context {
		merged.Context[k] = v
	}
	freshKeys := make(map[string]bool, len(fresh.Benchmarks))
	freshRoots := make(map[string]bool, len(fresh.Benchmarks))
	freshPkgs := make(map[string]bool)
	for _, e := range fresh.Benchmarks {
		key := baseName(e.Name)
		freshKeys[key] = true
		freshRoots[dedupRoot(key)] = true
		if e.Pkg != "" {
			freshPkgs[e.Pkg] = true
		}
	}
	index := make(map[string]int)
	for _, e := range prev.Benchmarks {
		key := baseName(e.Name)
		if !freshKeys[key] && (freshRoots[dedupRoot(key)] || freshPkgs[e.Pkg]) {
			continue // stale duplicate, or a benchmark that no longer exists
		}
		index[key] = len(merged.Benchmarks)
		merged.Benchmarks = append(merged.Benchmarks, e)
	}
	for _, e := range fresh.Benchmarks {
		key := baseName(e.Name)
		if i, ok := index[key]; ok {
			merged.Benchmarks[i] = e
		} else {
			index[key] = len(merged.Benchmarks)
			merged.Benchmarks = append(merged.Benchmarks, e)
		}
	}
	return merged
}

func parse(sc *bufio.Scanner) (*Output, error) {
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := &Output{Context: map[string]string{}}
	pkg := "" // the package whose benchmark lines follow
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "Benchmark"):
			e, ok := parseBenchLine(line)
			if ok {
				e.Pkg = pkg
				out.Benchmarks = append(out.Benchmarks, e)
			}
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "goos:"),
			strings.HasPrefix(line, "goarch:"),
			strings.HasPrefix(line, "cpu:"):
			if k, v, ok := strings.Cut(line, ":"); ok {
				out.Context[k] = strings.TrimSpace(v)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines on stdin")
	}
	// The run's GOMAXPROCS, recovered from the -N name suffix (absent
	// when GOMAXPROCS=1), archives which fan-outs this machine could
	// actually exercise.
	maxprocs := 1
	for _, e := range out.Benchmarks {
		if n := nameGomaxprocs(e.Name); n > maxprocs {
			maxprocs = n
		}
	}
	out.Context["gomaxprocs"] = strconv.Itoa(maxprocs)
	return out, nil
}

// parseBenchLine parses one result line:
//
//	BenchmarkFigure3/parallel-8  92  12812383 ns/op  1523 B/op  4 allocs/op  936578 payments/s
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, true
}
