package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the A/A check reads: the
// bound of every end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the three cut points of vs exactly as Python's
// statistics.quantiles(vs, n=4) does (the exclusive method), because
// that is how the benchmark's acceptance check measures spread.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vs...)
	sort.Float64s(x)
	if len(x) < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := len(x) + 1
		j := min(max(i*m/4, 1), len(x)-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// aaCell is one metric of one workload in one set of runs.
type aaCell struct {
	q1, med, q3 float64
}

func (c aaCell) spread() float64 { return (c.q3 - c.q1) / c.med }

// worseBy is how much worse b's median is than a's, as a share of a's;
// negative when b is better.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// runChild runs one untraced measurement in a child process and returns
// its end-to-end metrics.
func runChild(self, workload string, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(outBytes), []byte("\n"))
	var res resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", workload, seed, err)
	}
	if !res.Correct || res.Failed > 0 {
		return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", workload, seed, res.Failed, res.Attempted)
	}
	vals := map[string]float64{}
	for name, m := range res.Metrics {
		vals[name] = m.Value
	}
	return vals, nil
}

// runAA is the A/A check: two interleaved sets of n runs of this same
// binary per workload, every run on its own seed, and for every cell the
// median, the quartiles, the inter-quartile spread as a share of the
// median, and whether the second set's median is worse than the first's
// by more than the cell's bound. It prints Markdown (bench/NOISE.md is
// this output) and returns a non-zero exit code when a cell disagrees.
func runAA(n, seconds int, only string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitHarness
	}
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: the A/A check reads its bounds from BENCHMARK.json in the working directory:", err)
		return exitHarness
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "bench: BENCHMARK.json:", err)
		return exitHarness
	}
	names := workloadNames()
	if only != "" {
		if workloads[only] == nil {
			fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", names)
			return exitHarness
		}
		names = []string{only}
	}

	// runs[workload][set][metric] = the n values.
	runs := map[string][2]map[string][]float64{}
	for _, w := range names {
		runs[w] = [2]map[string][]float64{{}, {}}
	}
	for i := 0; i < n; i++ {
		for _, w := range names {
			for set := 0; set < 2; set++ {
				seed := int64(1 + set*n + i)
				vals, err := runChild(self, w, seed, seconds)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return exitHarness
				}
				for name, v := range vals {
					runs[w][set][name] = append(runs[w][set][name], v)
				}
				fmt.Fprintf(os.Stderr, "aa: %s set %c run %d/%d done\n", w, 'A'+set, i+1, n)
			}
		}
	}

	fmt.Printf("# A/A check: two interleaved sets of %d runs of one binary, %d s each\n\n", n, seconds)
	fmt.Printf("Set A uses seeds 1–%d, set B seeds %d–%d. Spread is (Q3 − Q1) / median with\nthe quartiles of Python's `statistics.quantiles(values, n=4)`; `B worse` is how\nmuch worse B's median is than A's. A cell agrees when both spreads (except\n`setup_s`, whose spread is not gated) and `B worse` are within the bound.\n\n", n, n+1, 2*n)
	disagree := 0
	for _, w := range names {
		fmt.Printf("## %s\n\n| metric | A median | A Q1–Q3 | A spread | B median | B Q1–Q3 | B spread | B worse | bound | agrees |\n|---|---|---|---|---|---|---|---|---|---|\n", w)
		for _, m := range bf.EndToEnd {
			var c [2]aaCell
			for set := 0; set < 2; set++ {
				c[set].q1, c[set].med, c[set].q3 = quartiles(runs[w][set][m.Name])
			}
			worse := worseBy(c[0].med, c[1].med, m.Better)
			ok := worse <= m.Bound
			if m.Name != "setup_s" {
				ok = ok && c[0].spread() <= m.Bound && c[1].spread() <= m.Bound
			}
			verdict := "yes"
			if !ok {
				verdict = "**no**"
				disagree++
			}
			fmt.Printf("| `%s` | %.5g | %.5g–%.5g | %.1f %% | %.5g | %.5g–%.5g | %.1f %% | %+.1f %% | %.0f %% | %s |\n",
				m.Name, c[0].med, c[0].q1, c[0].q3, 100*c[0].spread(), c[1].med, c[1].q1, c[1].q3, 100*c[1].spread(), 100*worse, 100*m.Bound, verdict)
		}
		fmt.Println()
	}
	fmt.Printf("%d of %d cells disagree.\n", disagree, len(names)*len(bf.EndToEnd))
	// Raw values, so the table can be recomputed.
	fmt.Printf("\n## Raw values\n\n")
	for _, w := range names {
		for set := 0; set < 2; set++ {
			for _, m := range bf.EndToEnd {
				strs := make([]string, 0, n)
				for _, v := range runs[w][set][m.Name] {
					strs = append(strs, strconv.FormatFloat(v, 'g', 6, 64))
				}
				fmt.Printf("- %s %c `%s`: %s\n", w, 'A'+set, m.Name, strings.Join(strs, " "))
			}
		}
	}
	if disagree > 0 {
		return exitOracle
	}
	return exitOK
}
