// Command bench is the repository's end-to-end benchmark: four workloads
// driven through the public functions of the internal packages, six
// end-to-end metrics per workload, an oracle check on every result, and a
// traced mode that fills the per-layer probe table. See README.md in this
// directory for every definition; BENCHMARK.json at the repository root
// is the contract the numbers are judged by.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"ripplestudy/internal/serve"
)

// setupRepeats is how many times a run sets its workload up from
// nothing. setup_s is the median of the repeats, so one slow fixture
// write does not read as a set-up regression; the last one is measured.
const setupRepeats = 3

// outDir receives trace files and the per-run scratch directories.
var outDir = filepath.Join("bench", "out")

// The benchmark runs on one scheduler thread and configures every layer
// with the fan-out of a two-core deployment. The machines it runs on
// present two virtual CPUs that share the throughput of one: with
// GOMAXPROCS 2 the host decides which goroutine advances, and identical
// code measured a fifth apart from one process to the next. On one
// thread the sharded pipelines, barriers and planners all still run, as
// goroutines the Go scheduler interleaves, and two runs agree.
const (
	benchProcs   = 1
	benchWorkers = 2
)

// runCtx is what a workload needs to know about the run.
type runCtx struct {
	seed    int64
	workers int    // fan-out handed to every layer that takes one
	dir     string // private scratch directory, removed at exit
	speed   *speedometer
}

// serveOptions is the view-server configuration of every workload: the
// defaults, with the fan-out GOMAXPROCS would have given on two cores.
func (rc *runCtx) serveOptions() serve.Options {
	return serve.Options{PipelineWorkers: rc.workers, FingerprintShards: rc.workers}
}

// workload is one named scenario. prepare builds the fixture, the oracle
// reference and runs the warm-up passes (all of it is setup_s); measure
// runs the timed section for about budget and may be called more than
// once on the same prepared state (the traced run measures once without
// and once with the tracer).
type workload interface {
	prepare(rc *runCtx) error
	measure(budget time.Duration, tr *tracer) *outcome
	// header is the fixture line of the environment block.
	header() string
	close()
}

// Fixture sizes are chosen so that one set-up takes one to three
// seconds on a two-core machine: small enough to repeat, large enough
// that a timed pass is tens of milliseconds of the layers' own work.
var workloads = map[string]func() workload{
	"backfill_scan":     func() workload { return &backfillScan{payments: 60_000} },
	"live_follow":       func() workload { return &liveFollow{pages: 4800, payments: 9000} },
	"replay_checkpoint": func() workload { return &replayCheckpoint{payments: 30_000} },
	"submit_mixed":      func() workload { return &submitMixed{payments: 30_000, rate: 8000} },
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricValue is one entry of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// metricDef names one metric of BENCHMARK.json.
type metricDef struct{ name, unit, better string }

// endToEnd fixes the five gated metric names; their bounds live in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"op_p50_ms", "ms", "lower"},
	{"cpu_us_per_work", "us", "lower"},
	{"peak_rss_mb", "MB", "lower"},
}

// Exit codes.
const (
	exitOK      = 0
	exitOracle  = 1 // an oracle check failed
	exitHarness = 2 // the harness itself could not run
	exitInvalid = 3 // an open-loop generator could not hold its schedule
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
		seed    = flag.Int64("seed", 1, "fixture seed")
		seconds = flag.Int("seconds", 12, "length of the timed section")
		trace   = flag.Int("trace", 0, "1 = traced run: spans, layer probes, per-layer table")
		aa      = flag.Int("aa", 0, "A/A check: two interleaved sets of N runs per workload (all, or the one named by -workload)")
	)
	flag.Parse()
	if *aa > 0 {
		os.Exit(runAA(*aa, *seconds, *name))
	}
	if workloads[*name] == nil {
		fmt.Fprintf(os.Stderr, "bench: -workload must be one of %v\n", workloadNames())
		os.Exit(exitHarness)
	}
	os.Exit(run(*name, *seed, time.Duration(*seconds)*time.Second, *trace != 0))
}

// setUp prepares the workload setupRepeats times, each from nothing in
// its own directory, and returns the last one with the median time, each
// set-up calibrated like every other window by its own slowdown.
func setUp(name string, rc *runCtx) (w workload, setupS float64, note string, err error) {
	base := rc.dir
	var took, raw, slows []float64
	for i := 0; i < setupRepeats; i++ {
		if w != nil {
			w.close()
			os.RemoveAll(rc.dir)
		}
		rc.dir = filepath.Join(base, fmt.Sprint("setup", i))
		w = workloads[name]()
		opened := rc.speed.mark()
		t0 := time.Now()
		if err := w.prepare(rc); err != nil {
			w.close()
			return nil, 0, "", err
		}
		d, slow := time.Since(t0).Seconds(), rc.speed.slowdown(opened)
		took, raw, slows = append(took, d/slow), append(raw, d), append(slows, slow)
	}
	return w, median(took), fmt.Sprintf("set-up: %d times, uncalibrated %.4f s at machine slowdown %.3f", setupRepeats, raw, slows), nil
}

// run executes one workload and prints its report; the return value is
// the process exit code.
func run(name string, seed int64, budget time.Duration, traced bool) int {
	runtime.GOMAXPROCS(benchProcs)
	dir, err := scratchDir(name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitHarness
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{seed: seed, workers: benchWorkers, dir: dir, speed: startSpeedometer()}
	defer rc.speed.close()
	w, setupS, setupNote, err := setUp(name, rc)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: set-up:", err)
		return exitHarness
	}
	defer w.close()

	fmt.Printf("workload=%s seed=%d seconds=%d trace=%v\n", name, seed, int(budget.Seconds()), traced)
	fmt.Printf("env: nproc=%d GOMAXPROCS=%d workers=%d %s %s/%s\n", runtime.NumCPU(), benchProcs, benchWorkers, runtime.Version(), runtime.GOOS, runtime.GOARCH)
	fmt.Printf("fixture: %s\n", w.header())
	fmt.Println(setupNote)

	var out *outcome
	metrics := map[string]metricValue{}
	if !traced {
		out = w.measure(budget, nil)
		metrics["setup_s"] = metricValue{setupS, "s"}
		metrics["work_per_s"] = metricValue{out.workPerS, "1/s"}
		metrics["op_p50_ms"] = metricValue{out.op.p50, "ms"}
		metrics["cpu_us_per_work"] = metricValue{out.cpuUSPerWork, "us"}
	} else {
		// Half the budget untraced, half traced, on the same prepared
		// state: the difference is what the tracer costs.
		plain := w.measure(budget/2, nil)
		tr := newTracer()
		out = w.measure(budget/2, tr)
		out.merge(plain)
		tracePath := filepath.Join(outDir, name+".trace.json")
		if err := writeTrace(tracePath, name, tr.spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write trace:", err)
			return exitHarness
		}
		fmt.Printf("trace: %d spans → %s\n", len(tr.spans), tracePath)
		rc.dir = filepath.Join(dir, "probes")
		layer, err := runProbes(rc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench: probes:", err)
			return exitHarness
		}
		// What the workload itself measured replaces the probe's
		// small-fixture figure of the same name.
		for k, v := range out.layer {
			layer[k] = v
		}
		layer["harness.unattributed_share"] = unattributedShare(tr.spans)
		layer["harness.trace_overhead_share"] = 1 - out.workPerS/plain.workPerS
		for _, m := range perLayer {
			v, ok := layer[m.name]
			if !ok {
				fmt.Fprintf(os.Stderr, "bench: per-layer metric %s has no value\n", m.name)
				return exitHarness
			}
			metrics[m.name] = metricValue{v, m.unit}
		}
	}
	for _, line := range out.info {
		fmt.Println(line)
	}
	fmt.Printf("op samples=%d (p90 is sample %d of %d; highest percentile with ten samples beyond it: p%g) p90=%.4f ms p99=%.4f ms\n",
		out.op.n, rankOf(90, out.op.n), out.op.n, tailPercentile(out.op.n), out.op.p90, out.op.p99)
	for _, f := range out.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("failed/attempted: %d/%d\n", out.failed, out.attempted)
	if out.invalid != "" {
		fmt.Printf("INVALID RUN, nothing reported: %s\n", out.invalid)
		return exitCode(out)
	}
	// Peak RSS is read last, so the oracle checks are inside it.
	if !traced {
		metrics["peak_rss_mb"] = metricValue{peakRSSMB(), "MB"}
	}
	printTable(metrics, traced)
	line, err := json.Marshal(resultLine{Correct: out.failed == 0, Attempted: max(out.attempted, 1), Failed: out.failed, Metrics: metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return exitHarness
	}
	fmt.Println(string(line))
	return exitCode(out)
}

// exitCode is the process exit code an outcome earns.
func exitCode(out *outcome) int {
	switch {
	case out.invalid != "":
		return exitInvalid
	case out.failed > 0:
		return exitOracle
	}
	return exitOK
}

func printTable(metrics map[string]metricValue, traced bool) {
	if !traced {
		for _, m := range endToEnd {
			fmt.Printf("  %-18s %14.4f %s\n", m.name, metrics[m.name].Value, m.unit)
		}
		return
	}
	for _, m := range perLayer {
		fmt.Printf("  %-40s %16.4f %s\n", m.name, metrics[m.name].Value, m.unit)
	}
}
