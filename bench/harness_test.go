package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"ripplestudy/internal/ledger"
	"ripplestudy/internal/ledgerstore"
)

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..10, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); !math.IsNaN(got) {
		t.Errorf("percentile of nothing = %g, want NaN", got)
	}
	if got := median([]float64{9, 1, 5, 3}); got != 3 {
		t.Errorf("median(9 1 5 3) = %g, want the observed sample 3", got)
	}
}

// The reported tail percentile must leave at least ten samples beyond it.
func TestTailPercentileSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{20, 50}, {50, 50}, {100, 90}, {999, 90}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", c.n, got, c.want)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles(1 2 4 8 16) = %g %g %g, want 1.5 4 12", q1, q2, q3)
	}
	if w := worseBy(100, 90, "higher"); w != 0.1 {
		t.Errorf("a throughput falling from 100 to 90 is %g worse, want 0.1", w)
	}
	if w := worseBy(100, 90, "lower"); w != -0.1 {
		t.Errorf("a latency falling from 100 to 90 is %g worse, want -0.1", w)
	}
}

// fakeClock advances only when slept on or told to.
type fakeClock struct {
	now       time.Time
	oversleep time.Duration
}

func (c *fakeClock) Now() time.Time        { return c.now }
func (c *fakeClock) Sleep(d time.Duration) { c.now = c.now.Add(d + c.oversleep) }

func TestPaceHoldsRateAndDueTimes(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	start := c.now
	var dues []time.Time
	total := 0
	late := pace(c, 2500, 10*time.Millisecond, func(due time.Time, n int) {
		dues = append(dues, due)
		total += n
		if n != 2 && n != 3 {
			t.Errorf("2.5 operations per tick released as %d", n)
		}
	})
	if total != 25 {
		t.Errorf("released %d operations in 10 ms at 2500/s, want 25", total)
	}
	for k, due := range dues {
		if want := start.Add(time.Duration(k) * schedTick); !due.Equal(want) {
			t.Errorf("tick %d due %v, want %v", k, due.Sub(start), want.Sub(start))
		}
	}
	for k, l := range late {
		if l != 0 {
			t.Errorf("tick %d late by %v on an exact clock", k, l)
		}
	}
}

// A stall delays later releases but never drops them, and the lateness
// is accounted against the due time, not the time the generator woke.
func TestPaceAccountsLatenessWithoutSkipping(t *testing.T) {
	c := &fakeClock{now: time.Unix(1000, 0)}
	total, tick := 0, 0
	late := pace(c, 1000, 8*time.Millisecond, func(due time.Time, n int) {
		total += n
		if tick == 2 {
			c.now = c.now.Add(3500 * time.Microsecond) // the system under test stalls the generator
		}
		tick++
	})
	if total != 8 {
		t.Fatalf("released %d operations, want all 8 despite the stall", total)
	}
	want := []time.Duration{0, 0, 0, 2500 * time.Microsecond, 1500 * time.Microsecond, 500 * time.Microsecond, 0, 0}
	for k := range want {
		if late[k] != want[k] {
			t.Errorf("tick %d late %v, want %v", k, late[k], want[k])
		}
	}

	// A clock that oversleeps every wait by 5 ms puts the median release
	// more than a tick late: the run must be marked invalid.
	c = &fakeClock{now: time.Unix(1000, 0), oversleep: 5 * time.Millisecond}
	late = pace(c, 1000, 20*time.Millisecond, func(time.Time, int) {})
	out := &outcome{layer: map[string]float64{}}
	out.checkSchedule("test generator", late)
	if out.invalid == "" || exitCode(out) != exitInvalid {
		t.Errorf("median lateness %.3f ms did not invalidate the run", summarise(late).p50)
	}
	if out.layer["harness.sched_late_p99_ms"] < 5 {
		t.Errorf("harness.sched_late_p99_ms = %g, want at least the 5 ms oversleep", out.layer["harness.sched_late_p99_ms"])
	}
}

func TestSpanSelfTimeIsDurationMinusChildren(t *testing.T) {
	spans := []span{
		{Name: "pass", ID: 1, Parent: 0, Start: 0, End: 100},
		{Name: "a", ID: 2, Parent: 1, Start: 10, End: 40},
		{Name: "b", ID: 3, Parent: 1, Start: 30, End: 60}, // overlaps a: counted once
		{Name: "a.inner", ID: 4, Parent: 2, Start: 15, End: 20},
	}
	self := selfTimes(spans)
	for id, want := range map[int]int64{1: 50, 2: 25, 3: 30, 4: 5} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	if got := unattributedShare(spans); got != 0.5 {
		t.Errorf("unattributed share = %g, want 0.5", got)
	}

	tr := newTracer()
	root := tr.begin("root", 0, 7)
	if err := tr.call("child", root, 7, func() error { return nil }); err != nil {
		t.Fatal(err)
	}
	tr.end(root)
	if len(tr.spans) != 2 || tr.spans[1].Parent != root || tr.spans[1].Pass != 7 || tr.spans[0].End < tr.spans[1].End {
		t.Errorf("tracer recorded %+v", tr.spans)
	}
	var none *tracer
	if id := none.begin("x", 0, 0); id != 0 {
		t.Errorf("nil tracer handed out span %d", id)
	}
	none.end(0)
}

// A window's figures are divided by the slowdown measured while that
// window, and no other, was open.
func TestWindowsAreCalibratedByTheirOwnSlowdown(t *testing.T) {
	sp := &speedometer{} // not started: the test writes the readings
	read := func(n int, each time.Duration) {
		sp.at.sum += time.Duration(n) * each
		sp.at.n += n
	}
	rec := newRecorder(sp)
	window := func(work float64, wall, cpu, op time.Duration) {
		rec.work, rec.wall, rec.cpu = work, wall, cpu
		rec.op(op)
		rec.closeWindow()
	}
	read(10, speedNominal) // a quiet machine
	window(1000, time.Second, time.Second, 10*time.Millisecond)
	read(10, 2*speedNominal) // the same work while a neighbour halves the core
	window(1000, 2*time.Second, 2*time.Second, 20*time.Millisecond)
	window(1000, 2*time.Second, 2*time.Second, 20*time.Millisecond) // no reading: the run's mean, 1.5
	out := &outcome{layer: map[string]float64{}}
	rec.finish(out)
	if want := []float64{1, 2, 1.5}; !slices.Equal(rec.slows, want) {
		t.Fatalf("slowdowns %v, want %v", rec.slows, want)
	}
	if rec.rates[0] != 1000 || rec.rates[1] != 1000 || rec.cpus[1] != 1000 || rec.ops[1] != 10 {
		t.Errorf("halved machine: rates %v cpus %v ops %v, want the quiet machine's 1000/s, 1000 us and 10 ms", rec.rates, rec.cpus, rec.ops)
	}
	if out.workPerS != 1000 || out.op.p50 != 10 || out.layer["harness.machine_slowdown"] != 1.5 {
		t.Errorf("reported work_per_s %g, op_p50_ms %g, slowdown %g", out.workPerS, out.op.p50, out.layer["harness.machine_slowdown"])
	}
	var none *speedometer
	if f := none.slowdown(none.mark()); f != 1 {
		t.Errorf("no speedometer calibrates by %g, want 1", f)
	}

	// The real thing takes readings and stops when told to.
	live := startSpeedometer()
	for deadline := time.Now().Add(5 * time.Second); live.mark().n < 3 && time.Now().Before(deadline); {
		time.Sleep(speedEvery)
	}
	live.close()
	if m := live.mark(); m.n < 3 || live.slowdown(speedMark{}) <= 0 {
		t.Errorf("running speedometer took %d readings, slowdown %g", m.n, live.slowdown(speedMark{}))
	}
}

func TestFixtureIsAFunctionOfTheSeed(t *testing.T) {
	build := func(seed int64) *fixture {
		f, err := buildFixture(fixtureOpts{payments: 600, seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a, b, c := build(5), build(5), build(6)
	if a.digest != b.digest || a.npages != b.npages || a.txs != b.txs || a.payments != b.payments {
		t.Errorf("seed 5 twice: %s/%d/%d/%d and %s/%d/%d/%d", a.digest, a.npages, a.txs, a.payments, b.digest, b.npages, b.txs, b.payments)
	}
	if a.digest == c.digest {
		t.Errorf("seeds 5 and 6 share digest %s", a.digest)
	}
	if a.payments == 0 || len(a.pageSeqs) != a.npages {
		t.Errorf("fixture counts: %d payments, %d page sequences for %d pages", a.payments, len(a.pageSeqs), a.npages)
	}
}

// Dropping one page from what the system is fed, but not from what the
// reference saw, must fail the run: a fast wrong answer posts no number.
func TestBrokenOracleFailsTheRun(t *testing.T) {
	rc := &runCtx{seed: 3, workers: benchWorkers, dir: t.TempDir()}
	b := &backfillScan{payments: 1500}
	if err := b.prepare(rc); err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if out := b.measure(0, nil); out.failed != 0 || exitCode(out) != exitOK {
		t.Fatalf("intact fixture: %d failed: %v", out.failed, out.failures)
	}

	short, err := ledgerstore.Create(filepath.Join(rc.dir, "short"))
	if err != nil {
		t.Fatal(err)
	}
	seen, dropped := 0, false
	err = b.fix.store.Pages(func(p *ledger.Page) error {
		seen++
		if !dropped && seen > b.fix.npages/2 {
			for i, tx := range p.Txs {
				if tx.Type == ledger.TxPayment && p.Metas[i].Result.Succeeded() {
					dropped = true
					return nil
				}
			}
		}
		return short.Append(p)
	})
	if err != nil || !dropped {
		t.Fatalf("dropping a page: err %v, dropped %v", err, dropped)
	}
	if err := short.Close(); err != nil {
		t.Fatal(err)
	}
	b.fix.store.Close()
	if b.fix.store, err = ledgerstore.Open(short.Dir()); err != nil {
		t.Fatal(err)
	}
	out := b.measure(0, nil)
	if out.failed == 0 || exitCode(out) == exitOK {
		t.Fatalf("a store one page short passed its oracle (%d attempted)", out.attempted)
	}
}

// BENCHMARK.json and the tables in the code must name the same things.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bf struct {
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d in the code", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json names workload %q, the code has none", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	check := func(what string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the code", what, len(got), len(want))
			return
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s[%d]: BENCHMARK.json has %s/%s/%s, the code %s/%s/%s", what, i, m.Name, m.Unit, m.Better, want[i].name, want[i].unit, want[i].better)
			}
			if bounded != (m.Bound != nil) || (bounded && (*m.Bound <= 0 || *m.Bound > 0.25)) {
				t.Errorf("%s %s: bound %v", what, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
}
