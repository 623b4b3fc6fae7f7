package telemetry

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// modelBucket is the index of the first bucket whose bound is at least
// d, found by walking the bounds.
func modelBucket(d time.Duration) int {
	for i := 0; i < numBuckets-1; i++ {
		if d <= bound(i) {
			return i
		}
	}
	return numBuckets - 1
}

// TestHistogramMatchesModel holds the histogram against a sorted slice
// of the same observations: every bucket, the cumulative counts and sum
// the writer exports, each quantile's bucket, concurrent totals and the
// allocation-free Observe.
func TestHistogramMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	inputs := []time.Duration{0, -1, -time.Hour, math.MinInt64 + 1, bound(numBuckets-2) + 1, 1 << 40, time.Hour}
	for k := 0; k < 42; k++ {
		inputs = append(inputs, 1<<k, 1<<k+1)
	}
	for i := 0; i < 5000; i++ {
		inputs = append(inputs, time.Duration(rng.Int63n(1<<rng.Intn(38)+1)))
	}

	var h Histogram
	var model []time.Duration
	var modelSum int64
	var modelCounts [numBuckets]uint64
	for _, d := range inputs {
		h.Observe(d)
		d = max(d, 0)
		model = append(model, d)
		modelSum += int64(d)
		modelCounts[modelBucket(d)]++
	}
	sort.Slice(model, func(i, j int) bool { return model[i] < model[j] })

	for i := range modelCounts {
		if got := h.counts[i].Load(); got != modelCounts[i] {
			t.Errorf("bucket %d (le %s): %d, model %d", i, leText[i], got, modelCounts[i])
		}
	}
	if got := h.sum.Load(); got != modelSum {
		t.Errorf("sum %d ns, model %d", got, modelSum)
	}

	// The exported cumulative counts: bucket le holds every model value
	// at most le.
	var buf bytes.Buffer
	NewWriter(&buf).Histogram("x_seconds", "x", &h)
	var les []string
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, value, _ := strings.Cut(line, " ")
		switch {
		case strings.HasPrefix(series, `x_seconds_bucket{le="`):
			le := strings.TrimSuffix(strings.TrimPrefix(series, `x_seconds_bucket{le="`), `"}`)
			les = append(les, le)
			want := len(model)
			if le != "+Inf" {
				sec, err := strconv.ParseFloat(le, 64)
				if err != nil {
					t.Fatalf("le %q: %v", le, err)
				}
				limit := time.Duration(math.Round(sec * 1e9))
				want = sort.Search(len(model), func(i int) bool { return model[i] > limit })
			}
			if got, _ := strconv.ParseUint(value, 10, 64); got != uint64(want) {
				t.Errorf("bucket le=%s: %s, model %d", le, value, want)
			}
		case series == "x_seconds_sum":
			got, _ := strconv.ParseFloat(value, 64)
			if want := time.Duration(modelSum).Seconds(); math.Abs(got-want) > 1e-9*want {
				t.Errorf("sum %s s, model %v", value, want)
			}
		case series == "x_seconds_count":
			if value != strconv.Itoa(len(model)) {
				t.Errorf("count %s, model %d", value, len(model))
			}
		default:
			t.Errorf("unexpected sample %q", line)
		}
	}
	if len(les) != numBuckets || les[0] != "0.000000128" || les[numBuckets-2] != "34.359738368" || les[numBuckets-1] != "+Inf" {
		t.Errorf("le labels %v", les)
	}

	// Quantile lands in the bucket that holds the model's exact
	// q-quantile, the sorted value at rank ⌈q·n⌉.
	for _, q := range []float64{0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1} {
		exact := model[max(int(math.Ceil(q*float64(len(model))))-1, 0)]
		got := h.Quantile(q)
		i := modelBucket(exact)
		if i == numBuckets-1 {
			if got != bound(numBuckets-2) {
				t.Errorf("q=%v: %v, want the top bound for a +Inf rank", q, got)
			}
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = bound(i - 1)
		}
		if got < lo || got > bound(i) {
			t.Errorf("q=%v: %v outside (%v, %v], which holds the exact %v", q, got, lo, bound(i), exact)
		}
	}
	var empty Histogram
	if got := empty.Quantile(0.5); got != 0 {
		t.Errorf("empty quantile %v", got)
	}

	// Concurrent observers total exactly.
	const goroutines, each = 8, 5000
	var shared, serial Histogram
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				shared.Observe(inputs[(g*each+i)%len(inputs)])
			}
		}(g)
	}
	for i := 0; i < goroutines*each; i++ {
		serial.Observe(inputs[i%len(inputs)])
	}
	wg.Wait()
	sc, sn := shared.snapshot()
	wc, wn := serial.snapshot()
	if sc != wc || shared.sum.Load() != serial.sum.Load() {
		t.Errorf("concurrent %d observations: %v (sum %d), serial %d: %v (sum %d)", sn, sc, shared.sum.Load(), wn, wc, serial.sum.Load())
	}

	d := 3 * time.Millisecond
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(d) }); allocs != 0 {
		t.Errorf("Observe allocates %v times", allocs)
	}
}
