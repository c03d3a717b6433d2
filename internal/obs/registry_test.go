package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ozz_test_total", "test counter")
	if c.Value() != 0 {
		t.Fatalf("fresh counter = %d, want 0", c.Value())
	}
	c.Inc()
	c.Add(41)
	if c.Value() != 42 {
		t.Fatalf("counter = %d, want 42", c.Value())
	}
	// Get-or-create: same name returns the same metric.
	if c2 := r.Counter("ozz_test_total", "test counter"); c2 != c {
		t.Fatal("re-registering a counter returned a different instance")
	}
}

func TestGaugeBasics(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("ozz_test_gauge", "test gauge")
	g.Set(2.5)
	if got := g.Value(); got != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", got)
	}
	g.Set(-7)
	if got := g.Value(); got != -7 {
		t.Fatalf("gauge = %v, want -7", got)
	}
}

// TestHistogramBoundaries pins the le-inclusive Prometheus bucket
// semantics: an observation exactly on a bound lands in that bound's
// bucket, and values beyond the last bound land in +Inf.
func TestHistogramBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ozz_test_seconds", "test histogram", []float64{1, 2, 4})
	cases := []struct {
		v    float64
		want int // bucket index
	}{
		{0.5, 0},
		{1, 0},      // exactly on bound 1 -> le="1"
		{1.0001, 1}, // just above -> le="2"
		{2, 1},
		{3, 2},
		{4, 2},
		{4.5, 3},         // +Inf
		{math.Inf(1), 3}, // +Inf
		{-1, 0},          // below the first bound still counts in le="1"
	}
	for _, c := range cases {
		h.Observe(c.v)
	}
	wantCounts := make([]uint64, 4)
	for _, c := range cases {
		wantCounts[c.want]++
	}
	for i, want := range wantCounts {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != uint64(len(cases)) {
		t.Errorf("Count = %d, want %d", got, len(cases))
	}
	wantSum := 0.0
	for _, c := range cases {
		wantSum += c.v
	}
	if got := h.Sum(); got != wantSum {
		t.Errorf("Sum = %v, want %v", got, wantSum)
	}
	if got := h.upper; len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Errorf("bounds = %v, want [1 2 4]", got)
	}
}

func TestHistogramBadBucketsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-increasing buckets: want panic")
		}
	}()
	newHistogram([]float64{1, 1})
}

func TestVecChildren(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ozz_test_labeled_total", "labeled", "strategy")
	v.With("ooo").Add(3)
	v.With("sequential").Inc()
	if got := v.With("ooo").Value(); got != 3 {
		t.Errorf(`With("ooo") = %d, want 3`, got)
	}
	if v.With("ooo") != v.With("ooo") {
		t.Error("With returned different instances for the same label value")
	}
	hv := r.HistogramVec("ozz_test_labeled_seconds", "labeled hist", []float64{1}, "stage")
	hv.With("profile").Observe(0.5)
	if got := hv.With("profile").Count(); got != 1 {
		t.Errorf("labeled histogram Count = %d, want 1", got)
	}
}

func TestReRegisterMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("ozz_test_total", "x")
	for name, f := range map[string]func(){
		"kind":       func() { r.Gauge("ozz_test_total", "x") },
		"labels":     func() { r.CounterVec("ozz_test_total", "x", "strategy") },
		"label name": func() { r.CounterVec("ozz_test_labels_total", "x", "b") },
	} {
		r.CounterVec("ozz_test_labels_total", "x", "a")
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("re-register with different %s: want panic", name)
				}
			}()
			f()
		}()
	}
}

func TestWrongLabelCountPanics(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("ozz_test_total", "x", "a", "b")
	defer func() {
		if recover() == nil {
			t.Error("With with wrong arity: want panic")
		}
	}()
	v.With("only-one")
}

// TestConcurrentIncrements exercises every metric type from many
// goroutines; run with -race this doubles as the data-race check.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ozz_test_total", "c")
	g := r.Gauge("ozz_test_gauge", "g")
	h := r.Histogram("ozz_test_seconds", "h", DurationBuckets())
	v := r.CounterVec("ozz_test_labeled_total", "v", "worker")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lbl := string(rune('a' + w))
			for i := 0; i < per; i++ {
				c.Inc()
				g.Set(float64(w))
				h.Observe(1e-3)
				v.With(lbl).Inc()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*per {
		t.Errorf("counter = %d, want %d", got, workers*per)
	}
	if got := g.Value(); got < 0 || got >= workers || got != float64(int(got)) {
		t.Errorf("gauge = %v, want one worker's index", got)
	}
	if got := h.Count(); got != workers*per {
		t.Errorf("histogram count = %d, want %d", got, workers*per)
	}
	for w := 0; w < workers; w++ {
		if got := v.With(string(rune('a' + w))).Value(); got != per {
			t.Errorf("child %d = %d, want %d", w, got, per)
		}
	}
}

// TestHistogramTallyFlush: observations tallied on several goroutines,
// each into its own tally, and flushed in bulk leave the histogram with
// the buckets and count that observing each value directly gives, and a
// second flush adds nothing. A tally with other bucket bounds panics.
func TestHistogramTallyFlush(t *testing.T) {
	r := NewRegistry()
	direct := r.Histogram("ozz_direct_seconds", "d", []float64{1, 2, 4})
	bulk := r.Histogram("ozz_bulk_seconds", "b", []float64{1, 2, 4})
	values := []float64{0.5, 1, 1.0001, 2, 3, 4, 4.5, math.Inf(1), -1}
	for _, v := range values {
		direct.Observe(v)
	}
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tally := NewHistogramTally([]float64{1, 2, 4})
			for _, v := range values[g*3 : g*3+3] {
				tally.Observe(v)
			}
			tally.FlushTo(bulk)
			tally.FlushTo(bulk)
		}()
	}
	wg.Wait()
	for i := range direct.counts {
		if got, want := bulk.counts[i].Load(), direct.counts[i].Load(); got != want {
			t.Errorf("bucket %d = %d, want %d", i, got, want)
		}
	}
	if bulk.Count() != direct.Count() {
		t.Errorf("Count = %d, want %d", bulk.Count(), direct.Count())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("flushing into a histogram with other bounds did not panic")
		}
	}()
	tally := NewHistogramTally([]float64{1, 2})
	tally.Observe(1)
	tally.FlushTo(bulk)
}

func TestNames(t *testing.T) {
	r := NewRegistry()
	r.Counter("ozz_b_total", "b")
	r.Gauge("ozz_a_gauge", "a")
	got := r.Names()
	if len(got) != 2 || got[0] != "ozz_a_gauge" || got[1] != "ozz_b_total" {
		t.Fatalf("Names = %v, want sorted [ozz_a_gauge ozz_b_total]", got)
	}
}

// TestWriteTextGolden pins the exposition format byte-for-byte for one
// representative state of each metric kind.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("ozz_runs_total", "Total runs.").Add(7)
	r.Gauge("ozz_width", "Worker width.").Set(2.5)
	h := r.Histogram("ozz_dur_seconds", "Run duration.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.CounterVec("ozz_crashes_total", "Crashes by strategy.", "strategy")
	v.With("ooo").Add(2)
	v.With("kcsan").Inc()
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP ozz_crashes_total Crashes by strategy.
# TYPE ozz_crashes_total counter
ozz_crashes_total{strategy="kcsan"} 1
ozz_crashes_total{strategy="ooo"} 2
# HELP ozz_dur_seconds Run duration.
# TYPE ozz_dur_seconds histogram
ozz_dur_seconds_bucket{le="0.1"} 2
ozz_dur_seconds_bucket{le="1"} 3
ozz_dur_seconds_bucket{le="+Inf"} 4
ozz_dur_seconds_sum 5.6
ozz_dur_seconds_count 4
# HELP ozz_runs_total Total runs.
# TYPE ozz_runs_total counter
ozz_runs_total 7
# HELP ozz_width Worker width.
# TYPE ozz_width gauge
ozz_width 2.5
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestDurationBucketsIncreasing(t *testing.T) {
	b := DurationBuckets()
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("DurationBuckets not strictly increasing at %d: %v", i, b)
		}
	}
}
