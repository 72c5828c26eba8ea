package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"

	"steghide/internal/race"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steghide_test_total", "test counter")
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	// Get-or-create returns the same series.
	if again := r.Counter("steghide_test_total", "test counter"); again != c {
		t.Fatal("Counter did not return the existing series")
	}
	c.Reset()
	if got := c.Load(); got != 0 {
		t.Fatalf("after Reset counter = %d, want 0", got)
	}

	r.GaugeFunc("steghide_test_gauge", "test gauge", func() float64 { return float64(c.Load()) - 3 })
	c.Add(10)
	for _, v := range r.Snapshot() {
		if v.Name == "steghide_test_gauge" && (v.Kind != "gauge" || v.Value != 7) {
			t.Fatalf("gauge = %+v, want a gauge at 7", v)
		}
	}
}

func TestRegisterCounterRebinds(t *testing.T) {
	r := NewRegistry()
	var own Counter
	own.Add(5)
	r.RegisterCounter("steghide_owned_total", "externally owned", &own)
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 5 {
		t.Fatalf("snapshot = %+v, want one series at 5", snap)
	}
	// A restarted component re-registers a fresh counter; last wins.
	var own2 Counter
	own2.Add(9)
	r.RegisterCounter("steghide_owned_total", "externally owned", &own2)
	snap = r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 9 {
		t.Fatalf("after rebind snapshot = %+v, want one series at 9", snap)
	}
}

func TestGaugeFuncSampledAtScrape(t *testing.T) {
	r := NewRegistry()
	v := 1.0
	r.GaugeFunc("steghide_fn_gauge", "sampled", func() float64 { return v })
	if got := r.Snapshot()[0].Value; got != 1 {
		t.Fatalf("gauge fn = %v, want 1", got)
	}
	v = 2
	if got := r.Snapshot()[0].Value; got != 2 {
		t.Fatalf("gauge fn = %v, want 2 after change", got)
	}
	// Rebind wins.
	r.GaugeFunc("steghide_fn_gauge", "sampled", func() float64 { return 7 })
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Value != 7 {
		t.Fatalf("after rebind snapshot = %+v, want one series at 7", snap)
	}
}

// TestHistogramBucketBoundaries pins the le-inclusive Prometheus
// convention: a value exactly on a bucket's upper bound counts in
// that bucket, the next greater value spills to the next bucket, and
// values above every bound land in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 5})
	for _, v := range []float64{
		0.5, // < first bound → bucket 0
		1,   // exactly on first bound → bucket 0 (le-inclusive)
		1.0000001,
		2, // exactly on second bound → bucket 1
		5, // exactly on last bound → bucket 2
		6, // above all bounds → +Inf bucket
	} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 6 {
		t.Fatalf("count = %d, want 6", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.0000001+2+5+6; math.Abs(got-want) > 1e-9 {
		t.Fatalf("sum = %v, want %v", got, want)
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {1, 1}, {2, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestLabelsRenderAndEscape(t *testing.T) {
	r := NewRegistry()
	r.Counter("steghide_l_total", "labeled", "volume", "vault").Add(3)
	r.Counter("steghide_l_total", "labeled", "volume", `we"ird\n`).Add(4)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`steghide_l_total{volume="vault"} 3`,
		`steghide_l_total{volume="we\"ird\\n"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// One HELP/TYPE pair per family, not per series.
	if got := strings.Count(out, "# TYPE steghide_l_total"); got != 1 {
		t.Fatalf("TYPE lines for family = %d, want 1\n%s", got, out)
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("steghide_c_total", "a counter").Add(7)
	r.GaugeFunc("steghide_g", "a gauge", func() float64 { return -2 })
	h := r.Histogram("steghide_h_seconds", "a histogram", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(3)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP steghide_c_total a counter",
		"# TYPE steghide_c_total counter",
		"steghide_c_total 7",
		"# TYPE steghide_g gauge",
		"steghide_g -2",
		"# TYPE steghide_h_seconds histogram",
		`steghide_h_seconds_bucket{le="0.1"} 1`,
		`steghide_h_seconds_bucket{le="1"} 2`,
		`steghide_h_seconds_bucket{le="+Inf"} 3`,
		"steghide_h_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistryContention is the -race stress: concurrent writers on
// every metric type racing with snapshot and exposition readers and
// with get-or-create registration. Correctness assertion: counts add
// up afterwards; the race detector does the rest.
func TestRegistryContention(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("steghide_stress_total", "stress")
	h := r.Histogram("steghide_stress_seconds", "stress", LatencyBuckets)
	r.GaugeFunc("steghide_stress_fn", "stress", func() float64 { return float64(c.Load()) })

	const (
		writers = 8
		perG    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(float64(i%100) * 1e-5)
				// Concurrent get-or-create on shared and per-writer keys.
				r.Counter("steghide_stress_total", "stress").Load()
				r.Counter("steghide_stress_w_total", "stress",
					"w", string(rune('a'+w))).Inc()
			}
		}(w)
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for i := 0; i < 200; i++ {
			r.Snapshot()
			var buf bytes.Buffer
			_ = r.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	<-readerDone

	if got := c.Load(); got != writers*perG {
		t.Fatalf("counter = %d, want %d", got, writers*perG)
	}
	if got := h.Count(); got != writers*perG {
		t.Fatalf("histogram count = %d, want %d", got, writers*perG)
	}
	var total uint64
	for _, v := range r.Snapshot() {
		if v.Name == "steghide_stress_w_total" {
			total += uint64(v.Value)
		}
	}
	if total != writers*perG {
		t.Fatalf("per-writer counters sum = %d, want %d", total, writers*perG)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(LatencyBuckets)
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			h.Observe(float64(i%1000) * 1e-6)
			i++
		}
	})
}

// TestAllocBudgets pins the labeled get-or-create hit path at zero
// heap allocations: the key is built on the stack, the map index does
// not copy it, and the label pairs never escape. Regressions here put
// per-observation garbage back into every instrumented hot loop.
func TestAllocBudgets(t *testing.T) {
	if race.Enabled {
		t.Skip("alloc ceilings don't hold under -race (instrumentation defeats escape analysis)")
	}
	r := NewRegistry()
	r.Counter("steghide_alloc_total", "h", "volume", "v0")
	r.Histogram("steghide_alloc_seconds", "h", LatencyBuckets, "volume", "v0")
	if n := testing.AllocsPerRun(200, func() {
		r.Counter("steghide_alloc_total", "h", "volume", "v0").Inc()
	}); n > 0 {
		t.Errorf("labeled Counter hit path: %.1f allocs/op, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		r.Histogram("steghide_alloc_seconds", "h", LatencyBuckets, "volume", "v0").Observe(1e-4)
	}); n > 0 {
		t.Errorf("labeled Histogram hit path: %.1f allocs/op, want 0", n)
	}
}

func BenchmarkLabeledCounterHit(b *testing.B) {
	r := NewRegistry()
	r.Counter("steghide_bench_total", "h", "volume", "v0")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Counter("steghide_bench_total", "h", "volume", "v0").Inc()
	}
}
