// Package obs is the leakage-audited observability plane: a
// zero-dependency metrics registry (atomic counters, gauges sampled at
// scrape time, fixed-bucket histograms) with a snapshot API and
// Prometheus-text / expvar-JSON exposition.
//
// The steg-specific constraint that shapes this package: a metrics
// endpoint is an operator-facing side channel, and the paper's §3
// attacker is allowed to read it. Every metric exported through a
// Registry must therefore disclose nothing an attacker watching the
// raw device or the wire could not already compute — counts and
// latencies of the *observable* stream (whose distribution is uniform
// by construction, Definition 1) are fine; anything keyed by hidden
// pathnames, locator secrets, or the real-vs-dummy classification of
// individual updates is forbidden. DESIGN.md ("Observability plane")
// carries the per-metric leakage argument, and the facade's
// invariance oracle pins that attaching a registry moves no
// observable byte.
//
// Concurrency: all metric write paths are single atomic operations
// (counters) or a bounded CAS loop (histogram sum), safe for
// any number of writers; snapshots and exposition take a read lock on
// the registration table only, never on the hot counters, so a
// scrape cannot stall the update path.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// ready to use; a Counter may live inside another struct (the
// scheduler embeds its stream counters directly) and be registered
// into a Registry later — one source of truth for both the Go-level
// stats snapshot and the exposition surface.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// Reset zeroes the counter (ResetStats semantics; exposition scrapers
// see the reset like any process restart).
func (c *Counter) Reset() { c.v.Store(0) }

// Histogram is a fixed-bucket histogram in the Prometheus style:
// cumulative buckets with inclusive upper bounds, plus a sum and a
// count. Buckets are fixed at construction; Observe is lock-free (one
// atomic add per observation plus a CAS loop for the float sum).
type Histogram struct {
	bounds []float64       // sorted inclusive upper bounds, +Inf implicit
	counts []atomic.Uint64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64   // math.Float64bits of the running sum
	count  atomic.Uint64
}

// NewHistogram builds a histogram over the given upper bounds (must
// be sorted ascending and non-empty; a trailing +Inf is implicit).
// Prefer Registry.Histogram, which also registers it.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be sorted and distinct")
		}
	}
	b := append([]float64(nil), bounds...)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records v: the first bucket whose upper bound is >= v
// counts it (Prometheus "le" semantics — a value exactly on a
// boundary lands in that boundary's bucket).
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		s := math.Float64frombits(old) + v
		if h.sum.CompareAndSwap(old, math.Float64bits(s)) {
			return
		}
	}
}

// Count returns how many observations the histogram has absorbed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// HistSnapshot is one histogram's state at a moment: per-bucket
// (non-cumulative) counts aligned with Bounds, plus the +Inf bucket
// at the end of Counts.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64
	Sum    float64
	Count  uint64
}

func (h *Histogram) snapshot() *HistSnapshot {
	s := &HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
		Count:  h.Count(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// kind tags a registered metric.
type kind uint8

const (
	kindCounter kind = iota
	kindGaugeFunc
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// metric is one registered series.
type metric struct {
	family  string // metric family name (HELP/TYPE anchor)
	labels  string // rendered `{k="v",...}` fragment, or ""
	help    string
	kind    kind
	counter *Counter
	gaugeFn func() float64
	hist    *Histogram
}

func (m *metric) key() string { return m.family + m.labels }

// Registry holds a set of metrics and renders them. The zero value is
// not usable; call NewRegistry. Registration is get-or-create keyed
// by (family, labels): enabling metrics twice for the same component
// returns the same series instead of erroring, so restartable
// components (daemons, servers in tests) re-bind cleanly.
type Registry struct {
	mu    sync.RWMutex
	order []*metric
	index map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*metric{}}
}

// Labels renders variadic k1, v1, k2, v2, ... pairs into a label
// fragment. Label values are escaped; an odd trailing key is dropped.
func renderLabels(pairs []string) string {
	return string(appendLabels(nil, pairs))
}

// appendLabels appends the rendered `{k="v",...}` fragment to dst.
// Byte-compatible with renderLabels so fragments built on a stack
// buffer key the same index entries as the stored strings.
func appendLabels(dst []byte, pairs []string) []byte {
	if len(pairs) < 2 {
		return dst
	}
	dst = append(dst, '{')
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, pairs[i]...)
		dst = append(dst, '=', '"')
		dst = appendEscaped(dst, pairs[i+1])
		dst = append(dst, '"')
	}
	return append(dst, '}')
}

// appendEscaped appends v with Prometheus label-value escaping
// (backslash, double quote, newline). A manual loop instead of
// strings.NewReplacer: the replacer allocated its state machine on
// every call, which made each labeled get-or-create cost ~10 heap
// objects even on the hit path.
func appendEscaped(dst []byte, v string) []byte {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			dst = append(dst, '\\', '\\')
		case '"':
			dst = append(dst, '\\', '"')
		case '\n':
			dst = append(dst, '\\', 'n')
		default:
			dst = append(dst, c)
		}
	}
	return dst
}

func escapeLabel(v string) string {
	return string(appendEscaped(nil, v))
}

// lookup is the alloc-free hit path of get-or-create: it builds the
// (family, labels) key in a stack buffer and indexes the table under a
// read lock — string(key) in the map expression does not copy, and the
// label pairs never escape, so a hit costs zero heap allocations. A
// miss (or kind mismatch) returns nil and the caller takes the slow
// write-locked path.
func (r *Registry) lookup(family string, pairs []string, k kind) *metric {
	var stack [128]byte
	key := append(stack[:0], family...)
	key = appendLabels(key, pairs)
	r.mu.RLock()
	m := r.index[string(key)]
	r.mu.RUnlock()
	if m != nil && m.kind == k {
		return m
	}
	return nil
}

// get returns the series under (family, labels) if registered, with
// kind checked, or nil.
func (r *Registry) get(family, labels string, k kind) *metric {
	if m, ok := r.index[family+labels]; ok && m.kind == k {
		return m
	}
	return nil
}

func (r *Registry) add(m *metric) {
	r.index[m.key()] = m
	r.order = append(r.order, m)
}

// Counter returns the counter registered under name (+labels),
// creating it on first use. labels are k, v pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if m := r.lookup(name, labels, kindCounter); m != nil {
		return m.counter
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.get(name, ls, kindCounter); m != nil {
		return m.counter
	}
	c := &Counter{}
	r.add(&metric{family: name, labels: ls, help: help, kind: kindCounter, counter: c})
	return c
}

// RegisterCounter registers an externally owned counter — how a
// component whose counters predate the registry (the scheduler's
// stream counters) exports them without a second copy. Re-registering
// the same key rebinds the series to c (a restarted component wins).
func (r *Registry) RegisterCounter(name, help string, c *Counter, labels ...string) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.get(name, ls, kindCounter); m != nil {
		m.counter = c
		return
	}
	r.add(&metric{family: name, labels: ls, help: help, kind: kindCounter, counter: c})
}

// GaugeFunc registers a gauge sampled at scrape time. fn must be safe
// to call from any goroutine; it runs only during Snapshot/exposition,
// so it may take locks the hot path also takes. Re-registering the
// same key rebinds to fn.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.get(name, ls, kindGaugeFunc); m != nil {
		m.gaugeFn = fn
		return
	}
	r.add(&metric{family: name, labels: ls, help: help, kind: kindGaugeFunc, gaugeFn: fn})
}

// Histogram returns the histogram registered under name (+labels),
// creating it with the given bounds on first use (bounds are ignored
// when the series already exists).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	if m := r.lookup(name, labels, kindHistogram); m != nil {
		return m.hist
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m := r.get(name, ls, kindHistogram); m != nil {
		return m.hist
	}
	h := NewHistogram(bounds)
	r.add(&metric{family: name, labels: ls, help: help, kind: kindHistogram, hist: h})
	return h
}

// Value is one series' state in a Snapshot.
type Value struct {
	// Name is the metric family; Labels the rendered fragment ("" when
	// unlabeled); Kind one of "counter", "gauge", "histogram".
	Name   string
	Labels string
	Kind   string
	// Value carries counter and gauge readings (histograms use Hist).
	Value float64
	// Hist is set for histograms.
	Hist *HistSnapshot
}

// Snapshot reads every registered series at one moment (per-series
// atomic reads; no cross-series barrier — the registry never stops
// the world). Order is registration order.
func (r *Registry) Snapshot() []Value {
	r.mu.RLock()
	metrics := make([]*metric, len(r.order))
	copy(metrics, r.order)
	r.mu.RUnlock()
	out := make([]Value, 0, len(metrics))
	for _, m := range metrics {
		v := Value{Name: m.family, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			v.Value = float64(m.counter.Load())
		case kindGaugeFunc:
			v.Value = m.gaugeFn()
		case kindHistogram:
			v.Hist = m.hist.snapshot()
		}
		out = append(out, v)
	}
	return out
}

// LatencyBuckets are the default bounds for operation-latency
// histograms, in seconds: 1µs to 5s in a 1-5 ladder wide enough for
// in-memory devices and remote volumes alike.
var LatencyBuckets = []float64{
	1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 1e-1, 5e-1, 1, 5,
}

// IterationBuckets are the default bounds for iterations-per-update
// histograms: the Figure-6 loop's draw count is geometrically
// distributed, so a doubling ladder covers it.
var IterationBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// fmtFloat renders a value the way Prometheus text exposition wants.
func fmtFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}
