// Package telemetry is the repository's zero-dependency metrics layer:
// a registry of counters, gauges and fixed-bucket histograms with
// nil-safe handles, a snapshot/diff API, and Prometheus-text and JSON
// encoders.
//
// The design premise is that instrumentation must be free when nobody
// is looking. Every instrumented component resolves its handles once
// (at SetMetrics time) against a *Registry; a nil registry yields nil
// handles, and every handle method no-ops on a nil receiver — so a hot
// emit site costs exactly one predictable branch when telemetry is
// disabled, and one atomic op when enabled. Handles are safe for
// concurrent use, which lets many harness trials share one campaign
// registry.
//
// Metric naming follows the Prometheus convention documented in
// docs/OBSERVABILITY.md: snake_case, `<layer>_<quantity>_<unit>`, with
// `_total` for counters (e.g. cpu_squashes_total,
// undo_rollback_stall_cycles, cache_l1d_hits_total).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value of a
// *Counter (nil) is a valid, free no-op handle.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil handle).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as a float64. The
// zero value of a *Gauge (nil) is a valid, free no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adds d to the current value.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil handle).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets with inclusive
// upper bounds (Prometheus `le` semantics: an observation equal to a
// boundary lands in that boundary's bucket). One extra overflow bucket
// (+Inf) catches everything above the last bound. The zero value of a
// *Histogram (nil) is a valid, free no-op handle.
type Histogram struct {
	bounds []float64 // sorted, strictly increasing upper bounds
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
	// ex is the exemplar slot (see exemplar.go); nil until the first
	// ObserveExemplar or absorbed exemplar.
	ex atomic.Pointer[exemplarSlot]
}

// Observe records one observation. The nil-check shell stays within
// the inlining budget, so a detached (nil) handle on a hot path costs
// a branch, not a function call.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.observe(v)
}

func (h *Histogram) observe(v float64) {
	// First bucket whose inclusive upper bound admits v; the overflow
	// bucket sits at index len(bounds).
	i := sort.SearchFloat64s(h.bounds, v)
	// SearchFloat64s returns the first index with bounds[i] >= v, which
	// is exactly the `le` bucket.
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveInt records an integer observation (cycle counts, lengths).
func (h *Histogram) ObserveInt(v uint64) { h.Observe(float64(v)) }

// Bounds returns the configured upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 {
	if h == nil {
		return nil
	}
	out := make([]float64, len(h.bounds))
	copy(out, h.bounds)
	return out
}

// metric is one registered name with its help string and handle.
type metric struct {
	name string
	help string
	c    *Counter
	g    *Gauge
	h    *Histogram
}

// Registry holds the metrics of one campaign, trial or process. A nil
// *Registry is valid: every lookup returns a nil (no-op) handle, which
// is the "telemetry disabled" fast path.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*metric
	order   []string // registration order for stable encoding
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: map[string]*metric{}}
}

// lookup returns the existing metric for name or registers a new one
// built by mk. Re-registering a name with a different metric type
// returns the existing handle's slot (the mismatched accessor yields
// nil), so a typo'd re-registration degrades to a no-op instead of a
// panic mid-sweep.
func (r *Registry) lookup(name, help string, mk func() *metric) *metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		return m
	}
	m := mk()
	m.name = name
	m.help = help
	r.metrics[name] = m
	r.order = append(r.order, name)
	return m
}

// Counter returns the counter registered under name, creating it on
// first use. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, func() *metric { return &metric{c: &Counter{}} }).c
}

// Gauge returns the gauge registered under name, creating it on first
// use. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, func() *metric { return &metric{g: &Gauge{}} }).g
}

// Histogram returns the histogram registered under name with the given
// inclusive upper bounds, creating it on first use (later calls reuse
// the first registration's buckets). Bounds must be sorted and
// strictly increasing; out-of-order bounds are sorted and deduplicated
// rather than rejected. Nil-safe: a nil registry returns a nil handle.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	return r.lookup(name, help, func() *metric {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		uniq := bs[:0]
		for i, b := range bs {
			if i == 0 || b != bs[i-1] {
				uniq = append(uniq, b)
			}
		}
		return &metric{h: &Histogram{bounds: uniq, counts: make([]atomic.Uint64, len(uniq)+1)}}
	}).h
}

// StallBuckets is the shared bucket ladder for rollback/cleanup stall
// histograms. It is fine-grained (step 2) through the paper's
// signal region — the Rd≈69-cycle constant-time rollback mode sits
// between the relaxed const-65 floor and its +restoration tail — and
// coarse outside it.
func StallBuckets() []float64 {
	out := []float64{0, 4, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52, 56}
	for b := 58.0; b <= 90; b += 2 {
		out = append(out, b)
	}
	return append(out, 100, 120, 160, 200, 280, 400, 600, 1000)
}

// LatencyBuckets is the shared bucket ladder for load-latency
// histograms, aligned with the Table I level latencies (L1 2, L2 18,
// DRAM ≈118) and the attack's threshold region (≈160–200).
func LatencyBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16, 18, 20, 24, 32, 48, 64, 80, 100,
		110, 118, 126, 140, 160, 170, 178, 183, 190, 200, 220, 260, 320, 500}
}

// TrialLatencyBuckets is the shared ladder for wall-clock trial and
// cell latency histograms, in milliseconds: fine through the
// sub-second range where healthy trials live, coarse into the tens of
// seconds where deadline-bound stragglers land.
func TrialLatencyBuckets() []float64 {
	return []float64{1, 2, 5, 10, 25, 50, 100, 250, 500,
		1000, 2500, 5000, 10000, 30000, 60000}
}

// OccupancyBuckets is the shared ladder for structure-occupancy
// histograms (ROB entries, MSHR entries).
func OccupancyBuckets(capacity int) []float64 {
	var out []float64
	step := capacity / 16
	if step < 1 {
		step = 1
	}
	for b := 0; b <= capacity; b += step {
		out = append(out, float64(b))
	}
	return out
}
