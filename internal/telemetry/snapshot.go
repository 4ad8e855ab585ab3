package telemetry

import (
	"math"
	"sort"
	"sync/atomic"
)

// float64FromBits reads an atomic float64 stored as uint64 bits.
func float64FromBits(bits uint64) float64 { return math.Float64frombits(bits) }

// addFloatBits CAS-accumulates d into an atomic float64 cell.
func addFloatBits(cell *atomic.Uint64, d float64) {
	for {
		old := cell.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if cell.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistogramSnapshot is the point-in-time state of one histogram.
type HistogramSnapshot struct {
	// Bounds are the inclusive upper bounds; Counts has one extra
	// trailing entry for the +Inf overflow bucket.
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
	// Exemplar links the worst observation to its cell (nil when the
	// histogram never saw an ObserveExemplar).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Mean returns the average observation (0 when empty).
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Mode returns the inclusive upper bound of the fullest bucket — the
// histogram's coarse modal value (e.g. the Rd≈69-cycle rollback mode of
// the paper read off the cleanup-stall histogram). The overflow bucket
// reports the last finite bound. Returns 0 when the histogram is empty.
func (h HistogramSnapshot) Mode() float64 {
	best, bestN := -1, uint64(0)
	for i, n := range h.Counts {
		if n > bestN {
			best, bestN = i, n
		}
	}
	if best < 0 {
		return 0
	}
	if best >= len(h.Bounds) { // overflow bucket
		if len(h.Bounds) == 0 {
			return 0
		}
		return h.Bounds[len(h.Bounds)-1]
	}
	return h.Bounds[best]
}

// Snapshot is a consistent-enough point-in-time copy of a registry:
// each metric is read atomically (cross-metric skew is possible while
// writers run, which is fine for monitoring).
type Snapshot struct {
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	// Help carries the registration help strings, keyed by name.
	Help map[string]string `json:"help,omitempty"`
}

// Snapshot captures the registry's current values. A nil registry
// yields an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, name := range r.order {
		m := r.metrics[name]
		if m.help != "" {
			s.Help[name] = m.help
		}
		switch {
		case m.c != nil:
			s.Counters[name] = m.c.Value()
		case m.g != nil:
			s.Gauges[name] = m.g.Value()
		case m.h != nil:
			hs := HistogramSnapshot{
				Bounds: append([]float64(nil), m.h.bounds...),
				Counts: make([]uint64, len(m.h.counts)),
				Count:  m.h.count.Load(),
			}
			for i := range m.h.counts {
				hs.Counts[i] = m.h.counts[i].Load()
			}
			hs.Sum = float64FromBits(m.h.sum.Load())
			hs.Exemplar = m.h.Exemplar()
			s.Histograms[name] = hs
		}
	}
	return s
}

// Diff returns s minus prev: counters and histogram counts subtract
// (clamped at zero if prev ran ahead), gauges keep their current value
// (a gauge is a level, not a flow). Metrics absent from prev pass
// through unchanged, so diffing against an empty snapshot is identity.
func (s Snapshot) Diff(prev Snapshot) Snapshot {
	out := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
		Help:       map[string]string{},
	}
	for k, v := range s.Help {
		out.Help[k] = v
	}
	for k, v := range s.Counters {
		p := prev.Counters[k]
		if p > v {
			p = v
		}
		out.Counters[k] = v - p
	}
	for k, v := range s.Gauges {
		out.Gauges[k] = v
	}
	for k, h := range s.Histograms {
		p, ok := prev.Histograms[k]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms[k] = h
			continue
		}
		d := HistogramSnapshot{
			Bounds: h.Bounds,
			Counts: make([]uint64, len(h.Counts)),
			Sum:    h.Sum - p.Sum,
			// The exemplar is worst-so-far, a level: carry it through.
			Exemplar: h.Exemplar,
		}
		if p.Count <= h.Count {
			d.Count = h.Count - p.Count
		}
		for i := range h.Counts {
			if p.Counts[i] <= h.Counts[i] {
				d.Counts[i] = h.Counts[i] - p.Counts[i]
			}
		}
		out.Histograms[k] = d
	}
	return out
}

// Absorb merges a snapshot into the registry: counters add, histograms
// add per-bucket (when bucket layouts match; mismatched layouts fold
// into the sum/count only), gauges take the snapshot's value. A
// zero-valued gauge is skipped — it is indistinguishable from a gauge
// that was registered but never set, and a campaign rollup should not
// let a trial that never measured (e.g. never calibrated) erase one
// that did. This is how per-trial registries roll up into a campaign
// registry. Metrics the registry has not seen yet are registered in
// sorted-name order, not map-iteration order, so a rolled-up registry
// encodes identically across runs. Nil-safe.
func (r *Registry) Absorb(s Snapshot) {
	if r == nil {
		return
	}
	for _, name := range sortedKeys(s.Counters) {
		r.Counter(name, s.Help[name]).Add(s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		v := s.Gauges[name]
		if v == 0 {
			continue
		}
		r.Gauge(name, s.Help[name]).Set(v)
	}
	for _, name := range sortedKeys(s.Histograms) {
		hs := s.Histograms[name]
		h := r.Histogram(name, s.Help[name], hs.Bounds)
		if h == nil {
			continue
		}
		if ex := hs.Exemplar; ex != nil && ex.Cell != "" {
			// Max-keeping merge: the rollup's exemplar is the worst
			// observation across every absorbed trial.
			h.exemplar().offer(ex.Value, ex.Cell)
		}
		if len(h.counts) == len(hs.Counts) {
			for i, n := range hs.Counts {
				h.counts[i].Add(n)
			}
			h.count.Add(hs.Count)
			addFloatBits(&h.sum, hs.Sum)
			continue
		}
		// Bucket layouts differ (e.g. re-registered with other bounds):
		// re-observe the per-bucket mass at each bound so nothing is
		// silently dropped.
		for i, n := range hs.Counts {
			bound := 0.0
			if i < len(hs.Bounds) {
				bound = hs.Bounds[i]
			} else if len(hs.Bounds) > 0 {
				bound = hs.Bounds[len(hs.Bounds)-1]
			}
			for j := uint64(0); j < n; j++ {
				h.Observe(bound)
			}
		}
	}
}

// Names returns every metric name in the snapshot, sorted.
func (s Snapshot) Names() []string {
	var out []string
	for k := range s.Counters {
		out = append(out, k)
	}
	for k := range s.Gauges {
		out = append(out, k)
	}
	for k := range s.Histograms {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Empty reports whether the snapshot holds no metrics at all.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// sortedKeys returns a map's keys in sorted order, giving Absorb a
// deterministic registration order regardless of map iteration.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
