package telemetry

import "sync"

// Exemplar links a histogram to the cell responsible for its worst
// (largest) observation: the bridge from an outlier bucket on /metrics
// to the journal record that produced it (docs/OBSERVABILITY.md).
// Cell is a harness journal key. Worst-of is the right policy for this
// repository's histograms — trial latency, rollback stall, round
// latency — where the question an exemplar answers is always "show me
// the slowest one".
type Exemplar struct {
	Value float64 `json:"value"`
	Cell  string  `json:"cell"`
}

// exemplarSlot is the per-histogram exemplar accumulator. It only
// exists once an ObserveExemplar or an absorbed exemplar arrives; a
// plain Observe never touches it.
type exemplarSlot struct {
	mu    sync.Mutex
	has   bool
	value float64
	cell  string
}

// offer records v as the exemplar when it beats the current worst.
func (e *exemplarSlot) offer(v float64, cell string) {
	e.mu.Lock()
	if !e.has || v > e.value {
		e.has, e.value, e.cell = true, v, cell
	}
	e.mu.Unlock()
}

// snapshot returns the current exemplar, or nil when none was
// recorded.
func (e *exemplarSlot) snapshot() *Exemplar {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.has {
		return nil
	}
	return &Exemplar{Value: e.value, Cell: e.cell}
}

// exemplar returns the histogram's exemplar slot, creating it on first
// use. Safe for concurrent use (CAS publish).
func (h *Histogram) exemplar() *exemplarSlot {
	if e := h.ex.Load(); e != nil {
		return e
	}
	e := &exemplarSlot{}
	if h.ex.CompareAndSwap(nil, e) {
		return e
	}
	return h.ex.Load()
}

// ObserveExemplar records one observation and offers it as the
// histogram's exemplar under the given cell ID (the harness observing
// trial latency). An empty cell records the observation only: an
// exemplar that links nowhere must not shadow one that does. Nil-safe
// and free on a nil handle.
func (h *Histogram) ObserveExemplar(v float64, cell string) {
	if h == nil {
		return
	}
	h.observe(v)
	if cell != "" {
		h.exemplar().offer(v, cell)
	}
}

// Exemplar returns the histogram's current exemplar (nil when none, or
// on a nil handle).
func (h *Histogram) Exemplar() *Exemplar {
	if h == nil {
		return nil
	}
	e := h.ex.Load()
	if e == nil {
		return nil
	}
	return e.snapshot()
}
