package teletrace

import "sync"

// defaultStoreCap bounds a Store built with a non-positive capacity.
const defaultStoreCap = 8192

// Store holds finished spans in insertion order, bounded FIFO: once
// full, the oldest span is evicted first. A nil *Store is a valid,
// free no-op sink. Safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	cap   int
	spans []SpanData
}

// NewStore builds a store holding at most cap spans (<=0 means 8192).
func NewStore(cap int) *Store {
	if cap <= 0 {
		cap = defaultStoreCap
	}
	return &Store{cap: cap}
}

// add appends one finished span, evicting the oldest when full. Spans
// without a trace or span ID are discarded — they can never be found
// again. Span.End is idempotent, so each span arrives exactly once.
func (st *Store) add(d SpanData) {
	if st == nil || d.Trace == 0 || d.ID == 0 {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if len(st.spans) >= st.cap {
		st.spans = st.spans[len(st.spans)-st.cap+1:]
	}
	st.spans = append(st.spans, d)
}

// Spans returns every stored span in insertion order.
func (st *Store) Spans() []SpanData {
	if st == nil {
		return nil
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]SpanData(nil), st.spans...)
}
