package teletrace

import (
	"fmt"
	"sort"
	"sync"
)

// maxEvents bounds the events one span may carry; load-bearing moments
// are sparse, and a runaway emitter (a fast-forward storm) must not
// grow a span without bound. Excess events are counted, not stored.
const maxEvents = 64

// Event is one timestamped moment inside a span: a retry seed
// perturbation, a backoff, a snapshot restore, a fast-forward jump.
type Event struct {
	Name   string `json:"name"`
	Detail string `json:"detail,omitempty"`
	AtNS   int64  `json:"at_ns"`
}

// SpanData is the exported, storage form of one span. It is plain
// data: what the Store holds, what cmd/figures -trace-out writes as
// JSON, and what WriteTree renders.
type SpanData struct {
	Trace   TraceID           `json:"trace"`
	ID      SpanID            `json:"id"`
	Parent  SpanID            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Service string            `json:"service,omitempty"`
	StartNS int64             `json:"start_ns"`
	EndNS   int64             `json:"end_ns,omitempty"`
	Error   string            `json:"error,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	Events  []Event           `json:"events,omitempty"`
	// DroppedEvents counts events beyond the per-span bound.
	DroppedEvents int `json:"dropped_events,omitempty"`
}

// durationNS is the span's wall-clock extent (0 while unfinished).
func (d SpanData) durationNS() int64 {
	if d.EndNS == 0 || d.EndNS < d.StartNS {
		return 0
	}
	return d.EndNS - d.StartNS
}

// Span is a live, in-progress span handle. A nil *Span is a valid,
// free no-op — the "tracing disabled" fast path costs the nil check
// and nothing else. Methods are safe for concurrent use (a simulator
// goroutine may add events while the harness stamps attributes).
type Span struct {
	tr *Tracer

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// TraceID returns the trace this span belongs to (0 on nil).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return 0
	}
	return s.data.Trace
}

// SetAttr records a key=value attribute (last write wins).
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]string{}
	}
	s.data.Attrs[key] = value
}

// Event records a timestamped moment. Beyond the per-span bound the
// event is dropped and counted.
func (s *Span) Event(name, detail string) {
	if s == nil {
		return
	}
	at := s.tr.nowNS()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return
	}
	if len(s.data.Events) >= maxEvents {
		s.data.DroppedEvents++
		return
	}
	s.data.Events = append(s.data.Events, Event{Name: name, Detail: detail, AtNS: at})
}

// Eventf records a formatted event; the format work only happens on a
// live span, so callers may pass unformatted hot-path values freely.
func (s *Span) Eventf(name, format string, args ...any) {
	if s == nil {
		return
	}
	s.Event(name, fmt.Sprintf(format, args...))
}

// SetErrorString marks the span failed with a plain message.
func (s *Span) SetErrorString(msg string) {
	if s == nil || msg == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.data.Error = msg
	}
}

// StartChild starts a child span under this span via the same tracer.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.start(name, s.data.Trace, s.data.ID)
}

// End finishes the span and hands it to the tracer's store. End is
// idempotent; events and attributes after End are dropped.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := s.tr.nowNS()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.EndNS = end
	s.mu.Unlock()
	// Every mutator is a no-op once ended, so the frozen data can be
	// stored without a copy.
	s.tr.record(s.data)
}

// sortSpans orders spans for stable rendering: by start time, then
// span ID — deterministic regardless of map iteration anywhere
// upstream.
func sortSpans(spans []SpanData) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].ID < spans[j].ID
	})
}
