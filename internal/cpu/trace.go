package cpu

import (
	"encoding/json"

	"repro/internal/isa"
)

// Kind is a pipeline event kind. It is a defined string type so filter
// sets and switch statements work against the exported constants below
// instead of raw literals — a typo'd kind is a compile-time unknown
// identifier, not a filter that silently matches nothing.
type Kind string

// The pipeline event kinds emitted by the core, in rough pipeline
// order.
const (
	KindFetch   Kind = "fetch"
	KindIssue   Kind = "issue"
	KindResolve Kind = "resolve"
	KindRetire  Kind = "retire"
	KindSquash  Kind = "squash"
	KindCleanup Kind = "cleanup"
)

// Kinds returns every event kind the core emits, in pipeline order —
// the canonical list for filters and renderers.
func Kinds() []Kind {
	return []Kind{KindFetch, KindIssue, KindResolve, KindRetire, KindSquash, KindCleanup}
}

// TraceEvent is one pipeline event.
type TraceEvent struct {
	Cycle uint64
	Kind  Kind
	Seq   uint64
	PC    int
	Inst  isa.Inst
	// Detail carries kind-specific extra information: stall length for
	// cleanup events, squashed-count for squash events, latency for
	// issue events, mispredict flag (0/1) for resolve events.
	Detail int64
}

// traceEventJSON is the on-disk form: the instruction is rendered as
// its assembly string so post-mortems and flight-recorder dumps stay
// human-readable.
type traceEventJSON struct {
	Cycle  uint64 `json:"cycle"`
	Kind   Kind   `json:"kind"`
	Seq    uint64 `json:"seq"`
	PC     int    `json:"pc"`
	Inst   string `json:"inst"`
	Detail int64  `json:"detail,omitempty"`
}

// MarshalJSON renders the event with a disassembled instruction.
func (ev TraceEvent) MarshalJSON() ([]byte, error) {
	return json.Marshal(traceEventJSON{
		Cycle: ev.Cycle, Kind: ev.Kind, Seq: ev.Seq, PC: ev.PC,
		Inst: ev.Inst.String(), Detail: ev.Detail,
	})
}

// UnmarshalJSON decodes the on-disk form. The instruction text is not
// re-parsed into an isa.Inst (flight-recorder consumers only display
// it); the zero Inst is left in place.
func (ev *TraceEvent) UnmarshalJSON(data []byte) error {
	var j traceEventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*ev = TraceEvent{Cycle: j.Cycle, Kind: j.Kind, Seq: j.Seq, PC: j.PC, Detail: j.Detail}
	return nil
}

// Tracer receives pipeline events. Implementations live in package
// trace; a nil tracer costs one branch per event site.
type Tracer interface {
	Event(ev TraceEvent)
}

// SetTracer attaches (or detaches, with nil) a pipeline tracer.
func (c *CPU) SetTracer(t Tracer) { c.tracer = t }

// Tracer returns the attached pipeline tracer (nil when detached).
func (c *CPU) Tracer() Tracer { return c.tracer }

// FlightRecorder is a tiny always-on ring of the most recent pipeline
// events. Unlike a full trace.Buffer it is owned by the core itself, so
// a post-mortem snapshot (panic, watchdog, deadline) carries the last N
// events of the doomed run without anyone having attached a tracer.
// Recording is a ring-slot store per event — cheap enough to leave on
// for every harness trial.
type FlightRecorder struct {
	buf     []TraceEvent
	head    int // next write position
	wrapped bool
	dropped uint64
}

// DefaultFlightEvents is the ring capacity harness trials enable.
const DefaultFlightEvents = 64

// NewFlightRecorder returns a recorder retaining the last n events
// (n <= 0 selects DefaultFlightEvents).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = DefaultFlightEvents
	}
	return &FlightRecorder{buf: make([]TraceEvent, n)}
}

// Record stores one event, overwriting the oldest once full.
func (f *FlightRecorder) Record(ev TraceEvent) {
	*f.slot() = ev
}

// slot advances the ring and returns the claimed slot for an in-place
// write — the emit hot path fills fields directly instead of copying a
// 72-byte event twice.
func (f *FlightRecorder) slot() *TraceEvent {
	if f.wrapped {
		f.dropped++
	}
	s := &f.buf[f.head]
	f.head++
	if f.head == len(f.buf) {
		f.head = 0
		f.wrapped = true
	}
	return s
}

// Event implements Tracer, so a FlightRecorder can also serve as a
// plain bounded tracer.
func (f *FlightRecorder) Event(ev TraceEvent) { f.Record(ev) }

// Events returns the retained events, oldest first.
func (f *FlightRecorder) Events() []TraceEvent {
	if !f.wrapped {
		out := make([]TraceEvent, f.head)
		copy(out, f.buf[:f.head])
		return out
	}
	out := make([]TraceEvent, 0, len(f.buf))
	out = append(out, f.buf[f.head:]...)
	out = append(out, f.buf[:f.head]...)
	return out
}

// Dropped returns how many events were overwritten.
func (f *FlightRecorder) Dropped() uint64 { return f.dropped }

// EnableFlightRecorder attaches an always-on bounded event ring to the
// core (n <= 0 selects DefaultFlightEvents). Idempotent: an existing
// recorder is kept, so re-observing a core in a multi-phase trial does
// not erase earlier events. The harness enables this on every observed
// core so post-mortems arrive with their final pipeline events.
func (c *CPU) EnableFlightRecorder(n int) *FlightRecorder {
	if c.flight == nil {
		c.flight = NewFlightRecorder(n)
	}
	return c.flight
}

// FlightRecorder returns the attached ring, or nil.
func (c *CPU) FlightRecorder() *FlightRecorder { return c.flight }

// emit records one pipeline event for arena entry p (p < 0 means no
// instruction is associated with the event).
func (c *CPU) emit(kind Kind, p int, detail int64) {
	if c.tracer == nil {
		if c.flight == nil {
			return
		}
		// Flight-only path — the steady state for every harness trial.
		// Fill the ring slot in place rather than building an event and
		// copying it in.
		s := c.flight.slot()
		s.Cycle, s.Kind, s.Detail = c.cycle, kind, detail
		if p >= 0 {
			s.Seq, s.PC, s.Inst = c.ar.seq[p], c.ar.idx[p], c.ar.inst[p]
		} else {
			s.Seq, s.PC, s.Inst = 0, 0, isa.Inst{}
		}
		return
	}
	ev := TraceEvent{Cycle: c.cycle, Kind: kind, Detail: detail}
	if p >= 0 {
		ev.Seq = c.ar.seq[p]
		ev.PC = c.ar.idx[p]
		ev.Inst = c.ar.inst[p]
	}
	if c.flight != nil {
		c.flight.Record(ev)
	}
	c.tracer.Event(ev)
}
