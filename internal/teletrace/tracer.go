package teletrace

import (
	"sync/atomic"
	"time"
)

// Config parameterizes a Tracer. The zero value is usable: anonymous
// service, no store (spans evaporate on End), entropy-seeded IDs.
type Config struct {
	// Service names the process in rendered trees (e.g. "figures").
	Service string
	// Store receives finished spans; nil discards them.
	Store *Store
	// Seed fixes the ID stream for deterministic tests. 0 derives a
	// seed from the service name and the clock.
	Seed uint64
}

// Tracer mints spans for one service. A nil *Tracer is a valid, free
// no-op: every Start returns a nil (no-op) span. Safe for concurrent
// use.
type Tracer struct {
	service string
	store   *Store
	now     func() int64 // nanosecond clock; tests swap in a fake
	state   atomic.Uint64
}

// New builds a tracer from cfg.
func New(cfg Config) *Tracer {
	t := &Tracer{service: cfg.Service, store: cfg.Store,
		now: func() int64 { return time.Now().UnixNano() }} //simlint:wallclock span timestamps are genuine wall time
	seed := cfg.Seed
	if seed == 0 {
		seed = uint64(time.Now().UnixNano()) //simlint:wallclock trace-ID entropy, never in results
		for _, b := range []byte(cfg.Service) {
			seed = seed*1099511628211 + uint64(b)
		}
	}
	t.state.Store(seed)
	return t
}

// StartRoot starts a new trace with a root span named name.
func (t *Tracer) StartRoot(name string) *Span {
	if t == nil {
		return nil
	}
	return t.start(name, TraceID(t.nextID()), 0)
}

func (t *Tracer) start(name string, trace TraceID, parent SpanID) *Span {
	return &Span{
		tr: t,
		data: SpanData{
			Trace:   trace,
			ID:      SpanID(t.nextID()),
			Parent:  parent,
			Name:    name,
			Service: t.service,
			StartNS: t.nowNS(),
		},
	}
}

// nextID draws the next span/trace ID: a splitmix64 walk from the
// seed, so IDs are deterministic under a fixed Config.Seed and never
// zero (0 is the "no ID" sentinel).
func (t *Tracer) nextID() uint64 {
	for {
		z := t.state.Add(0x9e3779b97f4a7c15)
		z ^= z >> 30
		z *= 0xbf58476d1ce4e5b9
		z ^= z >> 27
		z *= 0x94d049bb133111eb
		z ^= z >> 31
		if z != 0 {
			return z
		}
	}
}

// nowNS reads the tracer's clock (0 on nil, for nil-span paths).
func (t *Tracer) nowNS() int64 {
	if t == nil {
		return 0
	}
	return t.now()
}

// record hands a finished span to the store.
func (t *Tracer) record(d SpanData) {
	if t == nil {
		return
	}
	t.store.add(d)
}
