// Package teletrace is the repository's zero-dependency in-process
// tracing layer, the causal sibling of internal/telemetry's metrics:
// spans with IDs, parent links, attributes, span events and monotonic
// timestamps, a bounded Store that collects finished spans, and a
// text-tree renderer. cmd/figures -trace-out dumps the store as JSON;
// cmd/trace -spans renders it back as causal trees.
//
// The design premise matches telemetry's: tracing must be free when
// nobody is looking. A nil *Tracer starts nil *Spans, and every Span,
// Tracer and Store method no-ops on a nil receiver — so an
// instrumented hot path (a fast-forward jump, a watchdog trip) costs
// exactly one predictable branch when tracing is disabled. Span names
// follow the `<layer>/<verb>` convention documented in
// docs/OBSERVABILITY.md (e.g. harness/cell, harness/attempt); event
// names are bare kebab-case verbs (retry-seed, fast-forward,
// snapshot-restore).
package teletrace

import (
	"fmt"
	"strconv"
	"strings"
)

// TraceID identifies one trace (one harness cell's whole journey).
// Rendered as 16 hex digits everywhere a human or a journal sees it.
type TraceID uint64

// SpanID identifies one span within a trace.
type SpanID uint64

// String renders the ID as 16 lowercase hex digits (zero-padded).
func (id TraceID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// String renders the ID as 16 lowercase hex digits (zero-padded).
func (id SpanID) String() string { return fmt.Sprintf("%016x", uint64(id)) }

// ParseTraceID parses the 16-hex-digit form produced by String.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("teletrace: parsing trace ID %q: %w", s, err)
	}
	return TraceID(v), nil
}

// MarshalJSON encodes the ID as a hex string so journal records and
// span exports stay greppable by the rendered form.
func (id TraceID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON decodes the hex-string form (and tolerates a bare
// number for forward compatibility).
func (id *TraceID) UnmarshalJSON(b []byte) error {
	v, err := unmarshalHexID(b)
	*id = TraceID(v)
	return err
}

// MarshalJSON encodes the ID as a hex string.
func (id SpanID) MarshalJSON() ([]byte, error) { return []byte(`"` + id.String() + `"`), nil }

// UnmarshalJSON decodes the hex-string form.
func (id *SpanID) UnmarshalJSON(b []byte) error {
	v, err := unmarshalHexID(b)
	*id = SpanID(v)
	return err
}

func unmarshalHexID(b []byte) (uint64, error) {
	s := strings.Trim(string(b), `"`)
	if s == "" || s == "null" {
		return 0, nil
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("teletrace: decoding ID %q: %w", s, err)
	}
	return v, nil
}
