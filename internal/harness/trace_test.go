package harness

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/teletrace"
)

func traceTestRunner(t *testing.T, cfg Config, store *teletrace.Store) *Runner {
	t.Helper()
	cfg.Tracer = teletrace.New(teletrace.Config{Service: "test", Store: store, Seed: 99})
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTracedSweepSpansAndTraceID(t *testing.T) {
	store := teletrace.NewStore(0)
	reg := telemetry.NewRegistry()
	journal := filepath.Join(t.TempDir(), "j.jsonl")
	r := traceTestRunner(t, Config{Workers: 1, Metrics: reg, JournalPath: journal}, store)

	rep, err := r.Sweep("fig", []Cell{{ID: "a", Seed: 7, Run: func(tr *Trial) (any, error) {
		if tr.Span == nil {
			t.Error("traced trial has no span")
		}
		tr.Span.Event("measure", "one round")
		return 1.0, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	o := rep.Outcomes[0]
	if o.TraceID == "" || len(o.TraceID) != 16 {
		t.Fatalf("outcome trace ID = %q, want 16 hex digits", o.TraceID)
	}

	// The journal record carries the trace ID and round-trips it.
	recs, _, err := ReadRecords(journal)
	if err != nil {
		t.Fatal(err)
	}
	rec := recs["fig/a"]
	if rec.TraceID != o.TraceID {
		t.Fatalf("journal trace ID %q != outcome %q", rec.TraceID, o.TraceID)
	}
	if back := rec.Outcome(0); back.TraceID != o.TraceID {
		t.Fatalf("resumed outcome lost the trace ID: %q", back.TraceID)
	}

	// Cell span + attempt span, causally linked, with the cell's event.
	tid, err := teletrace.ParseTraceID(o.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	var spans []teletrace.SpanData
	for _, d := range store.Spans() {
		if d.Trace == tid {
			spans = append(spans, d)
		}
	}
	if len(spans) != 2 {
		t.Fatalf("stored %d spans, want cell+attempt", len(spans))
	}
	var cell, attempt teletrace.SpanData
	for _, d := range spans {
		switch d.Name {
		case "harness/cell":
			cell = d
		case "harness/attempt":
			attempt = d
		}
	}
	if cell.ID == 0 || attempt.Parent != cell.ID {
		t.Fatalf("attempt not a child of cell: %+v / %+v", cell, attempt)
	}
	// Cells are always trace roots; every attempt hangs off its cell.
	cellTrace := map[teletrace.SpanID]teletrace.TraceID{}
	for _, d := range store.Spans() {
		if d.Name == "harness/cell" {
			if d.Parent != 0 {
				t.Fatalf("cell span has parent %v, want root", d.Parent)
			}
			cellTrace[d.ID] = d.Trace
		}
	}
	for _, d := range store.Spans() {
		if tid, ok := cellTrace[d.Parent]; d.Name == "harness/attempt" && (!ok || tid != d.Trace) {
			t.Fatalf("attempt span parent %v is not its cell span", d.Parent)
		}
	}
	if cell.Attrs["cell"] != "fig/a" {
		t.Fatalf("cell attrs: %+v", cell.Attrs)
	}
	if len(attempt.Events) != 1 || attempt.Events[0].Name != "measure" {
		t.Fatalf("trial events lost: %+v", attempt.Events)
	}

	// The campaign registry's trial-latency histogram links its worst
	// observation back to this trace.
	ex := reg.Snapshot().Histograms["harness_trial_latency_ms"].Exemplar
	if ex == nil || ex.TraceID != o.TraceID {
		t.Fatalf("trial-latency exemplar = %+v, want trace %s", ex, o.TraceID)
	}
}

func TestTracedRetrySpans(t *testing.T) {
	store := teletrace.NewStore(0)
	r := traceTestRunner(t, Config{Workers: 1, MaxAttempts: 3, BackoffBase: 1, BackoffMax: 1}, store)
	calls := 0
	rep, err := r.Sweep("fig", []Cell{{ID: "flaky", Seed: 1, Run: func(tr *Trial) (any, error) {
		calls++
		if calls < 3 {
			return nil, Transient(errors.New("blip"))
		}
		return "ok", nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Outcomes[0].OK() || rep.Outcomes[0].Attempts != 3 {
		t.Fatalf("outcome: %+v", rep.Outcomes[0])
	}
	spans := store.Spans()
	if len(spans) != 4 { // cell + 3 attempts
		t.Fatalf("stored %d spans, want 4", len(spans))
	}
	var retryEvents, backoffEvents, failedAttempts int
	for _, d := range spans {
		for _, ev := range d.Events {
			switch ev.Name {
			case "retry-seed":
				retryEvents++
				if !strings.Contains(ev.Detail, "perturbed") {
					t.Fatalf("retry event detail: %q", ev.Detail)
				}
			case "backoff":
				backoffEvents++
			}
		}
		if d.Name == "harness/attempt" && d.Error != "" {
			failedAttempts++
		}
	}
	if retryEvents != 2 || backoffEvents != 2 || failedAttempts != 2 {
		t.Fatalf("retry=%d backoff=%d failed=%d, want 2/2/2", retryEvents, backoffEvents, failedAttempts)
	}
}

func TestUntracedSweepHasNoTraceID(t *testing.T) {
	r, err := New(Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r.Sweep("fig", []Cell{{ID: "a", Seed: 1, Run: func(tr *Trial) (any, error) {
		if tr.Span != nil {
			t.Error("untraced trial got a span")
		}
		return 1, nil
	}}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Outcomes[0].TraceID != "" {
		t.Fatalf("untraced outcome has trace ID %q", rep.Outcomes[0].TraceID)
	}
}
