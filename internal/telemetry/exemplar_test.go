package telemetry

import (
	"strings"
	"testing"
)

func TestObserveExemplarExplicit(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("harness_trial_latency_ms", "lat", LatencyBuckets())
	h.ObserveExemplar(100, "fig/b")
	h.ObserveExemplar(250, "fig/c")
	h.ObserveExemplar(50, "fig/d")
	h.ObserveExemplar(900, "") // no cell: counted, never the exemplar
	ex := h.Exemplar()
	if ex == nil || ex.Value != 250 || ex.Cell != "fig/c" {
		t.Fatalf("exemplar = %+v, want the worst named cell (250/fig/c)", ex)
	}
	if got := r.Snapshot().Histograms["harness_trial_latency_ms"].Count; got != 4 {
		t.Fatalf("ObserveExemplar must still count observations: %d", got)
	}
	// Nil-safety.
	var hn *Histogram
	hn.ObserveExemplar(1, "x")
	if hn.Exemplar() != nil {
		t.Fatal("nil handle exemplar must be nil")
	}
	// A plain Observe never creates an exemplar.
	h2 := r.Histogram("undo_rollback_stall_cycles", "stall", StallBuckets())
	h2.Observe(69)
	if h2.Exemplar() != nil {
		t.Fatal("plain Observe produced an exemplar")
	}
}

func TestExemplarSnapshotAbsorbAndDiff(t *testing.T) {
	trial1 := NewRegistry()
	trial1.Histogram("undo_rollback_stall_cycles", "stall", StallBuckets()).ObserveExemplar(69, "fig/1")

	trial2 := NewRegistry()
	trial2.Histogram("undo_rollback_stall_cycles", "stall", StallBuckets()).ObserveExemplar(83, "fig/2")

	campaign := NewRegistry()
	campaign.Absorb(trial1.Snapshot())
	campaign.Absorb(trial2.Snapshot())
	ex := campaign.Snapshot().Histograms["undo_rollback_stall_cycles"].Exemplar
	if ex == nil || ex.Value != 83 || ex.Cell != "fig/2" {
		t.Fatalf("rollup exemplar = %+v, want worst trial (83/fig/2)", ex)
	}
	// Absorbing the smaller trial again must not displace the worst.
	campaign.Absorb(trial1.Snapshot())
	if ex := campaign.Snapshot().Histograms["undo_rollback_stall_cycles"].Exemplar; ex.Value != 83 {
		t.Fatalf("re-absorb displaced the worst: %+v", ex)
	}
	// Diff carries the exemplar through (worst-so-far is a level).
	d := campaign.Snapshot().Diff(trial1.Snapshot())
	if ex := d.Histograms["undo_rollback_stall_cycles"].Exemplar; ex == nil || ex.Value != 83 {
		t.Fatalf("diff exemplar = %+v", ex)
	}
}

func TestExemplarPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Histogram("harness_trial_latency_ms", "trial latency", []float64{10, 100, 1000}).
		ObserveExemplar(250, "fig/c")
	r.Counter("harness_attempts_total", "attempts").Inc()
	var b strings.Builder
	if err := WritePrometheus(&b, r.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "# EXEMPLAR harness_trial_latency_ms cell=fig/c value=250\n"
	if !strings.Contains(out, want) {
		t.Fatalf("missing exemplar line %q in:\n%s", want, out)
	}
	// Counters never get exemplar lines.
	if strings.Contains(out, "# EXEMPLAR harness_attempts_total") {
		t.Fatalf("counter grew an exemplar:\n%s", out)
	}
}
