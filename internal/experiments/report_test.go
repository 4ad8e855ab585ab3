package experiments

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// TestReproductionReportAllBandsPass runs the full-size report that
// cmd/report prints, at the default seed and at seed 11, whose fig8
// reading sits closest to its floor among seeds 1–20.
func TestReproductionReportAllBandsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("full report is slow")
	}
	for _, seed := range []int64{42, 11} {
		bands, err := ReproductionReportWith(newRunner(t), seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(bands) != 15 {
			t.Fatalf("seed %d: band count %d", seed, len(bands))
		}
		for _, b := range bands {
			if !b.Pass() {
				t.Errorf("seed %d: %s: measured %.2f %s outside [%.2f, %.2f] (paper %s)",
					seed, b.ID, b.Measured, b.Unit, b.Lo, b.Hi, b.Paper)
			}
		}
	}
}

// reportWithInjection runs the report on a runner whose cells matching
// pattern panic on every attempt, so retries cannot rescue them.
func reportWithInjection(t *testing.T, pattern string) ([]Band, error) {
	t.Helper()
	r, err := harness.New(harness.Config{
		MaxAttempts: 2,
		Injections:  []harness.Injection{{Kind: harness.InjectPanic, Pattern: pattern, Attempts: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ReproductionReportWith(r, 42)
}

// TestReproductionReportRefusesFailedFigure12 fails every CleanupSpec
// baseline cell of Figure 12. The no-const mean then has no samples;
// scoring it would read 0.000% and pass fig12a. The report must return
// an error naming the sweep and each failed cell with its class.
func TestReproductionReportRefusesFailedFigure12(t *testing.T) {
	if testing.Short() {
		t.Skip("runs most of the full report")
	}
	bands, err := reportWithInjection(t, "figure12/*/no-const")
	if err == nil {
		t.Fatalf("report scored %d bands on a sweep with failed cells", len(bands))
	}
	if bands != nil {
		t.Errorf("report returned %d bands alongside its error", len(bands))
	}
	msg := err.Error()
	if !strings.Contains(msg, "sweep figure12") {
		t.Errorf("error does not name the figure12 sweep: %v", err)
	}
	if n := strings.Count(msg, "/no-const (panic)"); n != 8 {
		t.Errorf("error names %d failed no-const cells with their class, want 8: %v", n, err)
	}
}

// TestReproductionReportRefusesFailedFigure3 fails the 8-load cell of
// Figure 3, whose value fig3b reads by index: the report must return an
// error instead of indexing past the partial slice.
func TestReproductionReportRefusesFailedFigure3(t *testing.T) {
	_, err := reportWithInjection(t, "figure3/l8")
	if err == nil || !strings.Contains(err.Error(), "figure3/l8 (panic)") {
		t.Fatalf("err = %v, want the failed figure3/l8 cell named with its class", err)
	}
}

func TestRenderReportCountsFailures(t *testing.T) {
	bands := []Band{
		{ID: "ok", Measured: 5, Lo: 0, Hi: 10},
		{ID: "bad", Measured: 50, Lo: 0, Hi: 10},
	}
	var sb strings.Builder
	if got := RenderReport(&sb, bands); got != 1 {
		t.Fatalf("failures %d, want 1", got)
	}
	out := sb.String()
	if !strings.Contains(out, "PASS") || !strings.Contains(out, "FAIL") {
		t.Fatalf("report output:\n%s", out)
	}
}

func TestBandPassBoundaries(t *testing.T) {
	b := Band{Measured: 10, Lo: 10, Hi: 20}
	if !b.Pass() {
		t.Fatal("inclusive lower bound")
	}
	b.Measured = 20
	if !b.Pass() {
		t.Fatal("inclusive upper bound")
	}
	b.Measured = 20.01
	if b.Pass() {
		t.Fatal("above band")
	}
}
