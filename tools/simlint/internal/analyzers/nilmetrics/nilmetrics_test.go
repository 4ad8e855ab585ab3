package nilmetrics

import (
	"testing"

	"repro/tools/simlint/internal/analysistest"
)

func TestBadFixtureFires(t *testing.T) {
	analysistest.Run(t, analysistest.DefaultModule(), Analyzer, "fixtures/nilmetricsbad/telemetry")
}

func TestCleanFixtureSilent(t *testing.T) {
	analysistest.Run(t, analysistest.DefaultModule(), Analyzer, "fixtures/nilmetricsgood/telemetry")
}

func TestScope(t *testing.T) {
	for path, want := range map[string]bool{
		"repro/internal/telemetry":         true,
		"fixtures/nilmetricsbad/telemetry": true,
		"telemetry":                        true,
		"repro/internal/cpu":               false,
		"repro/internal/telemetrical":      false,
	} {
		if got := inScope(path); got != want {
			t.Errorf("inScope(%q) = %v, want %v", path, got, want)
		}
	}
}
