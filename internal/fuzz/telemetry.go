package fuzz

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/isa"
	"repro/internal/telemetry"
)

// MetricsExt is the extension of the per-witness telemetry file saved
// next to the corpus entry.
const MetricsExt = ".metrics.json"

// Telemetry replays prog once per scheme on a fully instrumented,
// rewound machine and returns one registry snapshot per scheme spec. The replay
// honours o.Wrap so an injected fault's telemetry matches the failing
// run (the wrapper itself stays unbound — only the real machine layers
// record). Intended for failing programs: the snapshot captures the
// machine-level shape of the divergence (squash counts, rollback
// stalls, residue-adjacent cache traffic) without rerunning the
// property checks.
func (g *Generator) Telemetry(prog *isa.Program, o Options) (map[string]telemetry.Snapshot, error) {
	out := make(map[string]telemetry.Snapshot, len(o.schemes()))
	r := g.newRig(o)
	for _, spec := range o.schemes() {
		scheme, err := o.newScheme(spec)
		if err != nil {
			return nil, err
		}
		reg := telemetry.NewRegistry()
		core := r.boot(scheme)
		core.SetMetrics(reg)
		core.Run(prog)
		out[spec] = reg.Snapshot()
	}
	return out, nil
}

// SaveWitnessMetrics writes the per-scheme telemetry snapshots of a
// witness as <name>.metrics.json next to its .prog file and returns
// the path. Pair it with SaveWitness so every corpus entry carries the
// machine-level profile of its failure.
func SaveWitnessMetrics(dir string, w *Witness, snaps map[string]telemetry.Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fuzz: %v", err)
	}
	name := w.Name
	if name == "" {
		name = fmt.Sprintf("seed%d", w.Seed)
	}
	path := filepath.Join(dir, name+MetricsExt)
	data, err := json.MarshalIndent(snaps, "", "  ")
	if err != nil {
		return "", fmt.Errorf("fuzz: %v", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return "", fmt.Errorf("fuzz: %v", err)
	}
	return path, nil
}

// ReplayTelemetry is the cmd/fuzz helper: best-effort Telemetry +
// SaveWitnessMetrics with panic containment, since the witness program
// is by construction one that broke the machine once already.
func ReplayTelemetry(g *Generator, dir string, w *Witness, o Options) (path string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("fuzz: telemetry replay panicked: %v", p)
		}
	}()
	snaps, err := g.Telemetry(w.Prog, o)
	if err != nil {
		return "", err
	}
	return SaveWitnessMetrics(dir, w, snaps)
}
