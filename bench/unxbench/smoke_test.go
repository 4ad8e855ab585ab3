package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/harness"
)

// raceEnabled is set by race_test.go under -race, where the smoke run's
// time limit does not apply.
var raceEnabled bool

// Every workload runs end to end at tiny sizes, passes its output checks
// and reports every end-to-end metric.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	for _, wl := range workloads {
		rec, err := runOne(options{workload: wl.name, seed: 7, seconds: 0.05, quick: true})
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		if !rec.Correct || rec.Failed != 0 || rec.Attempted < 1 {
			t.Errorf("%s: correct %v, %d of %d failed, errors %v", wl.name, rec.Correct, rec.Failed, rec.Attempted, rec.Errors)
		}
		if rec.SimDigest == "" || len(rec.SimCounts) == 0 {
			t.Errorf("%s: no simulated digest or counts", wl.name)
		}
		for _, def := range endToEnd {
			v, ok := rec.Metrics[def.name]
			if !ok || v.Unit != def.unit || v.Value <= 0 {
				t.Errorf("%s: %s = %+v (reported %v), want a positive value in %s", wl.name, def.name, v, ok, def.unit)
			}
		}
	}
	if d := time.Since(start); d > 5*time.Second && !raceEnabled {
		t.Errorf("quick smoke of all workloads took %v, want under 5s", d)
	}
}

// When every regeneration fails, each op and the run-level check count
// as failed instead of crashing the run.
func TestRegenFailuresAreCounted(t *testing.T) {
	r, err := harness.New(harness.Config{
		BackoffBase: time.Microsecond,
		Injections:  []harness.Injection{{Kind: harness.InjectPanic, Pattern: "figure2/n1-l1-s0", Attempts: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	g := &paperRegen{p: params{seed: 7, quick: true}, eng: engine.New(engine.Config{Workers: 1}),
		runner: r, sizes: smallSizes, sections: map[string]time.Duration{}}
	ph := measure(g, 1, 0, 0, 2)
	if ph.ops != 2 || ph.failed != 2 || ph.firstErr == nil {
		t.Errorf("%d of %d ops failed (first error %v), want 2 of 2", ph.failed, ph.ops, ph.firstErr)
	}
	v, err := g.verify(ph.ops)
	if err == nil || v.failed != 1 {
		t.Errorf("verify after no successful regeneration = %+v, %v; want one failed check", v, err)
	}
}

// The same seed gives the same simulated outputs, run after run.
func TestQuickDigestRepeats(t *testing.T) {
	o := options{workload: "fork-trials", seed: 11, seconds: 0.01, quick: true}
	a, err := runOne(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runOne(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.SimDigest != b.SimDigest {
		t.Errorf("sim_digest %s then %s for the same seed", a.SimDigest, b.SimDigest)
	}
}

// A traced run reports every per-layer metric and nothing else.
func TestQuickTraced(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("the traced run summarises its profile with `go tool pprof`")
	}
	rec, err := runOne(options{workload: "leak-channel", seed: 7, seconds: 0.2, quick: true, trace: true,
		out: filepath.Join(t.TempDir(), "leak.json")})
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Correct {
		t.Fatalf("traced run incorrect: %v", rec.Errors)
	}
	if len(rec.Metrics) != len(perLayer) {
		t.Errorf("traced run reported %d metrics, want the %d per-layer ones", len(rec.Metrics), len(perLayer))
	}
	for _, def := range perLayer {
		if v, ok := rec.Metrics[def.name]; !ok || v.Unit != def.unit {
			t.Errorf("%s missing or in the wrong unit: %+v", def.name, v)
		}
	}
	for _, name := range []string{"cpu.sim_cycles_per_op", "undo.onsquash_calls_per_op", "unxpec.calibrate_ms", "prof.cpu_frac"} {
		if rec.Metrics[name].Value <= 0 {
			t.Errorf("%s = %g on leak-channel, want > 0", name, rec.Metrics[name].Value)
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"--workload", "fuzz-sweep", "--seed", "9", "--seconds", "10", "--trace", "1"})
	if err != nil || o.workload != "fuzz-sweep" || o.seed != 9 || o.seconds != 10 || !o.trace {
		t.Errorf("parseFlags = %+v, %v", o, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "leak-channel", "--trace", "2"},
		{"--workload", "leak-channel", "--seconds", "0"},
		{"--workload", "leak-channel", "extra"},
	} {
		if _, err := parseFlags(bad); err == nil {
			t.Errorf("parseFlags(%q): want an error", bad)
		}
	}
}
