package main

import (
	"math"
	"os"
	"reflect"
	"strings"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

func TestParseTopFixture(t *testing.T) {
	f, err := os.Open("testdata/pprof_top.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := parseTop(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 72 {
		t.Fatalf("parsed %d rows, want 72", len(rows))
	}
	byFn := map[string]profileRow{}
	for _, r := range rows {
		byFn[r.fn] = r
	}
	near := func(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
	issue := byFn["repro/internal/cpu.(*CPU).issue"]
	if !near(issue.flat, 0.2651) || !near(issue.cum, 0.4631) {
		t.Errorf("issue row = %+v, want flat 0.2651 cum 0.4631", issue)
	}
	// Inlined functions lose their " (inline)" mark; 100% parses.
	if r, ok := byFn["repro/internal/cpu.(*Arena).is"]; !ok || !near(r.flat, 0.0369) {
		t.Errorf("inlined row = %+v (found %v), want flat 0.0369", r, ok)
	}
	if r := byFn["runtime.main"]; !near(r.cum, 1) {
		t.Errorf("runtime.main cum = %g, want 1", r.cum)
	}

	m := profileMetrics(rows)
	for _, name := range []string{"prof.cpu_frac", "stage.issue_frac", "stage.wakeup_frac", "prof.fuzz_frac"} {
		if _, ok := m[name]; !ok {
			t.Errorf("profileMetrics lacks %s", name)
		}
	}
	if !near(m["stage.issue_frac"], 0.4631) || !near(m["stage.fetch_frac"], 0.1174) {
		t.Errorf("stage fractions issue %g fetch %g, want 0.4631 0.1174", m["stage.issue_frac"], m["stage.fetch_frac"])
	}
	var flat float64
	for _, r := range rows {
		flat += r.flat
	}
	if flat < 0.99 || flat > 1.01 {
		t.Errorf("flat shares sum to %g, want 1", flat)
	}
	if m["prof.cpu_frac"] < 0.5 || m["prof.cpu_frac"] > 1 {
		t.Errorf("prof.cpu_frac = %g, want the bulk of the profile", m["prof.cpu_frac"])
	}
}

func TestParseTopRejectsGarbage(t *testing.T) {
	if _, err := parseTop(strings.NewReader("go tool pprof: no such file\n")); err == nil {
		t.Error("no table: want an error")
	}
}

func TestFuncPackage(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cpu.(*CPU).issue":      "repro/internal/cpu",
		"repro/internal/mem.(*Memory).Fork":    "repro/internal/mem",
		"repro/internal/memsys.New":            "repro/internal/memsys",
		"runtime.mallocgc":                     "runtime",
		"sync/atomic.(*Uint64).CompareAndSwap": "sync/atomic",
		"main.measure.func1":                   "main",
	} {
		if got := funcPackage(fn); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

// The timed wrapper must be invisible to the machine: an attack whose
// scheme is wrapped checkpoints, restores and measures bit-identically to
// one with the bare scheme, and its telemetry binding reaches the
// wrapped scheme.
func TestTimedSchemeIsTransparent(t *testing.T) {
	type result struct {
		lats            []uint64
		stats, restored undo.Stats
		squashes        uint64
	}
	run := func(wrap bool) (result, *squashTimer) {
		timer := &squashTimer{on: true}
		var scheme undo.Scheme = undo.NewCleanupSpec()
		if wrap {
			scheme = &timedScheme{Scheme: scheme, t: timer}
		}
		a, err := unxpec.New(unxpec.Options{Seed: 5, UseEvictionSets: true, Scheme: scheme})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		a.SetMetrics(reg)
		var res result
		measure := func(n int) {
			for k := 0; k < n; k++ {
				lat, err := a.MeasureOnceChecked(k & 1)
				if err != nil {
					t.Fatal(err)
				}
				res.lats = append(res.lats, lat)
			}
		}
		measure(4)
		cp, err := a.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		defer cp.Release()
		measure(6)
		res.stats = a.Core().Scheme().Stats()
		if err := a.Restore(cp); err != nil {
			t.Fatal(err)
		}
		res.restored = a.Core().Scheme().Stats()
		measure(6)
		res.squashes = reg.Snapshot().Counters["undo_squashes_total"]
		return res, timer
	}
	bare, _ := run(false)
	wrapped, timer := run(true)
	if !reflect.DeepEqual(bare, wrapped) {
		t.Fatalf("wrapped scheme diverged from bare:\n bare    %+v\n wrapped %+v", bare, wrapped)
	}
	if !reflect.DeepEqual(wrapped.lats[4:10], wrapped.lats[10:]) {
		t.Errorf("rounds after Restore %v differ from rounds after Checkpoint %v", wrapped.lats[10:], wrapped.lats[4:10])
	}
	if wrapped.restored.Squashes >= wrapped.stats.Squashes {
		t.Errorf("Restore did not rewind the scheme's statistics: %d squashes before, %d after",
			wrapped.stats.Squashes, wrapped.restored.Squashes)
	}
	if wrapped.squashes == 0 {
		t.Error("SetMetrics did not reach the wrapped scheme: undo_squashes_total is 0")
	}
	if timer.calls != 16 || timer.ns <= 0 {
		t.Errorf("timer saw %d calls in %v, want 16 calls", timer.calls, timer.ns)
	}
}
