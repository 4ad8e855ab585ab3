package cpu

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/undo"
)

// straightLine is a short branch-free program retiring exactly n+1
// instructions (n ALU ops plus the halt).
func straightLine(n int) *isa.Program {
	b := isa.NewBuilder()
	for i := 0; i < n; i++ {
		b.AddI(1, 1, 1)
	}
	return b.Halt().MustBuild()
}

func TestRunStatsDeltaAcrossRuns(t *testing.T) {
	c := rig(t, undo.NewUnsafe())
	st1 := c.Run(straightLine(10))
	st2 := c.Run(straightLine(10))

	// Cycles and Retired are per-run deltas: the second identical run
	// must report its own work, not the cumulative total.
	if st1.Retired != 11 || st2.Retired != 11 {
		t.Fatalf("per-run retired = %d, %d; want 11, 11", st1.Retired, st2.Retired)
	}
	if st2.Cycles == 0 || st2.Cycles > st1.Cycles {
		t.Fatalf("second-run cycles %d out of range (first run %d; warm caches must not slow it down)",
			st2.Cycles, st1.Cycles)
	}
	// The core's cycle counter itself is monotonic across runs.
	if c.Cycle() < st1.Cycles+st2.Cycles {
		t.Fatalf("core cycle %d < %d+%d: runs not accumulated", c.Cycle(), st1.Cycles, st2.Cycles)
	}

	// Cumulative fields keep accumulating: after a squashing run, a
	// later clean run still reports the earlier squashes.
	cs := rig(t, undo.NewCleanupSpec())
	stSquash := mistrainThenTrap(t, cs, 0x52000, 6)
	if stSquash.Squashes == 0 {
		t.Fatal("no squash: mistraining failed")
	}
	stClean := cs.Run(straightLine(3))
	if stClean.Squashes < stSquash.Squashes {
		t.Fatalf("cumulative squashes went backwards: %d then %d", stSquash.Squashes, stClean.Squashes)
	}
	if stClean.Retired != 4 {
		t.Fatalf("clean-run retired = %d, want 4", stClean.Retired)
	}
}

func TestCoreMetricsMatchRunStats(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := rig(t, undo.NewCleanupSpec())
	c.SetMetrics(reg)
	st := mistrainThenTrap(t, c, 0x53000, 6)
	if st.Squashes == 0 {
		t.Fatal("no squash: mistraining failed")
	}

	snap := reg.Snapshot()
	// Counters mirror the cumulative stats fields exactly.
	if got := snap.Counters["cpu_squashes_total"]; got != st.Squashes {
		t.Errorf("cpu_squashes_total = %d, want %d", got, st.Squashes)
	}
	if got := snap.Counters["cpu_squashed_inst_total"]; got != st.SquashedInst {
		t.Errorf("cpu_squashed_inst_total = %d, want %d", got, st.SquashedInst)
	}
	if got := snap.Counters["cpu_fetched_total"]; got != st.Fetched {
		t.Errorf("cpu_fetched_total = %d, want %d", got, st.Fetched)
	}
	// Retired in st is the last run's delta; the counter is cumulative
	// across the whole mistrain sequence, so it can only be larger.
	if got := snap.Counters["cpu_retired_total"]; got < st.Retired {
		t.Errorf("cpu_retired_total = %d < last-run retired %d", got, st.Retired)
	}
	// Every squash observed a branch-resolution sample and the cleanup
	// stall histogram absorbed the scheme's rollback.
	res := snap.Histograms["cpu_branch_resolution_cycles"]
	if res.Count != st.Squashes {
		t.Errorf("resolution observations = %d, want %d", res.Count, st.Squashes)
	}
	stall := snap.Histograms["cpu_cleanup_stall_cycles"]
	if stall.Count == 0 {
		t.Error("no cleanup-stall observations")
	}

	// Detaching stops recording without touching prior values.
	c.SetMetrics(nil)
	before := reg.Snapshot().Counters["cpu_retired_total"]
	c.Run(straightLine(5))
	if after := reg.Snapshot().Counters["cpu_retired_total"]; after != before {
		t.Errorf("detached core still recorded: %d -> %d", before, after)
	}
}

// TestSetMetricsBindsWholeMachine: one SetMetrics on the core binds the
// core, every cache level, the hierarchy and the undo scheme.
func TestSetMetricsBindsWholeMachine(t *testing.T) {
	reg := telemetry.NewRegistry()
	c := rig(t, undo.NewCleanupSpec())
	c.SetMetrics(reg)
	st := mistrainThenTrap(t, c, 0x54000, 6)
	if st.Squashes == 0 {
		t.Fatal("no squash: mistraining failed")
	}
	counters := reg.Snapshot().Counters
	for _, name := range []string{
		"cpu_squashes_total",      // core
		"cache_l1d_misses_total",  // data cache
		"cache_l1i_misses_total",  // instruction cache
		"cache_l2_misses_total",   // shared level
		"hier_mem_accesses_total", // hierarchy
		"undo_squashes_total",     // undo scheme
		"undo_invalidated_total",  // undo scheme rollback work
		"cache_l1d_invalidations_total",
	} {
		if counters[name] == 0 {
			t.Errorf("%s = 0 after one core.SetMetrics and a squashing run", name)
		}
	}
	if got := counters["undo_squashes_total"]; got != st.Squashes {
		t.Errorf("undo_squashes_total = %d, want the core's %d squashes", got, st.Squashes)
	}
}

func TestFlightRecorderRingSemantics(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := uint64(1); i <= 6; i++ {
		f.Record(TraceEvent{Cycle: i, Kind: KindFetch})
	}
	evs := f.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, want := range []uint64{3, 4, 5, 6} {
		if evs[i].Cycle != want {
			t.Fatalf("events[%d].Cycle = %d, want %d (oldest-first order broken)", i, evs[i].Cycle, want)
		}
	}
	if f.Dropped() != 2 {
		t.Fatalf("dropped = %d, want 2", f.Dropped())
	}
}

func TestFlightRecorderCapturesRunTail(t *testing.T) {
	c := rig(t, undo.NewUnsafe())
	fr := c.EnableFlightRecorder(8)
	if c.EnableFlightRecorder(16) != fr {
		t.Fatal("EnableFlightRecorder not idempotent")
	}
	c.Run(straightLine(20))
	evs := fr.Events()
	if len(evs) != 8 {
		t.Fatalf("ring holds %d events, want 8", len(evs))
	}
	// The tail of the run ends with the halt retiring.
	last := evs[len(evs)-1]
	if last.Kind != KindRetire {
		t.Fatalf("last event kind %q, want %q", last.Kind, KindRetire)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Cycle < evs[i-1].Cycle {
			t.Fatalf("events out of cycle order at %d: %d after %d", i, evs[i].Cycle, evs[i-1].Cycle)
		}
	}
}

func TestPostMortemCarriesFlightEvents(t *testing.T) {
	c := rigBudget(t, 400)
	c.EnableFlightRecorder(16)
	p := isa.NewBuilder().
		Label("spin").
		AddI(1, 1, 1).
		Jmp("spin").
		MustBuild()
	if _, err := c.RunChecked(p); err == nil {
		t.Fatal("infinite loop did not trip the watchdog")
	}
	pm := c.PostMortem()
	if len(pm.Events) == 0 {
		t.Fatal("post-mortem has no flight-recorder events")
	}
	if pm.Events[len(pm.Events)-1].Cycle < pm.Events[0].Cycle {
		t.Fatal("post-mortem events not oldest-first")
	}
	if pm.EventsDropped == 0 {
		t.Error("a 400-cycle spin should have overflowed a 16-event ring")
	}
}
