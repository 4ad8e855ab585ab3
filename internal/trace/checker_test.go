package trace

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/unxpec"
)

// measure runs one attack round, failing the test on a watchdog trip.
func measure(t *testing.T, a *unxpec.Attack, secret int) uint64 {
	t.Helper()
	lat, err := a.MeasureOnceChecked(secret)
	if err != nil {
		t.Fatal(err)
	}
	return lat
}

func TestCheckerCleanOnAttackRounds(t *testing.T) {
	// The full attack exercises every pipeline path: mistraining,
	// fences, rdtsc serialization, wrong-path loads, squash, cleanup.
	a := unxpec.MustNew(unxpec.Options{Seed: 1, UseEvictionSets: true, LoadsInBranch: 4})
	k := NewChecker()
	a.Core().SetTracer(k)
	for i := 0; i < 20; i++ {
		measure(t, a, i%2)
	}
	if !k.Ok() {
		t.Fatalf("pipeline invariant violations:\n%v", k.Violations)
	}
}

func TestCheckerFlagsSyntheticViolations(t *testing.T) {
	mk := func() *Checker { return NewChecker() }

	k := mk()
	k.Event(cpu.TraceEvent{Kind: "issue", Seq: 5, Cycle: 10})
	if k.Ok() {
		t.Fatal("issue-without-fetch not flagged")
	}

	k = mk()
	k.Event(cpu.TraceEvent{Kind: "fetch", Seq: 5, Cycle: 10})
	k.Event(cpu.TraceEvent{Kind: "issue", Seq: 5, Cycle: 8})
	if k.Ok() {
		t.Fatal("issue-before-fetch not flagged")
	}

	k = mk()
	k.Event(cpu.TraceEvent{Kind: "fetch", Seq: 3, Cycle: 1})
	k.Event(cpu.TraceEvent{Kind: "fetch", Seq: 7, Cycle: 2})
	k.Event(cpu.TraceEvent{Kind: "squash", Seq: 3, Cycle: 5})
	k.Event(cpu.TraceEvent{Kind: "retire", Seq: 7, Cycle: 9})
	if k.Ok() {
		t.Fatal("squashed-retire not flagged")
	}

	k = mk()
	k.Event(cpu.TraceEvent{Kind: "fetch", Seq: 1, Cycle: 1})
	k.Event(cpu.TraceEvent{Kind: "fetch", Seq: 2, Cycle: 1})
	k.Event(cpu.TraceEvent{Kind: "retire", Seq: 2, Cycle: 4})
	k.Event(cpu.TraceEvent{Kind: "retire", Seq: 1, Cycle: 5})
	if k.Ok() {
		t.Fatal("out-of-order retirement not flagged")
	}

	k = mk()
	k.Event(cpu.TraceEvent{Kind: "cleanup", Seq: 9, Cycle: 3})
	if k.Ok() {
		t.Fatal("cleanup-without-squash not flagged")
	}
}

func TestCheckerCleanOnWorkloadRun(t *testing.T) {
	// Branch-heavy code with constant squashing must also hold the
	// invariants.
	a := unxpec.MustNew(unxpec.Options{Seed: 2})
	k := NewChecker()
	a.Core().SetTracer(k)
	if _, err := a.CalibrateChecked(10); err != nil {
		t.Fatal(err)
	}
	if !k.Ok() {
		t.Fatalf("violations during calibration:\n%v", k.Violations)
	}
}
