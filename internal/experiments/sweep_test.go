package experiments

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// TestSweepInjectedFaultsBecomeClassifiedGaps drives a real figure
// sweep with a scripted panic and a scripted hang: the campaign must
// complete, both cells must surface as classified TrialErrors in the
// report and the journal, and the surviving cells must render.
func TestSweepInjectedFaultsBecomeClassifiedGaps(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "run.jsonl")
	injs, err := harness.ParseInjections("panic:figure3/l2,hang:figure3/l4")
	if err != nil {
		t.Fatal(err)
	}
	r, err := harness.New(harness.Config{
		Workers:      2,
		MaxAttempts:  1,
		TrialTimeout: 300 * time.Millisecond,
		JournalPath:  jpath,
		Injections:   injs,
	})
	if err != nil {
		t.Fatal(err)
	}
	pts, rep, err := Figure3With(r, 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	if len(pts) != 6 {
		t.Fatalf("got %d points, want 6 (8 cells minus 2 injected gaps)", len(pts))
	}
	byClass := map[harness.Class]string{}
	for _, f := range rep.Failures() {
		byClass[f.Class] = f.Cell
	}
	if byClass[harness.ClassPanic] != "figure3/l2" {
		t.Errorf("panic gap = %q, want figure3/l2", byClass[harness.ClassPanic])
	}
	if byClass[harness.ClassDeadline] != "figure3/l4" {
		t.Errorf("deadline gap = %q, want figure3/l4", byClass[harness.ClassDeadline])
	}
	if got := rep.ExitCode(); got != harness.ExitPanic {
		t.Errorf("exit code = %d, want %d (panic outranks timeout)", got, harness.ExitPanic)
	}

	// Both failures are journaled with their class.
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"cell":"figure3/l2"`, `"class":"panic"`, `"cell":"figure3/l4"`, `"class":"deadline"`} {
		if !strings.Contains(string(data), want) {
			t.Errorf("journal missing %s", want)
		}
	}

	// The partial series still renders: header plus one row per
	// surviving cell.
	rows := DiffCSV(pts)
	if len(rows) != 1+6 {
		t.Fatalf("CSV has %d rows, want 7", len(rows))
	}
}

// TestSweepResumeByteIdenticalCSV interrupts a campaign mid-way (the
// deterministic StopAfter stand-in for a kill), resumes it from the
// journal with a different worker count, and requires the rendered CSV
// bytes to match an uninterrupted reference run exactly.
func TestSweepResumeByteIdenticalCSV(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.jsonl")

	render := func(pts []DiffPoint, name string) []byte {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := WriteCSV(p, DiffCSV(pts)); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	// Reference: uninterrupted, serial.
	refRunner, err := harness.New(harness.Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := Figure3With(refRunner, 42)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted campaign.
	r1, err := harness.New(harness.Config{Workers: 1, JournalPath: jpath, StopAfter: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, rep1, err := Figure3With(r1, 42)
	if err != nil {
		t.Fatal(err)
	}
	r1.Close()
	if !rep1.Interrupted || rep1.ExitCode() != harness.ExitInterrupted {
		t.Fatalf("StopAfter campaign not interrupted (exit %d)", rep1.ExitCode())
	}

	// Resume with a different worker count.
	r2, err := harness.New(harness.Config{Workers: 4, JournalPath: jpath, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	pts, rep2, err := Figure3With(r2, 42)
	if err != nil {
		t.Fatal(err)
	}
	r2.Close()
	if rep2.Interrupted || len(rep2.Failures()) != 0 {
		t.Fatalf("resumed campaign incomplete: interrupted=%v failures=%d",
			rep2.Interrupted, len(rep2.Failures()))
	}
	resumedFromJournal := 0
	for _, o := range rep2.Outcomes {
		if o.Resumed {
			resumedFromJournal++
		}
	}
	if resumedFromJournal < 3 {
		t.Fatalf("resume replayed %d cells, want >= StopAfter", resumedFromJournal)
	}

	if !reflect.DeepEqual(pts, ref) {
		t.Fatalf("resumed points differ from reference:\n%v\n%v", pts, ref)
	}
	if got, want := render(pts, "resumed.csv"), render(ref, "ref.csv"); !reflect.DeepEqual(got, want) {
		t.Fatal("resumed CSV is not byte-identical to the uninterrupted reference")
	}
}

// TestSweepCellEnumerationDeterministic: journal resume matches
// records to cells by ID, so every multi-cell sweep must enumerate the
// same IDs and seeds on every call, with no duplicates.
func TestSweepCellEnumerationDeterministic(t *testing.T) {
	const seed = 7
	sweeps := map[string]func() []harness.Cell{
		"figure2":  func() []harness.Cell { return resolutionCells(seed, 3, figure2Attack) },
		"figure3":  func() []harness.Cell { return diffCells(seed, false, 5) },
		"figure6":  func() []harness.Cell { return diffCells(seed, true, 5) },
		"figure12": func() []harness.Cell { return figure12Cells(seed, 500) },
		"figure13": func() []harness.Cell { return resolutionCells(seed, 9, figure13Attack(seed)) },
	}
	for name, cells := range sweeps {
		a, b := cells(), cells()
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("%s: enumeration sizes %d vs %d", name, len(a), len(b))
		}
		ids := map[string]bool{}
		for i := range a {
			if a[i].ID != b[i].ID || a[i].Seed != b[i].Seed {
				t.Fatalf("%s: enumeration not deterministic at %d: %q vs %q", name, i, a[i].ID, b[i].ID)
			}
			if ids[a[i].ID] {
				t.Fatalf("%s: duplicate cell ID %q", name, a[i].ID)
			}
			ids[a[i].ID] = true
		}
	}
}
