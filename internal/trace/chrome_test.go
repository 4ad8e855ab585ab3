package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cpu"
	"repro/internal/unxpec"
)

// chromeDoc mirrors the subset of the trace-event format the tests
// inspect.
type chromeDoc struct {
	TraceEvents []struct {
		Name  string         `json:"name"`
		Phase string         `json:"ph"`
		TS    uint64         `json:"ts"`
		Dur   uint64         `json:"dur"`
		TID   int            `json:"tid"`
		Scope string         `json:"s"`
		Args  map[string]any `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func TestWriteChromeSynthetic(t *testing.T) {
	evs := []cpu.TraceEvent{
		{Cycle: 0, Kind: cpu.KindFetch, Seq: 1, PC: 0},
		{Cycle: 1, Kind: cpu.KindFetch, Seq: 2, PC: 1},
		{Cycle: 2, Kind: cpu.KindIssue, Seq: 1, PC: 0, Detail: 3},
		{Cycle: 2, Kind: cpu.KindIssue, Seq: 2, PC: 1, Detail: 1},
		{Cycle: 6, Kind: cpu.KindResolve, Seq: 1, PC: 0, Detail: 1},
		{Cycle: 6, Kind: cpu.KindSquash, Seq: 1, PC: 0, Detail: 1},
		{Cycle: 6, Kind: cpu.KindCleanup, Seq: 1, PC: 0, Detail: 22},
		{Cycle: 7, Kind: cpu.KindRetire, Seq: 1, PC: 0},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("exporter produced invalid JSON")
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", doc.DisplayTimeUnit)
	}

	var slices, instants int
	sawSquashMark, sawCleanup, sawMispredict, sawDagger := false, false, false, false
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			slices++
			if ev.TID < 1 {
				t.Errorf("slice %q on lane %d: lane 0 is reserved for instants", ev.Name, ev.TID)
			}
			if ev.Dur == 0 {
				t.Errorf("slice %q has zero duration", ev.Name)
			}
			if strings.HasPrefix(ev.Name, "† ") {
				sawDagger = true
			}
		case "i":
			instants++
			if ev.Scope != "t" {
				t.Errorf("instant %q has scope %q, want t", ev.Name, ev.Scope)
			}
			switch {
			case strings.HasPrefix(ev.Name, "squash"):
				sawSquashMark = true
			case strings.HasPrefix(ev.Name, "cleanup stall=22"):
				sawCleanup = true
			case strings.HasPrefix(ev.Name, "mispredict"):
				sawMispredict = true
			}
		default:
			t.Errorf("unexpected phase %q", ev.Phase)
		}
	}
	if slices != 2 {
		t.Errorf("%d slices, want 2 (one per fetched instruction)", slices)
	}
	if instants != 3 {
		t.Errorf("%d instants, want 3 (squash, cleanup, mispredict)", instants)
	}
	if !sawSquashMark || !sawCleanup || !sawMispredict {
		t.Errorf("missing instant markers: squash=%v cleanup=%v mispredict=%v",
			sawSquashMark, sawCleanup, sawMispredict)
	}
	// Seq 2 was younger than the squashing branch and never retired: it
	// must be rendered as killed.
	if !sawDagger {
		t.Error("squashed instruction not marked with the † prefix")
	}
}

func TestWriteChromeLanePacking(t *testing.T) {
	// Three overlapping lifetimes must land on three distinct lanes; a
	// fourth that starts after the first ends may reuse its lane.
	evs := []cpu.TraceEvent{
		{Cycle: 0, Kind: cpu.KindFetch, Seq: 1},
		{Cycle: 0, Kind: cpu.KindFetch, Seq: 2},
		{Cycle: 0, Kind: cpu.KindFetch, Seq: 3},
		{Cycle: 4, Kind: cpu.KindRetire, Seq: 1},
		{Cycle: 4, Kind: cpu.KindRetire, Seq: 2},
		{Cycle: 4, Kind: cpu.KindRetire, Seq: 3},
		{Cycle: 10, Kind: cpu.KindFetch, Seq: 4},
		{Cycle: 12, Kind: cpu.KindRetire, Seq: 4},
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, evs); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	lanesAtZero := map[int]bool{}
	lateLane := -1
	for _, ev := range doc.TraceEvents {
		if ev.Phase != "X" {
			continue
		}
		if ev.TS == 0 {
			if lanesAtZero[ev.TID] {
				t.Fatalf("two concurrent slices share lane %d", ev.TID)
			}
			lanesAtZero[ev.TID] = true
		} else {
			lateLane = ev.TID
		}
	}
	if len(lanesAtZero) != 3 {
		t.Fatalf("%d lanes for 3 concurrent slices", len(lanesAtZero))
	}
	if lateLane != 1 {
		t.Errorf("non-overlapping slice on lane %d, want reuse of lane 1", lateLane)
	}
}

func TestWriteChromeRealRound(t *testing.T) {
	a := unxpec.MustNew(unxpec.Options{Seed: 1})
	measure(t, a, 1) // warm up
	buf := NewBuffer()
	a.Core().SetTracer(buf)
	measure(t, a, 1)
	a.Core().SetTracer(nil)

	var out bytes.Buffer
	if err := WriteChrome(&out, buf.Events()); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(out.Bytes()) {
		t.Fatal("invalid JSON from a real measurement round")
	}
	var doc chromeDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var slices, squashes int
	for _, ev := range doc.TraceEvents {
		switch {
		case ev.Phase == "X":
			slices++
		case ev.Phase == "i" && strings.HasPrefix(ev.Name, "squash"):
			squashes++
		}
	}
	if slices == 0 {
		t.Fatal("no instruction slices from a real round")
	}
	if squashes == 0 {
		t.Fatal("an unXpec round must contain a squash marker")
	}
}
