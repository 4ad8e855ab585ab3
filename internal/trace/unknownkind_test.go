package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cpu"
)

// A kind the core does not emit today. Every consumer of TraceEvent
// must handle it deliberately: the checker rejects it, the renderers
// show it. None may silently drop it.
const kindBogus cpu.Kind = "prefetch"

func TestCheckerRejectsUnknownKind(t *testing.T) {
	k := NewChecker()
	k.Event(cpu.TraceEvent{Kind: kindBogus, Seq: 4, Cycle: 11})
	if k.Ok() {
		t.Fatal("unknown event kind not flagged")
	}
	v := strings.Join(k.Violations, "\n")
	if !strings.Contains(v, string(kindBogus)) {
		t.Fatalf("violation does not name the unknown kind: %q", v)
	}
}

func TestCheckerAcceptsEveryKnownKind(t *testing.T) {
	// A well-formed lifetime touching all six kinds must be silent; if a
	// new kind is added to cpu.Kinds without teaching the checker, this
	// test fails via the unknown-kind arm.
	k := NewChecker()
	k.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 1, Cycle: 1})
	k.Event(cpu.TraceEvent{Kind: cpu.KindIssue, Seq: 1, Cycle: 2})
	k.Event(cpu.TraceEvent{Kind: cpu.KindResolve, Seq: 1, Cycle: 3, Detail: 1})
	k.Event(cpu.TraceEvent{Kind: cpu.KindSquash, Seq: 1, Cycle: 3, Detail: 0})
	k.Event(cpu.TraceEvent{Kind: cpu.KindCleanup, Seq: 1, Cycle: 4, Detail: 2})
	k.Event(cpu.TraceEvent{Kind: cpu.KindRetire, Seq: 1, Cycle: 6})
	if !k.Ok() {
		t.Fatalf("known kinds flagged:\n%s", strings.Join(k.Violations, "\n"))
	}
	for _, kind := range cpu.Kinds() {
		fresh := NewChecker()
		fresh.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 1, Cycle: 1})
		fresh.Event(cpu.TraceEvent{Kind: kind, Seq: 1, Cycle: 2})
		for _, v := range fresh.Violations {
			if strings.Contains(v, "unknown event kind") {
				t.Errorf("core-emitted kind %q hit the unknown-kind arm: %s", kind, v)
			}
		}
	}
}

func TestCheckerResolveInvariants(t *testing.T) {
	// A squashed branch must never resolve.
	k := NewChecker()
	k.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 2, Cycle: 1})
	k.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 5, Cycle: 2})
	k.Event(cpu.TraceEvent{Kind: cpu.KindSquash, Seq: 2, Cycle: 4})
	k.Event(cpu.TraceEvent{Kind: cpu.KindResolve, Seq: 5, Cycle: 6})
	if k.Ok() {
		t.Fatal("squashed-then-resolved not flagged")
	}

	// Resolving before fetch is a causality violation.
	k = NewChecker()
	k.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 3, Cycle: 9})
	k.Event(cpu.TraceEvent{Kind: cpu.KindResolve, Seq: 3, Cycle: 4})
	if k.Ok() {
		t.Fatal("resolve-before-fetch not flagged")
	}
}

func TestChromeRendersUnknownKind(t *testing.T) {
	events := []cpu.TraceEvent{
		{Kind: cpu.KindFetch, Seq: 1, Cycle: 1, PC: 10},
		{Kind: kindBogus, Seq: 1, Cycle: 2, PC: 10, Detail: 7},
		{Kind: cpu.KindRetire, Seq: 1, Cycle: 3, PC: 10},
	}
	var out bytes.Buffer
	if err := WriteChrome(&out, events); err != nil {
		t.Fatal(err)
	}
	var doc chromeDoc
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Phase == "i" && strings.HasPrefix(ev.Name, string(kindBogus)) {
			found = true
			if ev.Args["detail"] != float64(7) {
				t.Errorf("unknown-kind marker lost its detail: %v", ev.Args)
			}
		}
	}
	if !found {
		t.Fatal("unknown event kind silently dropped from the Chrome trace")
	}
}

func TestRenderShowsUnknownKind(t *testing.T) {
	b := NewBuffer()
	b.Event(cpu.TraceEvent{Kind: kindBogus, Seq: 8, Cycle: 5, PC: 42})
	var out bytes.Buffer
	b.Render(&out)
	if !strings.Contains(out.String(), string(kindBogus)) {
		t.Fatalf("Render dropped the unknown kind:\n%s", out.String())
	}
}

func TestTimelineIgnoresUnknownKindButKeepsRow(t *testing.T) {
	b := NewBuffer()
	b.Event(cpu.TraceEvent{Kind: cpu.KindFetch, Seq: 1, Cycle: 1, PC: 10})
	b.Event(cpu.TraceEvent{Kind: kindBogus, Seq: 1, Cycle: 2, PC: 10})
	b.Event(cpu.TraceEvent{Kind: cpu.KindRetire, Seq: 1, Cycle: 3, PC: 10})
	tl := b.Timeline(4)
	if tl == "" {
		t.Fatal("timeline empty")
	}
	if !strings.Contains(tl, "F") || !strings.Contains(tl, "R") {
		t.Fatalf("fetch/retire marks missing when an unknown kind interleaves:\n%s", tl)
	}
}
