package trace

import (
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

func tracedCPU(t *testing.T, buf *Buffer) *cpu.CPU {
	t.Helper()
	hier := memsys.MustNew(memsys.DefaultConfig(1), mem.NewMemory())
	core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), noise.None{})
	core.SetTracer(buf)
	return core
}

func TestBufferRecordsPipelineEvents(t *testing.T) {
	buf := NewBuffer()
	core := tracedCPU(t, buf)
	core.Run(isa.NewBuilder().Const(1, 5).AddI(2, 1, 1).Halt().MustBuild())
	sum := buf.Summary()
	if sum[cpu.KindFetch] < 3 {
		t.Fatalf("fetch events %d", sum[cpu.KindFetch])
	}
	if sum[cpu.KindIssue] < 2 {
		t.Fatalf("issue events %d", sum[cpu.KindIssue])
	}
	if sum[cpu.KindRetire] < 3 {
		t.Fatalf("retire events %d", sum[cpu.KindRetire])
	}
}

func TestBufferCapturesSquashAndCleanup(t *testing.T) {
	buf := NewBuffer()
	core := tracedCPU(t, buf)
	memory := core.Hierarchy().Memory()
	memory.WriteWord(0x9000, 10)
	prog := func(index int64) *isa.Program {
		return isa.NewBuilder().
			Const(1, index).
			Const(2, 0x9000).
			Const(3, 0x30000).
			Load(4, 2, 0).
			BranchGE(1, 4, "skip").
			Load(5, 3, 0).
			Label("skip").
			Halt().
			MustBuild()
	}
	for i := 0; i < 6; i++ {
		core.Run(prog(int64(i % 5)))
	}
	core.Run(isa.NewBuilder().Const(2, 0x9000).Flush(2, 0).Const(3, 0x30000).Flush(3, 0).Fence().Halt().MustBuild())
	buf = NewBuffer() // record only the measured run
	core.SetTracer(buf)
	core.Run(prog(999))

	squashes := buf.OfKind(cpu.KindSquash)
	cleanups := buf.OfKind(cpu.KindCleanup)
	if len(squashes) != 1 || len(cleanups) != 1 {
		t.Fatalf("squash/cleanup events %d/%d", len(squashes), len(cleanups))
	}
	if cleanups[0].Detail != 22 {
		t.Fatalf("cleanup stall %d, want 22", cleanups[0].Detail)
	}
	resolves := buf.OfKind(cpu.KindResolve)
	mispredicted := false
	for _, ev := range resolves {
		if ev.Detail == 1 {
			mispredicted = true
		}
	}
	if !mispredicted {
		t.Fatal("no mispredict resolve recorded")
	}
}

func TestKindFilter(t *testing.T) {
	buf := NewBuffer()
	buf.KindFilter = map[cpu.Kind]bool{cpu.KindRetire: true}
	core := tracedCPU(t, buf)
	core.Run(isa.NewBuilder().Const(1, 1).Halt().MustBuild())
	for _, ev := range buf.Events() {
		if ev.Kind != cpu.KindRetire {
			t.Fatalf("filter leaked %q", ev.Kind)
		}
	}
	if buf.Len() == 0 {
		t.Fatal("filter recorded nothing")
	}
}

func TestRenderContainsMarkers(t *testing.T) {
	buf := NewBuffer()
	core := tracedCPU(t, buf)
	core.Run(isa.NewBuilder().Const(1, 7).Halt().MustBuild())
	var sb strings.Builder
	buf.Render(&sb)
	out := sb.String()
	for _, want := range []string{"fetch", "issue", "retire", "const r1, 7"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTimeline(t *testing.T) {
	buf := NewBuffer()
	core := tracedCPU(t, buf)
	core.Run(isa.NewBuilder().Const(1, 0x40000).Load(2, 1, 0).Halt().MustBuild())
	tl := buf.Timeline(10)
	if !strings.Contains(tl, "F") || !strings.Contains(tl, "R") {
		t.Fatalf("timeline lacks fetch/retire marks:\n%s", tl)
	}
	if !strings.Contains(tl, "load r2") {
		t.Fatalf("timeline lacks disassembly:\n%s", tl)
	}
}

func TestTimelineEmptyBuffer(t *testing.T) {
	if NewBuffer().Timeline(5) != "" {
		t.Fatal("empty buffer should render empty timeline")
	}
}

func TestTracingDoesNotChangeTiming(t *testing.T) {
	run := func(trace bool) uint64 {
		hier := memsys.MustNew(memsys.DefaultConfig(1), mem.NewMemory())
		core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), undo.NewCleanupSpec(), noise.None{})
		if trace {
			core.SetTracer(NewBuffer())
		}
		st := core.Run(isa.NewBuilder().Const(1, 0x50000).Load(2, 1, 0).Load(3, 1, 64).Halt().MustBuild())
		return st.Cycles
	}
	if run(false) != run(true) {
		t.Fatal("attaching a tracer changed simulated timing")
	}
}

func TestRenderAllEventKinds(t *testing.T) {
	buf := NewBuffer()
	buf.Event(cpu.TraceEvent{Kind: cpu.KindSquash, Cycle: 5, Seq: 1, Detail: 3})
	buf.Event(cpu.TraceEvent{Kind: cpu.KindCleanup, Cycle: 6, Seq: 1, Detail: 22})
	buf.Event(cpu.TraceEvent{Kind: cpu.KindResolve, Cycle: 7, Seq: 2, Detail: 1})
	var sb strings.Builder
	buf.Render(&sb)
	out := sb.String()
	for _, want := range []string{"cleanup", "stall 22", "MISPREDICT", "squashed 3 younger"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Correct resolves render as such.
	buf2 := NewBuffer()
	buf2.Event(cpu.TraceEvent{Kind: cpu.KindResolve, Cycle: 1, Detail: 0})
	sb.Reset()
	buf2.Render(&sb)
	if !strings.Contains(sb.String(), "correct") {
		t.Fatal("correct resolve not rendered")
	}
}
