// Package trace collects and renders pipeline event traces from the
// simulated core. Attach a Buffer to a cpu.CPU with SetTracer, run a
// program, and render the timeline — the tooling used to understand and
// debug the attack's T1–T6 window (Figure 1).
package trace

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cpu"
)

// Buffer is an unbounded, append-only pipeline event log: attach it
// for a short run (one attack round, one kernel) and render it. The
// bounded ring that survives a long run is cpu.FlightRecorder's job.
type Buffer struct {
	events []cpu.TraceEvent
	// KindFilter, when non-empty, records only listed kinds. Keys are
	// the cpu.Kind* constants, so a typo'd kind is a compile error
	// rather than a filter that silently matches nothing.
	KindFilter map[cpu.Kind]bool
}

// NewBuffer returns an empty event log.
func NewBuffer() *Buffer { return &Buffer{} }

// Event implements cpu.Tracer.
func (b *Buffer) Event(ev cpu.TraceEvent) {
	if b.KindFilter != nil && !b.KindFilter[ev.Kind] {
		return
	}
	b.events = append(b.events, ev)
}

// Events returns a copy of the recorded events in order, oldest first.
func (b *Buffer) Events() []cpu.TraceEvent {
	return append([]cpu.TraceEvent(nil), b.events...)
}

// Len returns the number of recorded events.
func (b *Buffer) Len() int { return len(b.events) }

// OfKind returns the recorded events of one kind, oldest first.
func (b *Buffer) OfKind(kind cpu.Kind) []cpu.TraceEvent {
	var out []cpu.TraceEvent
	for _, ev := range b.events {
		if ev.Kind == kind {
			out = append(out, ev)
		}
	}
	return out
}

// Render writes a human-readable event log.
func (b *Buffer) Render(w io.Writer) {
	for _, ev := range b.events {
		switch ev.Kind {
		case cpu.KindSquash:
			fmt.Fprintf(w, "%8d  %-8s pc=%-4d %-24s squashed %d younger\n",
				ev.Cycle, ev.Kind, ev.PC, ev.Inst, ev.Detail)
		case cpu.KindCleanup:
			fmt.Fprintf(w, "%8d  %-8s pc=%-4d %-24s stall %d cycles\n",
				ev.Cycle, ev.Kind, ev.PC, ev.Inst, ev.Detail)
		case cpu.KindResolve:
			verdict := "correct"
			if ev.Detail == 1 {
				verdict = "MISPREDICT"
			}
			fmt.Fprintf(w, "%8d  %-8s pc=%-4d %-24s %s\n",
				ev.Cycle, ev.Kind, ev.PC, ev.Inst, verdict)
		case cpu.KindIssue:
			fmt.Fprintf(w, "%8d  %-8s pc=%-4d %-24s latency %d\n",
				ev.Cycle, ev.Kind, ev.PC, ev.Inst, ev.Detail)
		default:
			fmt.Fprintf(w, "%8d  %-8s pc=%-4d %s\n", ev.Cycle, ev.Kind, ev.PC, ev.Inst)
		}
	}
}

// Summary aggregates a trace into per-kind counts.
func (b *Buffer) Summary() map[cpu.Kind]int {
	out := map[cpu.Kind]int{}
	for _, ev := range b.events {
		out[ev.Kind]++
	}
	return out
}

// Timeline renders per-sequence pipeline occupancy as a compact gantt
// string for the first n instructions: F=fetch, I=issue, R=retire.
// Intended for short kernels (the attack round), not whole benchmarks.
func (b *Buffer) Timeline(n int) string {
	type life struct {
		seq               uint64
		pc                int
		text              string
		fetch, issue, ret uint64
		squashed          bool
	}
	byseq := map[uint64]*life{}
	var order []uint64
	var minCycle, maxCycle uint64 = ^uint64(0), 0
	note := func(c uint64) {
		if c < minCycle {
			minCycle = c
		}
		if c > maxCycle {
			maxCycle = c
		}
	}
	for _, ev := range b.events {
		l, ok := byseq[ev.Seq]
		if !ok {
			if len(order) >= n && ev.Kind == cpu.KindFetch {
				continue
			}
			l = &life{seq: ev.Seq, pc: ev.PC, text: ev.Inst.String(), fetch: ^uint64(0), issue: ^uint64(0), ret: ^uint64(0)}
			byseq[ev.Seq] = l
			order = append(order, ev.Seq)
		}
		switch ev.Kind {
		case cpu.KindFetch:
			l.fetch = ev.Cycle
			note(ev.Cycle)
		case cpu.KindIssue:
			l.issue = ev.Cycle
			note(ev.Cycle)
		case cpu.KindRetire:
			l.ret = ev.Cycle
			note(ev.Cycle)
		default:
			// Resolve, squash and cleanup (and any future kind) carry no
			// F/I/R gantt mark; Render shows them in full.
		}
	}
	if len(order) == 0 || minCycle > maxCycle {
		return ""
	}
	span := maxCycle - minCycle + 1
	const maxCols = 120
	scale := uint64(1)
	if span > maxCols {
		scale = (span + maxCols - 1) / maxCols
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "cycles %d..%d (1 column = %d cycle(s))\n", minCycle, maxCycle, scale)
	for i, seq := range order {
		if i >= n {
			break
		}
		l := byseq[seq]
		cols := int(span / scale)
		row := make([]byte, cols+1)
		for j := range row {
			row[j] = '.'
		}
		mark := func(c uint64, ch byte) {
			if c == ^uint64(0) {
				return
			}
			j := int((c - minCycle) / scale)
			if j >= 0 && j < len(row) {
				row[j] = ch
			}
		}
		mark(l.fetch, 'F')
		mark(l.issue, 'I')
		mark(l.ret, 'R')
		fmt.Fprintf(&sb, "%4d %-22s |%s|\n", l.pc, l.text, row)
	}
	return sb.String()
}
