package cpu

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// eventLog keeps every pipeline event.
type eventLog struct{ evs []TraceEvent }

func (l *eventLog) Event(ev TraceEvent) { l.evs = append(l.evs, ev) }

// midFlight reports whether the window holds everything the event-side
// state tracks at once: a load still in flight, a speculative load not
// yet committed, an unresolved branch, and an unissued instruction
// waiting on a producer.
func midFlight(c *CPU) bool {
	var inflight, spec, unresolved, waiting bool
	for i := 0; i < c.robLen; i++ {
		p := c.slot(i)
		e := &c.rob[p]
		if e.inst.Op == isa.OpLoad && e.is(fIssued) {
			inflight = inflight || e.doneAt > c.cycle
			spec = spec || e.is(fSpecAtIssue) && !e.is(fCommittedSpec)
		}
		if e.inst.Op.IsBranch() && !e.is(fResolved) {
			unresolved = true
		}
		if !e.is(fIssued) && c.sch[p].pending > 0 {
			waiting = true
		}
	}
	return inflight && spec && unresolved && waiting
}

// TestMidFlightStateRoundTrip saves a core with a busy window, runs it
// to the end, and then restores the saved state twice — onto the same
// core and onto a second core wired to the same parts — and requires
// both continuations to repeat the uninterrupted one exactly. The
// event-side state is not in the State; RestoreState must rebuild it.
func TestMidFlightStateRoundTrip(t *testing.T) {
	b := isa.NewBuilder()
	b.Const(1, 0x40000).Const(7, 0).Const(8, 4)
	b.Label("loop").
		Load(2, 1, 0). // cold miss every iteration
		Load(3, 1, 64).
		Add(4, 2, 3).          // waits on both loads
		BranchNE(4, 0, "odd"). // unresolved until they return
		Load(5, 1, 128).
		AddI(6, 5, 1).
		Label("odd").
		Store(1, 8, 4).
		AddI(1, 1, 4096).
		AddI(7, 7, 1).
		BranchLT(7, 8, "loop").
		Halt()
	prog := b.MustBuild()

	for _, spec := range []string{"cleanupspec", "invisible", "const-45"} {
		m := mem.NewMemory()
		for i := 0; i < 4; i++ {
			m.WriteWord(mem.Addr(0x40000+i*4096), uint64(i%2))
		}
		h := memsys.MustNew(memsys.DefaultConfig(5), m)
		pred := branch.New(branch.DefaultConfig())
		scheme, err := undo.Parse(spec, 5)
		if err != nil {
			t.Fatal(err)
		}
		sch := scheme.(interface {
			SaveState() any
			RestoreState(any)
		})
		log := &eventLog{}
		c := MustNew(DefaultConfig(), h, pred, scheme, noise.None{})
		c.SetTracer(log)
		c.BeginProgram(prog)
		for !midFlight(c) {
			if c.Step() {
				t.Fatalf("%s: program halted before the window filled", spec)
			}
		}
		coreSt, hierSt, memSt, predSt, schemeSt := c.SaveState(), h.SaveState(), m.Fork(), pred.SaveState(), sch.SaveState()
		finish := func(c *CPU) ([]TraceEvent, Stats, [isa.NumRegs]uint64) {
			from := len(log.evs)
			for !c.Step() {
			}
			return append([]TraceEvent(nil), log.evs[from:]...), c.RunStats(), c.regs
		}
		wantEv, wantSt, wantRegs := finish(c)
		if wantSt.Squashes == 0 {
			t.Fatalf("%s: the continuation never squashed", spec)
		}

		second := MustNew(DefaultConfig(), h, pred, scheme, noise.None{})
		second.SetTracer(log)
		for _, target := range []struct {
			name string
			core *CPU
		}{{"same core", c}, {"second core", second}} {
			m.Restore(memSt)
			h.RestoreState(hierSt)
			pred.RestoreState(predSt)
			sch.RestoreState(schemeSt)
			target.core.RestoreState(coreSt)
			gotEv, gotSt, gotRegs := finish(target.core)
			if !reflect.DeepEqual(gotEv, wantEv) {
				t.Errorf("%s, %s: %d events after restore, uninterrupted %d (or they differ)", spec, target.name, len(gotEv), len(wantEv))
			}
			if !reflect.DeepEqual(gotSt, wantSt) {
				t.Errorf("%s, %s: stats %+v, uninterrupted %+v", spec, target.name, gotSt, wantSt)
			}
			if gotRegs != wantRegs {
				t.Errorf("%s, %s: registers differ after restore", spec, target.name)
			}
		}
	}
}
