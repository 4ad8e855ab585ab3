package cpu_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/fuzz"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
	"repro/internal/workload"
)

// The event-driven core must reproduce the scanning reference core
// exactly: the same pipeline events (cycle, kind, sequence number, PC,
// instruction, detail), the same Stats — fast-forward counters included —
// and the same final registers. Each side runs on its own freshly built,
// identically seeded hierarchy, predictor, scheme and noise model.

// recorder keeps every pipeline event.
type recorder struct{ evs []cpu.TraceEvent }

func (r *recorder) Event(ev cpu.TraceEvent) { r.evs = append(r.evs, ev) }

// parts builds one side's machine: hierarchy (with its data planted),
// predictor, scheme and noise model.
type parts func() (*memsys.Hierarchy, branch.Direction, undo.Scheme, noise.Model)

// core is what the comparison drives on either implementation.
type core interface {
	SetTracer(cpu.Tracer)
	SetFastForward(bool)
	Run(*isa.Program) cpu.Stats
	Reg(isa.Reg) uint64
}

// diffRun runs prog on both cores and reports the first divergence.
func diffRun(t *testing.T, name string, cfg cpu.Config, mk parts, prog *isa.Program, fastForward bool) {
	t.Helper()
	h, p, s, nz := mk()
	fast, err := cpu.New(cfg, h, p, s, nz)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	h, p, s, nz = mk()
	ref, err := cpu.NewReference(cfg, h, p, s, nz)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if d := compareCores(fast, ref, prog, fastForward); d != "" {
		t.Fatalf("%s: %s\nprogram:\n%s", name, d, prog.Disassemble())
	}
}

// compareCores runs prog on both cores and describes the first
// difference, or returns "".
func compareCores(fast, ref core, prog *isa.Program, fastForward bool) string {
	var fr, rr recorder
	fast.SetTracer(&fr)
	ref.SetTracer(&rr)
	fast.SetFastForward(fastForward)
	ref.SetFastForward(fastForward)
	fs := fast.Run(prog)
	rs := ref.Run(prog)
	for i := 0; i < len(fr.evs) && i < len(rr.evs); i++ {
		if fr.evs[i] != rr.evs[i] {
			return fmt.Sprintf("event %d: %+v, reference %+v", i, fr.evs[i], rr.evs[i])
		}
	}
	if len(fr.evs) != len(rr.evs) {
		return fmt.Sprintf("%d events, reference %d", len(fr.evs), len(rr.evs))
	}
	if !reflect.DeepEqual(fs, rs) {
		return fmt.Sprintf("stats %+v, reference %+v", fs, rs)
	}
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		if fast.Reg(r) != ref.Reg(r) {
			return fmt.Sprintf("r%d = %d, reference %d", r, fast.Reg(r), ref.Reg(r))
		}
	}
	return ""
}

// quietParts builds a noiseless machine whose memory init plants data.
func quietParts(init func(*mem.Memory), machineSeed int64, spec string) parts {
	return func() (*memsys.Hierarchy, branch.Direction, undo.Scheme, noise.Model) {
		m := mem.NewMemory()
		if init != nil {
			init(m)
		}
		s, err := undo.Parse(spec, machineSeed)
		if err != nil {
			panic(err)
		}
		return memsys.MustNew(memsys.DefaultConfig(machineSeed), m), branch.New(branch.DefaultConfig()), s, noise.None{}
	}
}

func TestEventCoreMatchesReferenceOnFuzzPrograms(t *testing.T) {
	programs := 300
	if testing.Short() {
		programs = 60
	}
	g := fuzz.MustNew(fuzz.DefaultConfig())
	for seed := int64(0); seed < int64(programs); seed++ {
		prog := g.Program(seed)
		memSeed := seed + 1000
		init := func(m *mem.Memory) { g.InitMemory(memSeed, m) }
		for _, spec := range fuzz.AllSchemes {
			diffRun(t, fmt.Sprintf("program %d, %s", seed, spec), cpu.DefaultConfig(),
				quietParts(init, seed, spec), prog, true)
		}
	}
}

func TestEventCoreMatchesReferenceOnFastForwardWorkloads(t *testing.T) {
	w := cpu.FFWorkloads()
	names := make([]string, 0, len(w))
	for n := range w {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		for _, spec := range fuzz.AllSchemes {
			for _, ff := range []bool{true, false} {
				diffRun(t, fmt.Sprintf("%s, %s, fast-forward %v", n, spec, ff), cpu.DefaultConfig(),
					quietParts(nil, 11, spec), w[n], ff)
			}
		}
	}
}

func TestEventCoreMatchesReferenceOnWorkloadSuite(t *testing.T) {
	for _, wl := range workload.Suite(200, 42) {
		for _, spec := range fuzz.AllSchemes {
			diffRun(t, fmt.Sprintf("%s, %s", wl.Name, spec), cpu.DefaultConfig(),
				quietParts(wl.Init, 42, spec), wl.Program, true)
		}
	}
}

// TestEventCoreMatchesReferenceUnderNoise runs a branchy kernel with
// system noise, which injects interference stalls and load jitter and so
// turns fast-forward off: both cores must consult the model in the same
// order and stay in step cycle by cycle.
func TestEventCoreMatchesReferenceUnderNoise(t *testing.T) {
	wl := workload.BranchyFilter(3000, 7)
	noisy := func() (*memsys.Hierarchy, branch.Direction, undo.Scheme, noise.Model) {
		m := mem.NewMemory()
		wl.Init(m)
		return memsys.MustNew(memsys.DefaultConfig(7), m), branch.New(branch.DefaultConfig()),
			undo.NewCleanupSpec(), noise.NewSystem(7)
	}
	diffRun(t, "noise.System", cpu.DefaultConfig(), noisy, wl.Program, false)

	h, p, s, nz := noisy()
	st := cpu.MustNew(cpu.DefaultConfig(), h, p, s, nz).Run(wl.Program)
	if st.NoiseStall == 0 || st.Squashes == 0 {
		t.Fatalf("run saw %d noise-stall cycles and %d squashes; the comparison did not exercise both", st.NoiseStall, st.Squashes)
	}
}
