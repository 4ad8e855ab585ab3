package fuzz

import (
	"reflect"
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/trace"
	"repro/internal/undo"
)

// freshRun is the reference the rig is held to: prog under scheme on a
// machine built from scratch, observed exactly as rig.run observes.
func freshRun(g *Generator, prog *isa.Program, scheme undo.Scheme, o Options) runResult {
	m := mem.NewMemory()
	g.InitMemory(o.MemSeed, m)
	hier := memsys.MustNew(memsys.DefaultConfig(o.MachineSeed), m)
	core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), scheme, noise.None{})
	hasher := newTraceHasher(trace.NewChecker())
	core.SetTracer(hasher)
	st := core.Run(prog)
	res := runResult{memory: m, cycles: st.Cycles, traceSum: hasher.Sum(), squashes: st.Squashes, timedOut: st.TimedOut}
	for r := isa.Reg(1); r < isa.NumRegs; r++ {
		res.regs[r] = core.Reg(r)
	}
	res.residue = append(hier.L1D().SpeculativeLines(), hier.L2().SpeculativeLines()...)
	return res
}

func mustScheme(t *testing.T, o Options, spec string) undo.Scheme {
	t.Helper()
	s, err := o.newScheme(spec)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestRewoundRigMatchesFresh: a rig rewound after running a different
// program gives, under every scheme, the same cycles, trace hash,
// squashes, registers, data region and residue as a freshly built
// machine. A part the rewind misses shows up here as a difference.
func TestRewoundRigMatchesFresh(t *testing.T) {
	g := MustNew(DefaultConfig())
	for seed := int64(0); seed < 20; seed++ {
		o := Options{MemSeed: seed + 1000, MachineSeed: seed}
		prog, other := g.Program(seed), g.Program(seed+500)
		r := g.newRig(o)
		for _, spec := range AllSchemes {
			r.run(other, mustScheme(t, o, spec))
			got := r.run(prog, mustScheme(t, o, spec))
			want := freshRun(g, prog, mustScheme(t, o, spec), o)
			if got.cycles != want.cycles || got.traceSum != want.traceSum || got.squashes != want.squashes ||
				got.timedOut != want.timedOut {
				t.Fatalf("seed %d %s: rewound cycles %d trace %x squashes %d, fresh %d %x %d",
					seed, spec, got.cycles, got.traceSum, got.squashes, want.cycles, want.traceSum, want.squashes)
			}
			if got.regs != want.regs {
				t.Fatalf("seed %d %s: rewound registers %v, fresh %v", seed, spec, got.regs, want.regs)
			}
			if !reflect.DeepEqual(got.residue, want.residue) {
				t.Fatalf("seed %d %s: rewound residue %v, fresh %v", seed, spec, got.residue, want.residue)
			}
			for i := 0; i < g.cfg.RegionWords; i++ {
				a := mem.Addr(g.cfg.RegionBase) + mem.Addr(i*8)
				if x, y := got.memory.ReadWord(a), want.memory.ReadWord(a); x != y {
					t.Fatalf("seed %d %s: rewound memory %s = %d, fresh %d", seed, spec, a, x, y)
				}
			}
		}
	}
}

// TestHierarchyColdRewindAllocatesNothing pins the rig's per-run rewind
// of the hierarchy: after a program's worth of traffic, restoring the
// cold state allocates nothing.
func TestHierarchyColdRewindAllocatesNothing(t *testing.T) {
	g := MustNew(DefaultConfig())
	r := g.newRig(Options{MemSeed: 7, MachineSeed: 7})
	r.run(g.Program(7), mustScheme(t, Options{MachineSeed: 7}, "cleanupspec"))
	if avg := testing.AllocsPerRun(20, func() {
		r.hier.Read(mem.Addr(g.cfg.RegionBase), false, 0, 0)
		r.hier.RestoreState(r.coldHier)
	}); avg != 0 {
		t.Fatalf("cold rewind allocates %.1f times", avg)
	}
}
