package fuzz

import (
	"fmt"

	"repro/internal/absint"
	"repro/internal/isa"
	"repro/internal/mem"
)

// plantSecretPattern fills the secret region with one of two fixed
// patterns: word i holds 2i (pattern A) or 2i+1 (pattern B). The
// patterns differ in every word and in the low bit, so any gadget that
// transmits through an address, a branch or a div trap diverges between
// them. Pattern A's word 0 is zero, which makes divide-by-secret
// gadgets trap on exactly one side.
func (g *Generator) plantSecretPattern(m *mem.Memory, odd bool) {
	for i := 0; i < g.cfg.SecretWords; i++ {
		v := uint64(2 * i)
		if odd {
			v++
		}
		m.WriteWord(mem.Addr(g.cfg.SecretBase)+mem.Addr(i*8), v)
	}
}

// LeakObservation is what the differential leak detector compares
// between two runs: attacker-visible timing and the cache-state
// fingerprints. Register and memory contents are deliberately absent —
// a secret value sitting in a register is data flow, not a timing
// channel.
type LeakObservation struct {
	Cycles   uint64
	Squashes uint64
	TimedOut bool
	L1D      uint64
	L2       uint64
}

// DynamicLeak runs prog twice under scheme spec on one rewound machine,
// once per secret pattern, and reports whether any observable differs.
// Everything else — memory seed, machine seed, scheme RNG stream, noise
// (none) — is identical across the runs, so a difference is
// secret-dependent by construction: the ground truth the abstract
// interpreter is cross-checked against.
func (g *Generator) DynamicLeak(prog *isa.Program, spec string, o Options) (leaked bool, detail string, err error) {
	r := g.newRig(o)
	var obs [2]LeakObservation
	for i := range obs {
		scheme, err := o.newScheme(spec)
		if err != nil {
			return false, "", err
		}
		core := r.boot(scheme)
		g.plantSecretPattern(r.mem, i == 1)
		st := core.Run(prog)
		obs[i] = LeakObservation{Cycles: st.Cycles, Squashes: st.Squashes, TimedOut: st.TimedOut,
			L1D: r.hier.L1D().StateFingerprint(), L2: r.hier.L2().StateFingerprint()}
	}
	a, b := obs[0], obs[1]
	switch {
	case a.TimedOut != b.TimedOut:
		return true, fmt.Sprintf("timeout differs (%v vs %v)", a.TimedOut, b.TimedOut), nil
	case a.Cycles != b.Cycles:
		return true, fmt.Sprintf("cycles differ (%d vs %d)", a.Cycles, b.Cycles), nil
	case a.Squashes != b.Squashes:
		return true, fmt.Sprintf("squashes differ (%d vs %d)", a.Squashes, b.Squashes), nil
	case a.L1D != b.L1D:
		return true, fmt.Sprintf("L1D state differs (%#x vs %#x)", a.L1D, b.L1D), nil
	case a.L2 != b.L2:
		return true, fmt.Sprintf("L2 state differs (%#x vs %#x)", a.L2, b.L2), nil
	}
	return false, "", nil
}

// AbsintOptions maps this generator's memory layout onto the abstract
// interpreter's notion of the secret region.
func (g *Generator) AbsintOptions() absint.Options {
	return absint.Options{
		SecretBase:  g.cfg.SecretBase,
		SecretWords: g.cfg.SecretWords,
	}
}

// Analyze runs the abstract speculative-taint interpreter over prog
// with this generator's memory layout.
func (g *Generator) Analyze(prog *isa.Program) absint.Result {
	return absint.Analyze(prog, g.AbsintOptions())
}

// CheckAbsintSoundness cross-checks the abstract interpreter against
// the simulator's differential leak detector. Two properties:
//
//   - absint-witness: a Leaks verdict must carry a non-empty witness
//     whose final step is the transmitting instruction.
//   - absint-soundness: the analysis may never answer NoLeak for a
//     program where the detector observes a secret-dependent
//     difference under any scheme. (Unknown is always safe; Leaks on a
//     dynamically-quiet program is admissible over-approximation.)
func (g *Generator) CheckAbsintSoundness(prog *isa.Program, o Options) []Divergence {
	res := g.Analyze(prog)
	var out []Divergence
	if res.Verdict == absint.Leaks {
		out = append(out, checkWitness(res)...)
	}
	if res.Verdict != absint.NoLeak {
		// Only a NoLeak claim can be refuted dynamically.
		return out
	}
	for _, spec := range o.schemes() {
		leaked, detail, err := g.DynamicLeak(prog, spec, o)
		if err != nil {
			out = append(out, Divergence{
				Property: "absint-soundness",
				Scheme:   spec,
				Detail:   "detector error: " + err.Error(),
			})
			continue
		}
		if leaked {
			out = append(out, Divergence{
				Property: "absint-soundness",
				Scheme:   spec,
				Detail:   "absint verdict NoLeak but detector observed: " + detail,
			})
		}
	}
	return out
}

// checkWitness validates the shape of a Leaks verdict's evidence.
func checkWitness(res absint.Result) []Divergence {
	bad := func(detail string) []Divergence {
		return []Divergence{{Property: "absint-witness", Scheme: "static", Detail: detail}}
	}
	if len(res.Findings) == 0 {
		return bad("Leaks verdict with no findings")
	}
	f := res.Findings[0]
	if len(f.Path) == 0 {
		return bad("finding has an empty witness path")
	}
	if last := f.Path[len(f.Path)-1]; last.PC != f.PC {
		return bad(fmt.Sprintf("witness ends at pc %d, finding is at pc %d", last.PC, f.PC))
	}
	if f.Kind == isa.SinkAddress && !f.Inst.Op.FormsAddress() {
		return bad(fmt.Sprintf("address transmit finding names %s, not a memory op", f.Inst.Op))
	}
	return nil
}
