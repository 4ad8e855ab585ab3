package fuzz

import (
	"fmt"
	"hash/fnv"
	"strings"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/undo"
)

// AllSchemes is the default scheme matrix the differential properties
// run against: the undefended baseline, the CleanupSpec Undo defense
// under attack, both constant-time countermeasures, the fuzzy-time
// proposal, and the Invisible-style comparison point. Specs are
// undo.Parse inputs so the CLI and tests share one vocabulary.
var AllSchemes = []string{
	"unsafe", "cleanupspec", "const-45", "strict-20", "fuzzy-40", "invisible",
}

// Divergence is one property violation. A nil *Divergence means the
// property held.
type Divergence struct {
	// Property names the violated property: "arch-state",
	// "pipeline-invariant", "spec-residue", "determinism",
	// "containment", "snapshot", "timeout".
	Property string
	// Scheme is the undo scheme under which the violation appeared.
	Scheme string
	// Detail is a human-readable description of the mismatch.
	Detail string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("[%s] scheme %s: %s", d.Property, d.Scheme, d.Detail)
}

// Options configures a property run.
type Options struct {
	// Schemes lists the undo.Parse specs to differentiate across.
	// Empty means AllSchemes.
	Schemes []string
	// MemSeed seeds the data-region contents.
	MemSeed int64
	// MachineSeed seeds the hierarchy (L1 replacement, L2 mapping) and
	// the scheme's own randomness.
	MachineSeed int64
	// Wrap, when non-nil, wraps every constructed scheme — the fault-
	// injection hook the self-tests and `cmd/fuzz -inject` use to prove
	// the properties have teeth.
	Wrap func(undo.Scheme) undo.Scheme
	// MaxSteps bounds the reference interpreter (0 = 200k).
	MaxSteps uint64
	// SnapshotForks is how many fuzz-selected fork cycles
	// CheckSnapshotInvariance tries per program and scheme (0 = 3).
	SnapshotForks int
}

func (o Options) schemes() []string {
	if len(o.Schemes) == 0 {
		return AllSchemes
	}
	return o.Schemes
}

func (o Options) snapshotForks() int {
	if o.SnapshotForks <= 0 {
		return 3
	}
	return o.SnapshotForks
}

func (o Options) maxSteps() uint64 {
	if o.MaxSteps == 0 {
		return 200_000
	}
	return o.MaxSteps
}

func (o Options) newScheme(spec string) (undo.Scheme, error) {
	s, err := undo.Parse(spec, o.MachineSeed)
	if err != nil {
		return nil, err
	}
	if o.Wrap != nil {
		s = o.Wrap(s)
	}
	return s, nil
}

// memAdapter lets mem.Memory satisfy isa.InterpMemory.
type memAdapter struct{ m *mem.Memory }

func (a memAdapter) ReadWord(addr uint64) uint64     { return a.m.ReadWord(mem.Addr(addr)) }
func (a memAdapter) WriteWord(addr uint64, v uint64) { a.m.WriteWord(mem.Addr(addr), v) }

// rig is the scheme-independent part of a fuzz machine — memory,
// hierarchy and predictor for one MemSeed and MachineSeed — with their
// cold state. A check call builds one, boots a fresh core and scheme on
// it per run, and drops it on return; the Generator stays stateless.
type rig struct {
	mem      *mem.Memory
	hier     *memsys.Hierarchy
	pred     *branch.Predictor
	coldMem  *mem.Memory
	coldHier *memsys.State
	coldPred any
}

// newRig builds the parts from scratch and records their cold state.
func (g *Generator) newRig(o Options) *rig {
	m := mem.NewMemory()
	g.InitMemory(o.MemSeed, m)
	r := &rig{mem: m, hier: memsys.MustNew(memsys.DefaultConfig(o.MachineSeed), m), pred: branch.New(branch.DefaultConfig())}
	r.coldMem, r.coldHier, r.coldPred = m.Fork(), r.hier.SaveState(), r.pred.SaveState()
	return r
}

// boot rewinds the parts to their cold state and returns a fresh core
// running scheme on them.
func (r *rig) boot(scheme undo.Scheme) *cpu.CPU {
	r.mem.Restore(r.coldMem)
	r.hier.RestoreState(r.coldHier)
	r.pred.RestoreState(r.coldPred)
	return cpu.MustNew(cpu.DefaultConfig(), r.hier, r.pred, scheme, noise.None{})
}

// runResult is one core execution's observable outcome. Its memory is
// the rig's, so compare it before the rig's next run.
type runResult struct {
	regs     [isa.NumRegs]uint64
	memory   *mem.Memory
	cycles   uint64
	traceSum uint64
	squashes uint64
	timedOut bool
	checker  *trace.Checker
	residue  []mem.Addr
}

// run executes prog under scheme on the rewound rig.
func (r *rig) run(prog *isa.Program, scheme undo.Scheme) runResult {
	core := r.boot(scheme)
	checker := trace.NewChecker()
	hasher := newTraceHasher(checker)
	core.SetTracer(hasher)
	st := core.Run(prog)

	res := runResult{
		memory:   r.mem,
		cycles:   st.Cycles,
		traceSum: hasher.Sum(),
		squashes: st.Squashes,
		timedOut: st.TimedOut,
		checker:  checker,
	}
	for reg := isa.Reg(1); reg < isa.NumRegs; reg++ {
		res.regs[reg] = core.Reg(reg)
	}
	// Rollback-completeness audit: once the program halts every branch
	// has resolved, so no cache line may still carry a speculative
	// mark. A scheme that "forgot" to invalidate or commit a transient
	// line leaves exactly this residue behind.
	res.residue = append(r.hier.L1D().SpeculativeLines(), r.hier.L2().SpeculativeLines()...)
	return res
}

// CheckProgram runs the architectural-equivalence and rollback-
// completeness properties for one program: the reference interpreter
// and every scheme must agree on final registers and data-region
// memory, pipeline invariants must hold, and no speculative residue
// may survive the run. It returns every divergence found (empty =
// program passes).
func (g *Generator) CheckProgram(prog *isa.Program, o Options) []Divergence {
	refMem := mem.NewMemory()
	g.InitMemory(o.MemSeed, refMem)
	ref := isa.Interpret(prog, memAdapter{refMem}, [isa.NumRegs]uint64{}, o.maxSteps())
	if ref.TimedOut {
		return []Divergence{{
			Property: "timeout", Scheme: "reference",
			Detail: "reference interpreter exceeded its step budget (diverging program)",
		}}
	}

	var out []Divergence
	r := g.newRig(o)
	for _, spec := range o.schemes() {
		scheme, err := o.newScheme(spec)
		if err != nil {
			out = append(out, Divergence{Property: "arch-state", Scheme: spec, Detail: err.Error()})
			continue
		}
		res := r.run(prog, scheme)
		if res.timedOut {
			out = append(out, Divergence{Property: "timeout", Scheme: spec, Detail: "core watchdog tripped"})
			continue
		}
		if !res.checker.Ok() {
			out = append(out, Divergence{
				Property: "pipeline-invariant", Scheme: spec,
				Detail: strings.Join(res.checker.Violations, "; "),
			})
		}
		for r := isa.Reg(1); r < isa.NumRegs; r++ {
			if res.regs[r] != ref.Regs[r] {
				out = append(out, Divergence{
					Property: "arch-state", Scheme: spec,
					Detail: fmt.Sprintf("%s = %d, reference %d", r, res.regs[r], ref.Regs[r]),
				})
				break
			}
		}
		for i := 0; i < g.cfg.RegionWords; i++ {
			a := mem.Addr(g.cfg.RegionBase) + mem.Addr(i*8)
			if got, want := res.memory.ReadWord(a), refMem.ReadWord(a); got != want {
				out = append(out, Divergence{
					Property: "arch-state", Scheme: spec,
					Detail: fmt.Sprintf("memory %s = %d, reference %d", a, got, want),
				})
				break
			}
		}
		if len(res.residue) > 0 {
			out = append(out, Divergence{
				Property: "spec-residue", Scheme: spec,
				Detail: fmt.Sprintf("%d line(s) still marked speculative after halt (first %s)",
					len(res.residue), res.residue[0]),
			})
		}
	}
	return out
}

// CheckDeterminism runs prog twice under each scheme on one machine,
// rewound before each run, and requires identical cycle counts and
// trace hashes: identical seed ⇒ identical execution, the property that
// makes every witness in the corpus replayable. An incomplete rewind
// shows up here as a divergence too.
func (g *Generator) CheckDeterminism(prog *isa.Program, o Options) []Divergence {
	var out []Divergence
	r := g.newRig(o)
	for _, spec := range o.schemes() {
		s1, err := o.newScheme(spec)
		if err != nil {
			continue
		}
		s2, _ := o.newScheme(spec)
		a := r.run(prog, s1)
		b := r.run(prog, s2)
		if a.cycles != b.cycles {
			out = append(out, Divergence{
				Property: "determinism", Scheme: spec,
				Detail: fmt.Sprintf("cycle count %d vs %d across identical runs", a.cycles, b.cycles),
			})
		} else if a.traceSum != b.traceSum {
			out = append(out, Divergence{
				Property: "determinism", Scheme: spec,
				Detail: fmt.Sprintf("trace hash %x vs %x across identical runs", a.traceSum, b.traceSum),
			})
		}
	}
	return out
}

// LeakReport is the squash-containment verdict for one scheme.
type LeakReport struct {
	Scheme string
	// VictimAccuracy is the best threshold-classifier accuracy decoding
	// the secret from the victim's end-to-end time across the squash —
	// the unXpec observable. 0.5 is chance.
	VictimAccuracy float64
	// ProbeAccuracy decodes the secret from the attacker's reload of
	// the secret-1 probe line — the classic Flush+Reload observable.
	ProbeAccuracy float64
	// Trials is the sample count per secret value.
	Trials int
}

// Leaks reports whether either observable decodes the secret clearly
// above chance.
func (r LeakReport) Leaks(threshold float64) bool {
	return r.VictimAccuracy > threshold || r.ProbeAccuracy > threshold
}

func (r LeakReport) String() string {
	return fmt.Sprintf("scheme %s: victim-time accuracy %.2f, probe accuracy %.2f (%d trials/secret)",
		r.Scheme, r.VictimAccuracy, r.ProbeAccuracy, r.Trials)
}

// CheckContainment runs the metamorphic squash-containment property:
// the leak-gadget program runs with secret = 0 and secret = 1 on one
// rewound machine per machine seed, across `trials` seeds, and the
// attacker-visible timings are classified against the secret. Under a
// perfect defense both observables stay at chance; a report above the
// caller's threshold is a leak. (For cleanupspec the victim-time
// observable *should* leak — that is the paper's attack — which is
// exactly what makes this property useful for telling defenses apart.)
func (g *Generator) CheckContainment(spec string, trials int, o Options) (LeakReport, error) {
	if trials < 2 {
		trials = 2
	}
	prog := g.LeakGadget()
	var victim0, victim1, probe0, probe1 []float64
	for t := 0; t < trials; t++ {
		opts := o
		opts.MachineSeed = o.MachineSeed + int64(t)
		r := g.newRig(opts)
		for bit := 0; bit <= 1; bit++ {
			scheme, err := opts.newScheme(spec)
			if err != nil {
				return LeakReport{}, err
			}
			core := r.boot(scheme)
			g.PlantSecret(r.mem, bit)
			st := core.Run(prog)
			if st.TimedOut {
				return LeakReport{}, fmt.Errorf("fuzz: leak gadget timed out under %s", spec)
			}
			v := float64(core.Reg(RegVictimCycles))
			p := float64(core.Reg(RegProbeCycles))
			if bit == 0 {
				victim0, probe0 = append(victim0, v), append(probe0, p)
			} else {
				victim1, probe1 = append(victim1, v), append(probe1, p)
			}
		}
	}
	return LeakReport{
		Scheme:         spec,
		VictimAccuracy: sepAccuracy(victim0, victim1),
		ProbeAccuracy:  sepAccuracy(probe0, probe1),
		Trials:         trials,
	}, nil
}

// sepAccuracy is direction-agnostic threshold accuracy: the property
// cares whether the observable separates the secret classes at all, not
// which class sits above the cut (fast-hit channels like Flush+Reload
// put secret=1 *below* the threshold).
func sepAccuracy(class0, class1 []float64) float64 {
	_, fwd := stats.BestThreshold(class0, class1)
	_, rev := stats.BestThreshold(class1, class0)
	if rev > fwd {
		return rev
	}
	return fwd
}

// traceHasher forwards pipeline events to an inner checker while
// accumulating an order-sensitive FNV-1a hash of the full event stream;
// two runs with equal hashes executed cycle-for-cycle identically.
type traceHasher struct {
	inner cpu.Tracer
	sum   uint64
}

func newTraceHasher(inner cpu.Tracer) *traceHasher {
	h := fnv.New64a()
	h.Write([]byte("trace"))
	return &traceHasher{inner: inner, sum: h.Sum64()}
}

// Event implements cpu.Tracer.
func (t *traceHasher) Event(ev cpu.TraceEvent) {
	if t.inner != nil {
		t.inner.Event(ev)
	}
	mix := func(v uint64) {
		t.sum ^= v
		t.sum *= 1099511628211 // FNV-1a prime
	}
	mix(ev.Cycle)
	mix(uint64(len(ev.Kind)))
	for i := 0; i < len(ev.Kind); i++ {
		mix(uint64(ev.Kind[i]))
	}
	mix(ev.Seq)
	mix(uint64(ev.PC))
	mix(uint64(ev.Detail))
}

// Sum returns the accumulated trace hash.
func (t *traceHasher) Sum() uint64 { return t.sum }
