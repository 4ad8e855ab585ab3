package workload

import (
	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/telemetry"
	"repro/internal/undo"
)

// RunResult is one (workload, scheme) measurement.
type RunResult struct {
	Workload string
	Scheme   string
	Stats    cpu.Stats
}

// RunChecked executes w on a fresh Table I machine under the given
// scheme and returns the run statistics. Every run gets its own
// hierarchy and predictor so measurements are independent. When the
// core exhausts MaxCycles it returns the partial result plus a
// *cpu.WatchdogError (errors.Is(err, cpu.ErrWatchdog)), so a hung run
// cannot silently poison an overhead mean.
func RunChecked(w Workload, scheme undo.Scheme, seed int64) (RunResult, error) {
	return RunInstrumented(w, scheme, seed, nil, nil)
}

// RunInstrumented is RunChecked with the freshly built machine bound to
// a telemetry registry and handed to an observer before execution (both
// may be nil). The observer hook exists so harness cells can attach
// their watchdog/flight-recorder post-mortem to a machine the cell
// never otherwise sees.
func RunInstrumented(w Workload, scheme undo.Scheme, seed int64,
	reg *telemetry.Registry, observe func(core *cpu.CPU)) (RunResult, error) {
	backing := mem.NewMemory()
	w.Init(backing)
	hier := memsys.MustNew(memsys.DefaultConfig(seed), backing)
	core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), scheme, noise.None{})
	if reg != nil {
		core.SetMetrics(reg)
	}
	if observe != nil {
		observe(core)
	}
	st, err := core.RunChecked(w.Program)
	return RunResult{Workload: w.Name, Scheme: scheme.Name(), Stats: st}, err
}

// SchemeFactory builds a fresh scheme per run (schemes carry stats, so
// they must not be shared between runs).
type SchemeFactory struct {
	Name string
	New  func() undo.Scheme
}

// StandardSchemes returns the Figure 12 scheme ladder: the unsafe
// baseline, plain CleanupSpec, and relaxed constant-time rollback at the
// paper's five constants.
func StandardSchemes() []SchemeFactory {
	mk := func(name string, f func() undo.Scheme) SchemeFactory {
		return SchemeFactory{Name: name, New: f}
	}
	out := []SchemeFactory{
		mk("unsafe", func() undo.Scheme { return undo.NewUnsafe() }),
		mk("no-const", func() undo.Scheme { return undo.NewCleanupSpec() }),
	}
	for _, c := range []int{25, 30, 35, 45, 65} {
		c := c
		out = append(out, mk("const-"+itoa(c), func() undo.Scheme {
			return undo.NewConstantTime(c, undo.Relaxed)
		}))
	}
	return out
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
