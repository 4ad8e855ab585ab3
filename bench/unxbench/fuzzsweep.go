package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/fuzz"
	"repro/internal/isa"
	"repro/internal/telemetry"
	"repro/internal/undo"
)

// fuzzSweep is the differential fuzzer on one goroutine: program i is
// generated from seed+i (cmd/fuzz's schedule) and checked for
// architectural equivalence, rollback completeness and determinism
// across every undo scheme, each on freshly built machines. One op is
// one generated and checked program.
type fuzzSweep struct {
	p     params
	eng   *engine.Pool
	gen   *fuzz.Generator
	timer squashTimer
	wrap  func(undo.Scheme) undo.Scheme // the timed wrapper, once traced

	// prefix programs and their divergence counts, by op index.
	progs []*isa.Program
	divs  []int

	steps [3][]time.Duration // generate, CheckProgram, CheckDeterminism (traced)
}

const fuzzWarmupPrograms = 5

func fuzzPrefix(quick bool) int {
	if quick {
		return 4
	}
	return 1000
}

// fuzzReplayed is how many programs are replayed on instrumented
// machines for simulated cycle counts.
func fuzzReplayed(quick bool) int {
	if quick {
		return 2
	}
	return 20
}

func setupFuzz(p params) (instance, error) {
	gen, err := fuzz.New(fuzz.DefaultConfig())
	if err != nil {
		return nil, err
	}
	f := &fuzzSweep{p: p, eng: engine.New(engine.Config{Workers: 1}), gen: gen}
	f.progs = make([]*isa.Program, fuzzPrefix(p.quick))
	f.divs = make([]int, fuzzPrefix(p.quick))
	// Warm up on seeds just below the sweep's, so the timed programs
	// are exactly cmd/fuzz -seed <seed>'s.
	for k := 1; k <= fuzzWarmupPrograms; k++ {
		if err := f.check(p.seed-int64(k), -1); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return f, nil
}

func (f *fuzzSweep) pool() *engine.Pool { return f.eng }

func (f *fuzzSweep) op(_ *engine.Worker, i int) error {
	return f.check(f.p.seed+int64(i), i)
}

func (f *fuzzSweep) options(s int64) fuzz.Options {
	return fuzz.Options{MemSeed: s + 1000, MachineSeed: s, Wrap: f.wrap}
}

// check generates and checks the program of seed s; i is its op index
// (-1 during warm-up). A panic inside the checks is contained and
// reported as the op's error.
func (f *fuzzSweep) check(s int64, i int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("seed %d: panic: %v", s, p)
		}
	}()
	opts := f.options(s)
	t0 := time.Now()
	prog := f.gen.Program(s)
	t1 := time.Now()
	divs := f.gen.CheckProgram(prog, opts)
	t2 := time.Now()
	divs = append(divs, f.gen.CheckDeterminism(prog, opts)...)
	if f.wrap != nil {
		f.steps[0] = append(f.steps[0], t1.Sub(t0))
		f.steps[1] = append(f.steps[1], t2.Sub(t1))
		f.steps[2] = append(f.steps[2], time.Since(t2))
	}
	if i >= 0 && i < len(f.progs) {
		f.progs[i], f.divs[i] = prog, len(divs)
	}
	if len(divs) > 0 {
		return fmt.Errorf("seed %d: %d divergence(s), first %s", s, len(divs), divs[0].String())
	}
	return nil
}

func (f *fuzzSweep) traceOn(*telemetry.Registry) {
	f.timer.on = true
	f.wrap = func(s undo.Scheme) undo.Scheme { return &timedScheme{Scheme: s, t: &f.timer} }
}

// replay runs n programs from op index first once per scheme on
// instrumented machines and returns their merged telemetry.
func (f *fuzzSweep) replay(first, n int) (telemetry.Snapshot, error) {
	reg := telemetry.NewRegistry()
	for i := first; i < first+n; i++ {
		s := f.p.seed + int64(i)
		o := f.options(s)
		o.Wrap = nil
		snaps, err := f.gen.Telemetry(f.gen.Program(s), o)
		if err != nil {
			return telemetry.Snapshot{}, err
		}
		for _, spec := range fuzz.AllSchemes {
			reg.Absorb(snaps[spec])
		}
	}
	return reg.Snapshot(), nil
}

// layers reads the cpu, cache and undo counts off a replay of the traced
// phase's first programs: an op runs every scheme three times (once in
// CheckProgram, twice in CheckDeterminism) on identical fresh machines,
// so its counts are three times the replay's per program.
func (f *fuzzSweep) layers(_ *telemetry.Registry, ph phase) map[string]float64 {
	n := fuzzReplayed(f.p.quick)
	m := squashLayers([]*squashTimer{&f.timer}, ph)
	// A replay error leaves these counts at 0; verify replays the same
	// way and fails the run on it.
	if snap, err := f.replay(ph.first, n); err == nil {
		for k, v := range telemetryLayers(snap, float64(n)/3) {
			m[k] = v
		}
	}
	for k, name := range []string{"fuzz.generate_us_p50", "fuzz.check_program_ms_p50", "fuzz.check_determinism_ms_p50"} {
		p50 := percentile(sortedMicros(f.steps[k:k+1]), 50)
		if k > 0 {
			p50 /= 1000
		}
		m[name] = p50
	}
	return m
}

// verify hashes the prefix programs, their verdicts and the simulated
// cycles of a replayed few; divergences and panics already failed their
// ops.
func (f *fuzzSweep) verify(int) (checked, error) {
	h := sha256.New()
	var insts uint64
	for i, prog := range f.progs {
		fmt.Fprintf(h, "seed %d divergences %d\n", f.p.seed+int64(i), f.divs[i])
		io.WriteString(h, prog.Disassemble())
		insts += uint64(prog.Len())
	}
	snap, err := f.replay(0, fuzzReplayed(f.p.quick))
	cycles := snap.Counters["cpu_cycles_total"]
	fmt.Fprintf(h, "replayed cycles %d retired %d squashes %d\n",
		cycles, snap.Counters["cpu_retired_total"], snap.Counters["cpu_squashes_total"])
	v := checked{
		digest: fmt.Sprintf("%x", h.Sum(nil)),
		counts: map[string]uint64{
			"prefix_programs":     uint64(len(f.progs)),
			"prefix_instructions": insts,
			"replay_sim_cycles":   cycles,
		},
	}
	if err != nil {
		v.failed = 1
		return v, fmt.Errorf("telemetry replay: %w", err)
	}
	return v, nil
}
