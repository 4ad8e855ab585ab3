package cpu

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/branch"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// TestConfigValidateNamesField checks that each rejected field is
// named in the error.
func TestConfigValidateNamesField(t *testing.T) {
	for _, tc := range []struct {
		field string
		edit  func(*Config)
	}{
		{"ROBSize", func(c *Config) { c.ROBSize = 0 }},
		{"IssueWindow", func(c *Config) { c.IssueWindow = -1 }},
		{"LoadPorts", func(c *Config) { c.LoadPorts = 0 }},
		{"MaxCycles", func(c *Config) { c.MaxCycles = 0 }},
		{"ALULatency", func(c *Config) { c.ALULatency = -1 }},
		{"MulLatency", func(c *Config) { c.MulLatency = -3 }},
		{"BranchLatency", func(c *Config) { c.BranchLatency = -1 }},
		{"SquashPenalty", func(c *Config) { c.SquashPenalty = math.MinInt }},
		{"ClockGHz", func(c *Config) { c.ClockGHz = 0 }},
		{"ClockGHz", func(c *Config) { c.ClockGHz = -2 }},
		{"ClockGHz", func(c *Config) { c.ClockGHz = math.NaN() }},
		{"ClockGHz", func(c *Config) { c.ClockGHz = math.Inf(1) }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Validate() = %v, want an error naming the field", tc.field, err)
		}
	}
	zero := DefaultConfig()
	zero.ALULatency, zero.MulLatency, zero.BranchLatency, zero.SquashPenalty = 0, 0, 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("zero latencies rejected: %v", err)
	}
}

// fuzzProgram exercises every issue path on one short run: cold loads,
// a store/load pair, a divide, RDTSC, a fence, and a loop branch that
// mispredicts on exit.
func fuzzProgram() *isa.Program {
	b := isa.NewBuilder()
	b.Const(1, 0x30000).Const(2, 0).Const(3, 3)
	b.Label("loop").
		Load(4, 1, 0).
		Add(5, 4, 2).
		Store(1, 8, 5).
		Load(6, 1, 8).
		Div(7, 6, 3).
		RdTSC(9).
		AddI(2, 2, 1).
		AddI(1, 1, 64).
		BranchLT(2, 3, "loop").
		Fence().
		Load(10, 1, 4096).
		Halt()
	return b.MustBuild()
}

// FuzzConfig drives Config.Validate and New with arbitrary core
// configurations: sizes are folded into [-1, 255] and the watchdog into
// [0, 4095] cycles so a run stays short, while latencies, the fetch-
// timing switch and the clock pass through raw. A configuration either
// fails validation, identically for both cores, or runs the fixed
// program with the same events, stats and registers on the event-driven
// core as on the scanning reference. It never panics.
func FuzzConfig(f *testing.F) {
	d := DefaultConfig()
	f.Add(int64(d.ROBSize), int64(d.FetchWidth), int64(d.IssueWidth), int64(d.IssueWindow),
		int64(d.RetireWidth), int64(d.LoadPorts), int64(d.ALULatency), int64(d.MulLatency),
		int64(d.BranchLatency), int64(d.SquashPenalty), d.FetchTiming, uint64(4000), d.ClockGHz)
	prog := fuzzProgram()
	size := func(v int64) int {
		if v >= -1 && v <= 255 {
			return int(v)
		}
		return int((v%257+257)%257) - 1
	}
	f.Fuzz(func(t *testing.T, rob, fetch, issue, window, retire, ports, alu, mul, br, squash int64,
		fetchTiming bool, maxCycles uint64, ghz float64) {
		cfg := Config{
			ROBSize: size(rob), FetchWidth: size(fetch), IssueWidth: size(issue),
			IssueWindow: size(window), RetireWidth: size(retire), LoadPorts: size(ports),
			ALULatency: int(alu), MulLatency: int(mul), BranchLatency: int(br), SquashPenalty: int(squash),
			FetchTiming: fetchTiming, MaxCycles: maxCycles % 4096, ClockGHz: ghz,
		}
		parts := func() (*memsys.Hierarchy, branch.Direction, undo.Scheme) {
			m := mem.NewMemory()
			m.WriteWord(0x30000, 7)
			return memsys.MustNew(memsys.DefaultConfig(3), m), branch.New(branch.DefaultConfig()), undo.NewCleanupSpec()
		}
		h, p, s := parts()
		fast, err := New(cfg, h, p, s, noise.None{})
		h, p, s = parts()
		ref, refErr := newScanCore(cfg, h, p, s, noise.None{})
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%+v: New error %v, reference %v", cfg, err, refErr)
		}
		if err != nil {
			return
		}
		var fl, rl eventLog
		fast.SetTracer(&fl)
		ref.SetTracer(&rl)
		fs, rs := fast.Run(prog), ref.Run(prog)
		if !reflect.DeepEqual(fl.evs, rl.evs) {
			t.Fatalf("%+v: %d events, reference %d (or they differ)", cfg, len(fl.evs), len(rl.evs))
		}
		if !reflect.DeepEqual(fs, rs) || fast.regs != ref.regs {
			t.Fatalf("%+v: stats %+v, reference %+v", cfg, fs, rs)
		}
	})
}
