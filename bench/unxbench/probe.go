package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/memsys"
	"repro/internal/telemetry"
	"repro/internal/undo"
)

// This file holds the traced run's probes. They sit outside the
// simulator: timers around public calls, a forwarding undo.Scheme, the
// Go runtime's own metrics, and a CPU profile summarised by
// `go tool pprof -top`.

// squashTimer accumulates the host time one goroutine's wrapped schemes
// spend in OnSquash. It is written by that goroutine only.
type squashTimer struct {
	on    bool
	calls uint64
	ns    time.Duration
}

// timedScheme forwards every undo.Scheme call to the wrapped scheme and,
// while its timer is on, times OnSquash. It also forwards the optional
// interfaces the machine looks for (state capture for snapshots and
// telemetry binding), so a machine behaves bit-identically with or
// without it.
type timedScheme struct {
	undo.Scheme
	t *squashTimer
}

// stateful is the capture interface machine snapshots require of every
// component; every undo scheme implements it.
type stateful interface {
	SaveState() any
	RestoreState(any)
}

func (s *timedScheme) OnSquash(h *memsys.Hierarchy, ctx undo.SquashContext) undo.Result {
	if !s.t.on {
		return s.Scheme.OnSquash(h, ctx)
	}
	start := time.Now()
	r := s.Scheme.OnSquash(h, ctx)
	s.t.ns += time.Since(start)
	s.t.calls++
	return r
}

func (s *timedScheme) SaveState() any { return s.Scheme.(stateful).SaveState() }

func (s *timedScheme) RestoreState(v any) { s.Scheme.(stateful).RestoreState(v) }

func (s *timedScheme) SetMetrics(r *telemetry.Registry) {
	if ms, ok := s.Scheme.(interface{ SetMetrics(*telemetry.Registry) }); ok {
		ms.SetMetrics(r)
	}
}

// runtimeSample is a reading of the Go runtime counters the traced run
// reports per op.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
	userSys                  time.Duration
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{
		allocBytes: u(0), allocObjects: u(1), gcCPU: f(2), totalCPU: f(3),
		userSys: processCPU(),
	}
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB collects garbage and returns the live Go heap in MiB: the
// memory the set-up machines, runners and generators hold. Unlike the
// process's peak resident set, it does not depend on when the collector
// happened to run.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// startProfile starts the CPU profile of the traced phase; the returned
// func stops it and closes the file.
func startProfile(path string) (func() error, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

// profileRow is one line of `go tool pprof -top`: the function and its
// flat and cumulative shares of all samples.
type profileRow struct {
	fn        string
	flat, cum float64 // fractions of the profile total
}

// summariseProfile runs `go tool pprof -top` on a CPU profile and
// parses its table.
func summariseProfile(path string) ([]profileRow, error) {
	cmd := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000",
		"-nodefraction=0", "-edgefraction=0", path)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	return parseTop(strings.NewReader(string(out)))
}

// parseTop parses the table `go tool pprof -top` prints:
//
//	 flat  flat%   sum%        cum   cum%
//	2.10s 21.88% 21.88%      6.20s 64.58%  repro/internal/cpu.(*CPU).issue
//
// Header lines before the column titles are skipped, and the
// " (inline)" mark is dropped from function names.
func parseTop(r io.Reader) ([]profileRow, error) {
	var rows []profileRow
	inTable := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if !inTable {
			inTable = strings.HasPrefix(line, "flat") && strings.Contains(line, "cum%")
			continue
		}
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		flat, err1 := parsePercent(f[1])
		cum, err2 := parsePercent(f[4])
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("pprof -top: malformed row %q", line)
		}
		fn := strings.TrimSuffix(strings.Join(f[5:], " "), " (inline)")
		rows = append(rows, profileRow{fn: fn, flat: flat, cum: cum})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !inTable {
		return nil, fmt.Errorf("pprof -top: no table in output")
	}
	return rows, nil
}

func parsePercent(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	return v / 100, err
}

// funcPackage returns the import path of a profiled function name:
// "repro/internal/cpu.(*CPU).issue" → "repro/internal/cpu",
// "runtime.mallocgc" → "runtime".
func funcPackage(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// profiledPackages are the layers whose flat CPU share the traced run
// reports as prof.<name>_frac, keyed by import path.
var profiledPackages = map[string]string{
	"repro/internal/cpu":         "cpu",
	"repro/internal/cache":       "cache",
	"repro/internal/memsys":      "memsys",
	"repro/internal/mem":         "mem",
	"repro/internal/undo":        "undo",
	"repro/internal/machine":     "machine",
	"repro/internal/engine":      "engine",
	"repro/internal/harness":     "harness",
	"repro/internal/unxpec":      "unxpec",
	"repro/internal/fuzz":        "fuzz",
	"repro/internal/isa":         "isa",
	"repro/internal/noise":       "noise",
	"repro/internal/branch":      "branch",
	"repro/internal/trace":       "trace",
	"repro/internal/experiments": "experiments",
	"runtime":                    "runtime",
}

// pipelineStages maps the core's stage functions to stage.<name>_frac,
// their cumulative CPU share.
var pipelineStages = map[string]string{
	"repro/internal/cpu.(*CPU).fetch":       "fetch",
	"repro/internal/cpu.(*CPU).issue":       "issue",
	"repro/internal/cpu.(*CPU).operandsVia": "operands",
	"repro/internal/cpu.(*CPU).complete":    "complete",
	"repro/internal/cpu.(*CPU).retire":      "retire",
	"repro/internal/cpu.(*CPU).nextWakeup":  "wakeup",
}

// profileMetrics rolls the profile rows up into the prof.* and stage.*
// per-layer metrics; every listed package and stage is present, at 0
// when the profile never sampled it.
func profileMetrics(rows []profileRow) map[string]float64 {
	out := map[string]float64{}
	for _, name := range profiledPackages {
		out["prof."+name+"_frac"] = 0
	}
	for _, name := range pipelineStages {
		out["stage."+name+"_frac"] = 0
	}
	for _, r := range rows {
		if name, ok := profiledPackages[funcPackage(r.fn)]; ok {
			out["prof."+name+"_frac"] += r.flat
		}
		if name, ok := pipelineStages[r.fn]; ok {
			out["stage."+name+"_frac"] = r.cum
		}
	}
	return out
}
