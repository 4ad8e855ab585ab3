// Command unxbench is the repository benchmark. It runs one of four
// closed-loop workloads against the simulator's public package APIs,
// checks every output, and prints each metric with its unit. The last
// line of standard output is a JSON summary:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics. A traced
// run (--trace 1) splits its time in two: an untraced half, then a half
// with telemetry, the timed undo wrapper and a CPU profile attached, and
// reports the per-layer metrics of the second half.
//
// Usage:
//
//	unxbench --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
//	unxbench --workload all --seed N --seconds S --trace 0|1 [--out DIR]
//	unxbench compare A.json... -- B.json...
//
// bench/run.sh builds the command from source and runs it; see
// bench/README.md for the workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/telemetry"
)

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object printed as the last line of stdout.
type summary struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is the full result of one run, written by --out and read by
// the compare subcommand.
type record struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   float64          `json:"seconds"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Samples is how many op latencies the percentiles were taken from.
	Samples   int               `json:"samples"`
	SimDigest string            `json:"sim_digest"`
	SimCounts map[string]uint64 `json:"sim_counts"`
	Errors    []string          `json:"errors,omitempty"`
}

func (r *record) summary() summary {
	return summary{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: r.Metrics}
}

// options are the run flags.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	quick    bool
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(runCompare(os.Args[2:], os.Stdout, os.Stderr))
	}
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxbench:", err)
		os.Exit(2)
	}
	if o.workload == "all" {
		os.Exit(runAll(o))
	}
	rec, err := runOne(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxbench:", err)
		os.Exit(1)
	}
	if err := emit(os.Stdout, rec, o.out); err != nil {
		fmt.Fprintln(os.Stderr, "unxbench:", err)
		os.Exit(1)
	}
	if !rec.Correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("unxbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+workloadNames()+", or all")
	fs.Int64Var(&o.seed, "seed", 42, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 30, "length of the timed phase in seconds")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics of a traced run, 0 the end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "write the full run record as JSON to this file (a directory with -workload all); a traced run writes its CPU profile next to it")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes and no golden check, for smoke tests")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	if o.seconds <= 0 {
		return o, fmt.Errorf("-seconds must be positive")
	}
	if _, ok := workloadByName(o.workload); !ok && o.workload != "all" {
		return o, fmt.Errorf("unknown workload %q (want %s or all)", o.workload, workloadNames())
	}
	return o, nil
}

// runOne sets up, measures and verifies one workload.
func runOne(o options) (*record, error) {
	wl, _ := workloadByName(o.workload)
	p := params{seed: o.seed, quick: o.quick, traced: o.trace}

	setUp := func() (instance, time.Duration, error) {
		start := time.Now()
		inst, err := wl.setup(p)
		if err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		return inst, time.Since(start), nil
	}
	// The instance measured is the first one set up. The other set-ups
	// run after the timed phases, in a warm process, so the start-up
	// transient of a fresh process cannot decide setup_s's median.
	inst, firstSetup, err := setUp()
	if err != nil {
		return nil, err
	}

	d := time.Duration(o.seconds * float64(time.Second))
	if o.trace {
		d /= 2
	}
	a := measure(inst, wl.batch, 0, d, wl.prefix(o.quick))
	heap := liveHeapMB()

	rec := &record{Workload: wl.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace}
	var b phase
	if o.trace {
		reg := telemetry.NewRegistry()
		inst.traceOn(reg)
		path := profilePath(o)
		stop, err := startProfile(path)
		if err != nil {
			return nil, err
		}
		before := readRuntime()
		b = measure(inst, wl.batch, a.ops, d, 1)
		after := readRuntime()
		if err := stop(); err != nil {
			return nil, fmt.Errorf("writing CPU profile: %w", err)
		}
		rows, err := summariseProfile(path)
		if err != nil {
			return nil, err
		}
		rec.Metrics = layerMetrics(inst, reg, a, b, before, after, rows)
	}

	v, verr := inst.verify(a.ops + b.ops)
	setups := []time.Duration{firstSetup}
	for r := 1; r < wl.reps; r++ {
		_, t, err := setUp()
		if err != nil {
			return nil, err
		}
		setups = append(setups, t)
	}
	if !o.trace {
		rec.Samples = a.samples()
		rec.Metrics = withUnits(endToEnd, map[string]float64{
			"setup_s":      durationsMedian(setups),
			"ops_per_s":    a.opsPerSecond(),
			"op_p50_us":    a.windowMedian(func(w window) float64 { return w.p50 }),
			"op_p99_us":    a.windowMedian(func(w window) float64 { return w.p99 }),
			"live_heap_mb": heap,
		})
	}
	rec.Attempted = a.ops + b.ops
	rec.Failed = a.failed + b.failed + v.failed
	rec.SimDigest, rec.SimCounts = v.digest, v.counts
	for _, err := range []error{a.firstErr, b.firstErr, verr} {
		if err != nil {
			rec.Errors = append(rec.Errors, err.Error())
		}
	}
	rec.Correct = rec.Failed == 0 && len(rec.Errors) == 0
	return rec, nil
}

// layerMetrics assembles a traced run's per-layer metrics: the common
// ones from telemetry, the runtime and the profile, then the workload's
// own, then 0 for any layer this workload never reached.
func layerMetrics(inst instance, reg *telemetry.Registry, a, b phase, before, after runtimeSample, rows []profileRow) map[string]value {
	own := inst.layers(reg, b) // first: it may fold worker registries into reg
	ops := float64(b.ops)
	m := telemetryLayers(reg.Snapshot(), ops)
	m["engine.busy_frac"] = b.busy.Seconds() / (float64(b.workers) * b.elapsed.Seconds())
	m["go.alloc_bytes_per_op"] = float64(after.allocBytes-before.allocBytes) / ops
	m["go.allocs_per_op"] = float64(after.allocObjects-before.allocObjects) / ops
	if total := after.totalCPU - before.totalCPU; total > 0 {
		m["go.gc_cpu_frac"] = (after.gcCPU - before.gcCPU) / total
	}
	if rb := b.opsPerSecond(); rb > 0 {
		m["trace.overhead_frac"] = a.opsPerSecond()/rb - 1
	}
	for k, v := range profileMetrics(rows) {
		m[k] = v
	}
	for k, v := range own {
		m[k] = v
	}
	// Host CPU time per simulated cycle and per retired instruction.
	cpuPerOp := float64(after.userSys-before.userSys) / ops
	if c := m["cpu.sim_cycles_per_op"]; c > 0 {
		m["cpu.host_ns_per_sim_cycle"] = cpuPerOp / c
	}
	if r := m["cpu.retired_per_op"]; r > 0 {
		m["cpu.host_ns_per_retired"] = cpuPerOp / r
	}
	return withUnits(perLayer, m)
}

// withUnits reports every metric of defs, with its unit, reading 0 where
// m has no value.
func withUnits(defs []metricDef, m map[string]float64) map[string]value {
	out := make(map[string]value, len(defs))
	for _, def := range defs {
		out[def.name] = value{m[def.name], def.unit}
	}
	return out
}

// telemetryLayers derives the cpu/cache/undo per-op metrics from a
// registry snapshot covering ops ops.
func telemetryLayers(s telemetry.Snapshot, ops float64) map[string]float64 {
	c := func(name string) float64 { return float64(s.Counters[name]) }
	m := map[string]float64{}
	cycles := c("cpu_cycles_total")
	m["cpu.sim_cycles_per_op"] = cycles / ops
	m["cpu.retired_per_op"] = c("cpu_retired_total") / ops
	m["cpu.squashes_per_op"] = c("cpu_squashes_total") / ops
	if cycles > 0 {
		m["cpu.ff_skipped_frac"] = c("cpu_skipped_cycles_total") / cycles
	}
	m["cpu.rob_occupancy_mean"] = s.Histograms["cpu_rob_occupancy"].Mean()
	m["cache.l1d_misses_per_op"] = c("cache_l1d_misses_total") / ops
	m["cache.l2_misses_per_op"] = c("cache_l2_misses_total") / ops
	m["mshr.stalls_per_op"] = c("mshr_stalls_total") / ops
	m["memsys.restorations_per_op"] = c("hier_restorations_total") / ops
	m["undo.invalidated_per_op"] = c("undo_invalidated_total") / ops
	m["undo.restored_per_op"] = c("undo_restored_total") / ops
	m["undo.rollback_stall_cycles_mean"] = s.Histograms["undo_rollback_stall_cycles"].Mean()
	return m
}

// squashLayers reports the timed undo wrapper's per-layer metrics over
// a traced phase.
func squashLayers(timers []*squashTimer, ph phase) map[string]float64 {
	var calls uint64
	var ns time.Duration
	for _, t := range timers {
		calls += t.calls
		ns += t.ns
	}
	m := map[string]float64{"undo.onsquash_calls_per_op": float64(calls) / float64(ph.ops)}
	if calls > 0 {
		m["undo.onsquash_ns_mean"] = float64(ns) / float64(calls)
	}
	if ph.busy > 0 {
		m["undo.onsquash_frac"] = float64(ns) / float64(ph.busy)
	}
	return m
}

// profilePath is where a traced run writes its CPU profile: next to the
// -out record (run.json → run.cpu.pprof), else in .bench_build/.
func profilePath(o options) string {
	if o.out != "" {
		return strings.TrimSuffix(o.out, ".json") + ".cpu.pprof"
	}
	os.MkdirAll(".bench_build", 0o755) // a failure surfaces when the profile is created
	return filepath.Join(".bench_build", o.workload+".cpu.pprof")
}

// emit prints the human-readable report and the JSON summary line, and
// writes the full record to out when set.
func emit(w io.Writer, rec *record, out string) error {
	fmt.Fprintf(w, "workload %s  seed %d  seconds %g  trace %v\n", rec.Workload, rec.Seed, rec.Seconds, rec.Trace)
	names := make([]string, 0, len(rec.Metrics))
	for k := range rec.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-34s %14s %s\n", k, strconv.FormatFloat(rec.Metrics[k].Value, 'g', 6, 64), rec.Metrics[k].Unit)
	}
	fmt.Fprintf(w, "  ops %d  failed %d  latency samples %d  sim_digest %s\n",
		rec.Attempted, rec.Failed, rec.Samples, rec.SimDigest)
	for _, e := range rec.Errors {
		fmt.Fprintf(w, "  ERROR %s\n", e)
	}
	if out != "" {
		buf, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(buf, '\n'), 0o644); err != nil {
			return err
		}
	}
	line, err := json.Marshal(rec.summary())
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", line)
	return nil
}

// runAll runs every workload in its own child process, so no workload
// inherits another's heap, and prints a combined summary whose metric
// names are prefixed with the workload.
func runAll(o options) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "unxbench:", err)
		return 1
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "unxbench:", err)
			return 1
		}
	}
	total := summary{Correct: true, Metrics: map[string]value{}}
	code := 0
	for _, wl := range workloads {
		args := []string{"-workload", wl.name, "-seed", strconv.FormatInt(o.seed, 10),
			"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64)}
		if o.trace {
			args = append(args, "-trace", "1")
		}
		if o.quick {
			args = append(args, "-quick")
		}
		if o.out != "" {
			args = append(args, "-out", filepath.Join(o.out, wl.name+".json"))
		}
		last, err := runChild(self, args, os.Stdout)
		var s summary
		if err == nil {
			err = json.Unmarshal([]byte(last), &s)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "unxbench: %s: %v\n", wl.name, err)
			total.Correct = false
			code = 1
			continue
		}
		total.Correct = total.Correct && s.Correct
		total.Attempted += s.Attempted
		total.Failed += s.Failed
		for k, v := range s.Metrics {
			total.Metrics[wl.name+"."+k] = v
		}
	}
	line, _ := json.Marshal(total) // maps of plain values always marshal
	fmt.Printf("%s\n", line)
	if !total.Correct {
		code = 1
	}
	return code
}

// runChild runs the benchmark binary with args, copying its stdout to
// w, and returns the last line it printed.
func runChild(bin string, args []string, w io.Writer) (string, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return "", err
	}
	if err := cmd.Start(); err != nil {
		return "", err
	}
	var last string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		last = sc.Text()
		fmt.Fprintln(w, last)
	}
	werr := cmd.Wait()
	var exit *exec.ExitError
	if werr != nil && !errors.As(werr, &exit) {
		return "", werr
	}
	if last == "" {
		return "", fmt.Errorf("no output (%v)", werr)
	}
	return last, nil
}
