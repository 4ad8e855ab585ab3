package main

// metricDef names one reported metric and its unit. BENCHMARK.json at
// the repository root lists the same names with their directions and
// bounds; catalogue_test.go keeps the two in step.
type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_us", "us"},
	{"op_p99_us", "us"},
	{"live_heap_mb", "MB"},
}

// perLayer are the metrics a traced run reports, on every workload; a
// layer a workload never reaches reads 0. Counts are per op of the
// traced phase, so they do not depend on how many ops a run completed.
var perLayer = []metricDef{
	// experiments: host time of the heaviest figure sweeps, per
	// regeneration.
	{"figures.figure12_s", "s"},
	{"figures.mitigation_s", "s"},
	{"figures.crosscore_s", "s"},
	{"figures.rest_s", "s"},
	// harness: cells and attempts per regeneration, and how busy its
	// workers were during the sweeps.
	{"harness.cells", "count/op"},
	{"harness.attempts", "count/op"},
	{"harness.worker_busy_frac", "frac"},
	// engine: how busy the benchmark's own dispatch pool was.
	{"engine.busy_frac", "frac"},
	// unxpec: attacker set-up.
	{"unxpec.new_ms", "ms"},
	{"unxpec.calibrate_ms", "ms"},
	{"unxpec.checkpoint_us", "us"},
	// machine: snapshot restore per forked trial.
	{"machine.restore_us_p50", "us"},
	{"machine.restore_us_p99", "us"},
	{"machine.restore_frac", "frac"},
	// cpu: simulated work per op and host cost per simulated unit.
	{"cpu.sim_cycles_per_op", "cycles/op"},
	{"cpu.retired_per_op", "count/op"},
	{"cpu.squashes_per_op", "count/op"},
	{"cpu.ff_skipped_frac", "frac"},
	{"cpu.rob_occupancy_mean", "count"},
	{"cpu.host_ns_per_sim_cycle", "ns"},
	{"cpu.host_ns_per_retired", "ns"},
	// pipeline stages: cumulative share of CPU samples.
	{"stage.fetch_frac", "frac"},
	{"stage.issue_frac", "frac"},
	{"stage.operands_frac", "frac"},
	{"stage.complete_frac", "frac"},
	{"stage.retire_frac", "frac"},
	{"stage.wakeup_frac", "frac"},
	// cache and memsys.
	{"cache.l1d_misses_per_op", "count/op"},
	{"cache.l2_misses_per_op", "count/op"},
	{"mshr.stalls_per_op", "count/op"},
	{"memsys.restorations_per_op", "count/op"},
	// undo: the rollback the attack measures, timed by the wrapper and
	// counted by telemetry.
	{"undo.onsquash_calls_per_op", "count/op"},
	{"undo.onsquash_ns_mean", "ns"},
	{"undo.onsquash_frac", "frac"},
	{"undo.invalidated_per_op", "count/op"},
	{"undo.restored_per_op", "count/op"},
	{"undo.rollback_stall_cycles_mean", "cycles"},
	// Go runtime: allocation and garbage collection.
	{"go.alloc_bytes_per_op", "B/op"},
	{"go.allocs_per_op", "count/op"},
	{"go.gc_cpu_frac", "frac"},
	// fuzz: the three steps of one checked program.
	{"fuzz.generate_us_p50", "us"},
	{"fuzz.check_program_ms_p50", "ms"},
	{"fuzz.check_determinism_ms_p50", "ms"},
	// profile rollup: flat share of CPU samples per package.
	{"prof.cpu_frac", "frac"},
	{"prof.cache_frac", "frac"},
	{"prof.memsys_frac", "frac"},
	{"prof.mem_frac", "frac"},
	{"prof.undo_frac", "frac"},
	{"prof.machine_frac", "frac"},
	{"prof.engine_frac", "frac"},
	{"prof.harness_frac", "frac"},
	{"prof.unxpec_frac", "frac"},
	{"prof.fuzz_frac", "frac"},
	{"prof.isa_frac", "frac"},
	{"prof.noise_frac", "frac"},
	{"prof.branch_frac", "frac"},
	{"prof.trace_frac", "frac"},
	{"prof.experiments_frac", "frac"},
	{"prof.runtime_frac", "frac"},
	// tracing cost: traced over untraced op rate, minus one.
	{"trace.overhead_frac", "frac"},
}
