package main

import "strings"

// workloads are the benchmark's four closed-loop workloads, in the order
// -workload all runs them. Each "why" is the one-line reason recorded in
// BENCHMARK.json.
var workloads = []workload{
	{
		name:  "paper-regen",
		why:   "all 17 cmd/figures sections at default sizes; Figure 12's full-ROB pipeline dominates, no restores, little allocation",
		reps:  5,
		batch: 1,
		prefix: func(bool) int {
			return 1
		},
		setup: setupRegen,
	},
	{
		name:   "leak-channel",
		why:    "the attacker's loop: one noisy receiver, near-empty ROB, one rollback per round, no allocation",
		reps:   15,
		batch:  1000,
		prefix: leakPrefix,
		setup:  setupLeak,
	},
	{
		name:   "fork-trials",
		why:    "calibrate once, fork many: snapshot restores on every trial, dispatched in parallel by engine.Pool",
		reps:   25,
		batch:  2048,
		prefix: forkPrefix,
		setup:  setupFork,
	},
	{
		name:   "fuzz-sweep",
		why:    "random programs on 18 freshly built machines each: construction and allocation dominate, not the pipeline",
		reps:   9,
		batch:  8,
		prefix: fuzzPrefix,
		setup:  setupFuzz,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
