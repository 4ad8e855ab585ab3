package engine

import (
	"testing"

	"repro/internal/unxpec"
)

// BenchmarkSimulatorRawSpeed is the sequential baseline: attack rounds
// simulated on one core with no pool and no restores. It reports
// sim-cycles/op, so sim-cycles/s (sim-cycles/op ÷ ns/op) is comparable
// with the batched benches below, whose op covers a whole batch.
func BenchmarkSimulatorRawSpeed(b *testing.B) {
	a := unxpec.MustNew(unxpec.Options{Seed: 1})
	start := a.Core().Cycle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MeasureOnceChecked(i % 2); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(a.Core().Cycle()-start)/float64(b.N), "sim-cycles/op")
}

// batchTrials is the batch width of the engine benches: enough trials
// per op to keep every worker busy on a many-core box.
const batchTrials = 64

// trialRounds is how many measurement rounds one benched trial runs
// after its restore.
const trialRounds = 8

// benchmarkEngineBatch measures batched fork-trial throughput at a
// fixed worker count (0 = all cores). One op is a whole batch of
// trials, each a warm restore plus trialRounds rounds; sim-cycles/op
// sums the simulated cycles of every trial in it, so sim-cycles/s is
// the pool's whole-machine throughput — the number
// scripts/engine_smoke.sh compares against BenchmarkSimulatorRawSpeed.
func benchmarkEngineBatch(b *testing.B, workers int) {
	rig := newForkRig(b, workers, trialRounds)
	secrets := make([]int, batchTrials)
	for i := range secrets {
		secrets[i] = i & 1
	}
	out := make([]result, len(secrets))
	// Two untimed batches warm (nearly always) every worker's restore
	// path, so the timed loop measures steady-state batches.
	for w := 0; w < 2; w++ {
		if err := rig.batch(secrets, out); err != nil {
			b.Fatal(err)
		}
	}
	var sim uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rig.batch(secrets, out); err != nil {
			b.Fatal(err)
		}
		for _, r := range out {
			sim += r.simCycles
		}
	}
	b.ReportMetric(float64(sim)/float64(b.N), "sim-cycles/op")
	b.ReportMetric(batchTrials, "trials/op")
}

// BenchmarkEngineBatch saturates every core (the headline number).
func BenchmarkEngineBatch(b *testing.B) { benchmarkEngineBatch(b, 0) }

// BenchmarkEngineBatch1 pins one worker: the sequential reference the
// parallel speedup is computed from, and the per-trial overhead of the
// restore-measure loop relative to BenchmarkSimulatorRawSpeed.
func BenchmarkEngineBatch1(b *testing.B) { benchmarkEngineBatch(b, 1) }
