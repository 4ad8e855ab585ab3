package engine

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/unxpec"
)

// workerCounts are the pool sizes every determinism test sweeps:
// the sequential reference, a small parallel pool, and whatever this
// box actually has.
func workerCounts() []int {
	counts := []int{1, 2}
	if gp := runtime.GOMAXPROCS(0); gp > 2 {
		counts = append(counts, gp)
	}
	return counts
}

// secretsFor builds a deterministic secret schedule of length n.
func secretsFor(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = (i ^ (i >> 2)) & 1
	}
	return s
}

// warmupRounds is how many measurement rounds a replica runs before
// its checkpoint: enough for initial training plus the first prime, so
// forked trials start from the attack's warm steady state.
const warmupRounds = 8

// result is the outcome of one fork trial.
type result struct {
	latency   uint64 // the final round's receiver timing
	simCycles uint64 // cycles simulated across every round of the trial
	err       error
}

// replica is one worker's copy of the calibrated machine.
type replica struct {
	attack *unxpec.Attack
	cp     *unxpec.Checkpoint
}

// forkRig runs batches of unXpec fork trials over a pool, the shape
// every fork-trial caller of the engine has (bench/unxbench's
// fork-trials workload follows the same recipe): each worker owns a
// replica — unxpec.New, AdoptArena on the worker's arena, warmupRounds
// rounds, Checkpoint — and trial i restores its worker's checkpoint
// and runs rounds rounds against secrets[i]. Replicas built from
// identical options are bit-identical, so trial i's result is a pure
// function of secrets[i].
type forkRig struct {
	pool   *Pool
	rounds int
	reps   []replica // indexed by worker ID; touched only by that worker

	// The batch in flight. job is bound once, so a warm batch
	// allocates nothing, not even a closure.
	secrets []int
	out     []result
	job     func(w *Worker, i int)
}

func newForkRig(tb testing.TB, workers, rounds int) *forkRig {
	r := &forkRig{pool: New(Config{Workers: workers}), rounds: rounds}
	for _, w := range r.pool.workers {
		a := unxpec.MustNew(unxpec.Options{Seed: 1})
		a.Core().AdoptArena(w.Arena())
		// Warm-up runs with telemetry detached: it is per-replica
		// plumbing, not trial signal.
		for k := 0; k < warmupRounds; k++ {
			if _, err := a.MeasureOnceChecked(k & 1); err != nil {
				tb.Fatalf("worker %d warm-up round %d: %v", w.ID, k, err)
			}
		}
		cp, err := a.Checkpoint()
		if err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(cp.Release)
		a.SetMetrics(w.Metrics)
		r.reps = append(r.reps, replica{attack: a, cp: cp})
	}
	r.job = r.trial
	return r
}

func (r *forkRig) trial(w *Worker, i int) {
	rep := r.reps[w.ID]
	res := result{err: rep.attack.Restore(rep.cp)}
	start := rep.attack.Core().Cycle()
	for k := 0; k < r.rounds && res.err == nil; k++ {
		res.latency, res.err = rep.attack.MeasureOnceChecked(r.secrets[i])
	}
	res.simCycles = rep.attack.Core().Cycle() - start
	r.out[i] = res
}

// batch runs one trial per secret into out and returns the
// lowest-indexed trial error.
func (r *forkRig) batch(secrets []int, out []result) error {
	r.secrets, r.out = secrets, out
	r.pool.Run(len(secrets), r.job)
	r.secrets, r.out = nil, nil
	for i := range secrets {
		if out[i].err != nil {
			return fmt.Errorf("trial %d: %w", i, out[i].err)
		}
	}
	return nil
}

// runBatch executes n single-round trials over a fresh pool and returns
// the per-trial results plus the drained telemetry rollup.
func runBatch(t *testing.T, workers, n int) ([]result, telemetry.Snapshot) {
	t.Helper()
	rig := newForkRig(t, workers, 1)
	out := make([]result, n)
	if err := rig.batch(secretsFor(n), out); err != nil {
		t.Fatalf("batch(workers=%d, n=%d): %v", workers, n, err)
	}
	rollup := telemetry.NewRegistry()
	rig.pool.Drain(rollup)
	return out, rollup.Snapshot()
}

// TestBatchBitIdentity is the engine's core contract: the per-trial
// results of a batch are bit-identical to the sequential reference for
// every worker count and batch size — parallelism changes wall-clock
// only, never output.
func TestBatchBitIdentity(t *testing.T) {
	for _, n := range []int{1, 5, 17} {
		ref, _ := runBatch(t, 1, n)
		for _, w := range workerCounts()[1:] {
			got, _ := runBatch(t, w, n)
			for i := range ref {
				if got[i] != ref[i] {
					t.Errorf("n=%d workers=%d trial %d: got %+v, want %+v", n, w, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestBatchSplitIdentity checks that slicing one workload into several
// Run calls yields the same results as one big batch: the checkpoint
// restore at the head of every trial makes batch boundaries invisible.
func TestBatchSplitIdentity(t *testing.T) {
	const n = 12
	ref, _ := runBatch(t, 2, n)

	rig := newForkRig(t, 2, 1)
	secrets := secretsFor(n)
	got := make([]result, n)
	for _, split := range [][2]int{{0, 3}, {3, 7}, {7, n}} {
		if err := rig.batch(secrets[split[0]:split[1]], got[split[0]:split[1]]); err != nil {
			t.Fatalf("batch slice %v: %v", split, err)
		}
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("split trial %d: got %+v, want %+v", i, got[i], ref[i])
		}
	}
}

// TestRollupDeterminism checks the drained telemetry rollup: counters
// and histograms are flows whose totals depend only on the multiset of
// executed trials, so they must match the sequential reference exactly
// at every worker count. Gauges are levels sampled wherever each
// worker happened to stop and are deliberately excluded (documented in
// Pool.Drain).
func TestRollupDeterminism(t *testing.T) {
	const n = 17
	_, ref := runBatch(t, 1, n)
	if len(ref.Counters) == 0 || len(ref.Histograms) == 0 {
		t.Fatalf("reference rollup is empty: counters=%d histograms=%d", len(ref.Counters), len(ref.Histograms))
	}
	if got := ref.Counters["attack_rounds_total"]; got != n {
		t.Fatalf("attack_rounds_total = %d, want %d (one round per trial)", got, n)
	}
	for _, w := range workerCounts()[1:] {
		_, got := runBatch(t, w, n)
		if len(got.Counters) != len(ref.Counters) {
			t.Errorf("workers=%d: %d counters, want %d", w, len(got.Counters), len(ref.Counters))
		}
		for name, want := range ref.Counters {
			if got.Counters[name] != want {
				t.Errorf("workers=%d counter %s = %d, want %d", w, name, got.Counters[name], want)
			}
		}
		for name, wantH := range ref.Histograms {
			gotH, ok := got.Histograms[name]
			if !ok {
				t.Errorf("workers=%d: histogram %s missing", w, name)
				continue
			}
			if gotH.Count != wantH.Count || math.Float64bits(gotH.Sum) != math.Float64bits(wantH.Sum) {
				t.Errorf("workers=%d histogram %s: count=%d sum=%v, want count=%d sum=%v",
					w, name, gotH.Count, gotH.Sum, wantH.Count, wantH.Sum)
			}
			for i := range wantH.Counts {
				if gotH.Counts[i] != wantH.Counts[i] {
					t.Errorf("workers=%d histogram %s bucket %d: %d, want %d",
						w, name, i, gotH.Counts[i], wantH.Counts[i])
				}
			}
		}
	}
}

// TestRoundsBitIdentity covers multi-round trials: with several rounds
// per trial the per-trial restore still isolates trials, so results
// stay bit-identical across worker counts.
func TestRoundsBitIdentity(t *testing.T) {
	const n = 6
	run := func(workers int) []result {
		rig := newForkRig(t, workers, 3)
		out := make([]result, n)
		if err := rig.batch(secretsFor(n), out); err != nil {
			t.Fatalf("batch(workers=%d): %v", workers, err)
		}
		return out
	}
	ref := run(1)
	for _, w := range workerCounts()[1:] {
		got := run(w)
		for i := range ref {
			if got[i] != ref[i] {
				t.Errorf("rounds=3 workers=%d trial %d: got %+v, want %+v", w, i, got[i], ref[i])
			}
		}
	}
}

// TestWarmBatchAllocs pins the zero-allocation steady state: once the
// restore path is warm, running batches allocates nothing. The
// single-worker pool runs on the calling goroutine, so the whole Run
// call — claim, restore, simulate — must be allocation-free.
func TestWarmBatchAllocs(t *testing.T) {
	rig := newForkRig(t, 1, 1)
	secrets := secretsFor(4)
	out := make([]result, len(secrets))
	if err := rig.batch(secrets, out); err != nil { // warm the restore path
		t.Fatalf("warm-up batch: %v", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := rig.batch(secrets, out); err != nil {
			t.Fatalf("warm batch: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("warm batch allocates %v per run, want 0", allocs)
	}
}

// TestPoolRunCoverage checks the work cursor: every index in 0..n-1
// runs exactly once, for pools bigger and smaller than the batch.
func TestPoolRunCoverage(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 7}, {4, 7}, {16, 3}, {3, 0},
	} {
		pool := New(Config{Workers: tc.workers})
		hits := make([]atomic.Int32, tc.n)
		pool.Run(tc.n, func(w *Worker, i int) {
			hits[i].Add(1)
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers=%d n=%d: index %d ran %d times", tc.workers, tc.n, i, got)
			}
		}
	}
}

// TestDrainWatermark checks that draining twice never double-counts:
// metric mass recorded before the first drain is absorbed exactly
// once, and mass recorded between drains is picked up by the second.
func TestDrainWatermark(t *testing.T) {
	pool := New(Config{Workers: 2})
	c0 := pool.workers[0].Metrics.Counter("trials_total", "test")
	c1 := pool.workers[1].Metrics.Counter("trials_total", "test")
	c0.Add(3)
	c1.Add(4)

	dst := telemetry.NewRegistry()
	pool.Drain(dst)
	if got := dst.Snapshot().Counters["trials_total"]; got != 7 {
		t.Fatalf("first drain: trials_total = %d, want 7", got)
	}
	pool.Drain(dst)
	if got := dst.Snapshot().Counters["trials_total"]; got != 7 {
		t.Errorf("re-drain double-counted: trials_total = %d, want 7", got)
	}
	c0.Add(2)
	pool.Drain(dst)
	if got := dst.Snapshot().Counters["trials_total"]; got != 9 {
		t.Errorf("incremental drain: trials_total = %d, want 9", got)
	}
}
