package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

// forkTrials is the calibrate-once, fork-many shape: every worker of an
// engine pool runs its own replica of one warmed, checkpointed attack;
// each trial restores the checkpoint and runs a few rounds on its own
// secret bits. One op is one trial.
type forkTrials struct {
	p    params
	eng  *engine.Pool
	reps []*forkReplica // indexed by worker ID

	newTime, checkpointTime time.Duration

	// results and cycles of the prefix trials, by trial index.
	results, cycles []uint64

	// restore latencies and summed restore time by worker, traced phase
	// only
	traced      bool
	restoreLat  [][]time.Duration
	restoreBusy []time.Duration
}

// forkReplica is one worker's copy of the warmed attack.
type forkReplica struct {
	attack *unxpec.Attack
	cp     *unxpec.Checkpoint
	timer  squashTimer
	bound  bool // attack records into its worker's registry
}

const (
	forkWarmupRounds = 8 // rounds before the checkpoint
	forkTrialRounds  = 8 // rounds per trial
)

func forkPrefix(quick bool) int {
	if quick {
		return 64
	}
	return 16_384
}

// forkSamples is how many prefix trials verify re-runs sequentially.
func forkSamples(quick bool) int {
	if quick {
		return 16
	}
	return 256
}

// newForkReplica builds, warms and checkpoints one replica.
func newForkReplica(p params) (*forkReplica, time.Duration, time.Duration, error) {
	r := &forkReplica{}
	opts := unxpec.Options{Seed: p.seed, UseEvictionSets: true}
	if p.traced {
		opts.Scheme = &timedScheme{Scheme: undo.NewCleanupSpec(), t: &r.timer}
	}
	start := time.Now()
	a, err := unxpec.New(opts)
	if err != nil {
		return nil, 0, 0, err
	}
	newTime := time.Since(start)
	for k := 0; k < forkWarmupRounds; k++ {
		if _, err := a.MeasureOnceChecked(k & 1); err != nil {
			return nil, 0, 0, fmt.Errorf("warm-up round %d: %w", k, err)
		}
	}
	start = time.Now()
	cp, err := a.Checkpoint()
	if err != nil {
		return nil, 0, 0, err
	}
	r.attack, r.cp = a, cp
	return r, newTime, time.Since(start), nil
}

// run executes trial i's rounds on the restored replica and returns a
// hash of its latencies and simulated cycles. The secret bits are a pure
// function of (seed, i), so a trial's result does not depend on which
// worker runs it or when.
func (r *forkReplica) run(seed int64, i int) (sum, cycles uint64, err error) {
	state := uint64(seed)*0x9e3779b97f4a7c15 ^ uint64(i)
	bits := splitmix(&state)
	start := r.attack.Core().Cycle()
	sum = 14695981039346656037 // FNV-1a over the round latencies
	for k := 0; k < forkTrialRounds; k++ {
		lat, err := r.attack.MeasureOnceChecked(int(bits>>k) & 1)
		if err != nil {
			return 0, 0, fmt.Errorf("trial %d round %d: %w", i, k, err)
		}
		sum = (sum ^ lat) * 1099511628211
	}
	cycles = r.attack.Core().Cycle() - start
	return (sum ^ cycles) * 1099511628211, cycles, nil
}

// splitmix advances a splitmix64 state and returns the next value.
func splitmix(s *uint64) uint64 {
	*s += 0x9e3779b97f4a7c15
	z := *s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func setupFork(p params) (instance, error) {
	f := &forkTrials{p: p, eng: engine.New(engine.Config{})}
	n := f.eng.Size()
	f.reps = make([]*forkReplica, n)
	errs := make([]error, n)
	var newTimes, cpTimes = make([]time.Duration, n), make([]time.Duration, n)
	// The pool builds the replicas in parallel; replica j then runs only
	// on worker j.
	f.eng.Run(n, func(_ *engine.Worker, j int) {
		f.reps[j], newTimes[j], cpTimes[j], errs[j] = newForkReplica(p)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	f.newTime, f.checkpointTime = newTimes[0], cpTimes[0]
	f.results = make([]uint64, forkPrefix(p.quick))
	f.cycles = make([]uint64, forkPrefix(p.quick))
	return f, nil
}

func (f *forkTrials) pool() *engine.Pool { return f.eng }

func (f *forkTrials) op(w *engine.Worker, i int) error {
	r := f.reps[w.ID]
	if f.traced && !r.bound {
		r.attack.SetMetrics(w.Metrics)
		r.bound = true
	}
	start := time.Now()
	if err := r.attack.Restore(r.cp); err != nil {
		return fmt.Errorf("trial %d restore: %w", i, err)
	}
	if f.traced {
		d := time.Since(start)
		f.restoreLat[w.ID] = append(f.restoreLat[w.ID], d)
		f.restoreBusy[w.ID] += d
	}
	sum, cycles, err := r.run(f.p.seed, i)
	if err != nil {
		return err
	}
	if i < len(f.results) {
		f.results[i], f.cycles[i] = sum, cycles
	}
	return nil
}

// traceOn turns the probes on; each replica binds to its worker's
// private registry on its first traced trial, and layers drains the
// workers into reg.
func (f *forkTrials) traceOn(*telemetry.Registry) {
	for _, r := range f.reps {
		r.timer.on = true
	}
	f.restoreLat = make([][]time.Duration, len(f.reps))
	f.restoreBusy = make([]time.Duration, len(f.reps))
	f.traced = true
}

func (f *forkTrials) layers(reg *telemetry.Registry, ph phase) map[string]float64 {
	f.eng.Drain(reg)
	timers := make([]*squashTimer, len(f.reps))
	for j, r := range f.reps {
		timers[j] = &r.timer
	}
	m := squashLayers(timers, ph)
	lat := sortedMicros(f.restoreLat)
	var busy time.Duration
	for _, b := range f.restoreBusy {
		busy += b
	}
	m["machine.restore_us_p50"] = percentile(lat, 50)
	m["machine.restore_us_p99"] = percentile(lat, 99)
	if ph.busy > 0 {
		m["machine.restore_frac"] = float64(busy) / float64(ph.busy)
	}
	m["unxpec.new_ms"] = ms(f.newTime)
	m["unxpec.checkpoint_us"] = float64(f.checkpointTime) / float64(time.Microsecond)
	return m
}

// verify re-runs evenly spaced prefix trials one after another on a
// freshly built replica; each must match the pooled result bit for bit.
func (f *forkTrials) verify(int) (checked, error) {
	h := sha256.New()
	var total uint64
	for i, sum := range f.results {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], sum)
		h.Write(b[:])
		total += f.cycles[i]
	}
	v := checked{
		digest: fmt.Sprintf("%x", h.Sum(nil)),
		counts: map[string]uint64{
			"prefix_trials":     uint64(len(f.results)),
			"prefix_sim_cycles": total,
		},
	}
	p := f.p
	p.traced = false
	ref, _, _, err := newForkReplica(p)
	if err != nil {
		v.failed = 1
		return v, fmt.Errorf("reference replica: %w", err)
	}
	var first error
	step := len(f.results) / forkSamples(p.quick)
	for i := 0; i < len(f.results); i += step {
		if err := ref.attack.Restore(ref.cp); err != nil {
			v.failed++
			return v, fmt.Errorf("reference restore: %w", err)
		}
		sum, _, err := ref.run(p.seed, i)
		if err == nil && sum != f.results[i] {
			err = fmt.Errorf("trial %d: pooled result %x, sequential re-run %x", i, f.results[i], sum)
		}
		if err != nil {
			v.failed++
			if first == nil {
				first = err
			}
		}
	}
	return v, first
}
