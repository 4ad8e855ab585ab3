package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/noise"
	"repro/internal/telemetry"
	"repro/internal/undo"
	"repro/internal/unxpec"
)

// leakChannel is the attacker's loop: one Figure-11-shaped receiver
// (eviction sets, the system noise model) calibrated once, then leaking
// single-sample bits of a seeded random secret. One op is one
// MeasureOnceChecked round and its threshold decision.
type leakChannel struct {
	p         params
	eng       *engine.Pool
	attack    *unxpec.Attack
	threshold float64
	secret    *rand.Rand // the RandomSecret(n, seed+3000) stream, drawn bit by bit
	timer     squashTimer

	newTime, calTime time.Duration

	correct     int
	digest      hash.Hash
	startCycle  uint64
	prefixCycle uint64
	prefixOnes  uint64
}

// minLeakAccuracy is the accuracy below which the channel counts as
// broken; Figure 11 measures about 0.93 at seed 42.
const minLeakAccuracy = 0.85

func leakPrefix(quick bool) int {
	if quick {
		return 200
	}
	return 100_000
}

func setupLeak(p params) (instance, error) {
	l := &leakChannel{p: p, eng: engine.New(engine.Config{Workers: 1}), digest: sha256.New()}
	opts := unxpec.Options{Seed: p.seed, UseEvictionSets: true, Noise: noise.NewSystem(p.seed + 2000)}
	if p.traced {
		opts.Scheme = &timedScheme{Scheme: undo.NewCleanupSpec(), t: &l.timer}
	}
	start := time.Now()
	a, err := unxpec.New(opts)
	if err != nil {
		return nil, err
	}
	l.newTime = time.Since(start)
	calibration := 300
	if p.quick {
		calibration = 20
	}
	start = time.Now()
	cal, err := a.CalibrateChecked(calibration)
	if err != nil {
		return nil, fmt.Errorf("calibration: %w", err)
	}
	l.calTime = time.Since(start)
	l.attack, l.threshold = a, cal.Threshold
	l.secret = rand.New(rand.NewSource(p.seed + 3000))
	l.startCycle = a.Core().Cycle()
	return l, nil
}

func (l *leakChannel) pool() *engine.Pool { return l.eng }

// op leaks secret bit i. Ops run in order on one worker, so the secret
// stream is drawn in order too.
func (l *leakChannel) op(_ *engine.Worker, i int) error {
	bit := l.secret.Intn(2)
	lat, err := l.attack.MeasureOnceChecked(bit)
	if err != nil {
		return fmt.Errorf("round %d: %w", i, err)
	}
	guess := 0
	if float64(lat) >= l.threshold {
		guess = 1
	}
	if guess == bit {
		l.correct++
	}
	if i < leakPrefix(l.p.quick) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], lat)
		l.digest.Write(b[:])
		l.prefixOnes += uint64(guess)
		l.prefixCycle = l.attack.Core().Cycle()
	}
	return nil
}

func (l *leakChannel) traceOn(reg *telemetry.Registry) {
	l.attack.SetMetrics(reg)
	l.timer.on = true
}

func (l *leakChannel) layers(_ *telemetry.Registry, ph phase) map[string]float64 {
	m := squashLayers([]*squashTimer{&l.timer}, ph)
	m["unxpec.new_ms"] = ms(l.newTime)
	m["unxpec.calibrate_ms"] = ms(l.calTime)
	return m
}

func (l *leakChannel) verify(ops int) (checked, error) {
	v := checked{
		digest: fmt.Sprintf("%x", l.digest.Sum(nil)),
		counts: map[string]uint64{
			"prefix_rounds":     uint64(leakPrefix(l.p.quick)),
			"prefix_sim_cycles": l.prefixCycle - l.startCycle,
			"prefix_ones":       l.prefixOnes,
		},
	}
	if acc := float64(l.correct) / float64(ops); acc < minLeakAccuracy {
		v.failed = 1
		return v, fmt.Errorf("leak accuracy %.4f below %.2f", acc, minLeakAccuracy)
	}
	return v, nil
}
