package main

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/telemetry"
)

// instance is one set-up workload: the machines, runners or generators
// its ops run on.
type instance interface {
	// pool is the engine pool ops are dispatched on; its size is the
	// number of ops in flight.
	pool() *engine.Pool
	// op runs op i on worker w. An error counts the op as failed.
	op(w *engine.Worker, i int) error
	// traceOn attaches reg and the timed undo wrapper before the traced
	// phase.
	traceOn(reg *telemetry.Registry)
	// layers returns the workload's own per-layer metrics for the traced
	// phase ph; reg is the registry traceOn attached.
	layers(reg *telemetry.Registry, ph phase) map[string]float64
	// verify runs the run-level output checks after ops ops and returns
	// the simulated digest and counts of the workload's op prefix.
	verify(ops int) (checked, error)
}

// checked is what verify found.
type checked struct {
	// failed counts ops or checks that produced a wrong output.
	failed int
	// digest is a sha256 over the simulated outputs of the prefix ops;
	// counts are simulated quantities over the same prefix. Both repeat
	// exactly for a seed on any correct build.
	digest string
	counts map[string]uint64
}

// workload describes one closed-loop benchmark workload.
type workload struct {
	name, why string
	// reps is how many times a run sets the workload up; setup_s is the
	// median and the first instance is the one measured. The shorter the
	// set-up, the more host noise each timing carries, so the millisecond
	// set-ups repeat more often.
	reps int
	// batch is how many ops one engine.Pool.Run call claims. The loop
	// checks its deadline between batches.
	batch int
	// prefix is how many leading ops feed sim_digest; the first timed
	// phase never stops before they are done.
	prefix func(quick bool) int
	setup  func(p params) (instance, error)
}

// params are the inputs a workload is set up from.
type params struct {
	seed   int64
	quick  bool // tiny sizes, for the smoke test
	traced bool
}

// phase is what one timed phase measured.
type phase struct {
	first       int // index of the phase's first op
	ops, failed int
	firstErr    error
	elapsed     time.Duration
	busy        time.Duration // summed op latency across workers
	workers     int
	windows     []window
}

// A timed phase is cut into windows: a window closes at the first batch
// boundary after both windowMin has passed and windowMinOps ops have
// completed in it, so each window's p99 has at least ten samples beyond
// it. Rates and percentiles are reported as medians over the windows,
// which keeps a burst of load from other processes on the host to the
// few windows it hits. A run too short for one full window (paper-regen
// completes a handful of ops) is a single window.
const (
	windowMin    = time.Second
	windowMinOps = 1000
)

// window is what one window measured.
type window struct {
	ops      int
	d        time.Duration
	p50, p99 float64 // op latency, µs
}

// closeWindow summarises the latencies of the ops completed in d and
// truncates each worker's latencies for the next window.
func closeWindow(lat [][]time.Duration, ops int, d time.Duration) window {
	us := sortedMicros(lat)
	for w := range lat {
		lat[w] = lat[w][:0]
	}
	return window{ops: ops, d: d, p50: percentile(us, 50), p99: percentile(us, 99)}
}

// windowMedian is the median over the phase's windows of f.
func (ph phase) windowMedian(f func(w window) float64) float64 {
	xs := make([]float64, len(ph.windows))
	for i, w := range ph.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

func (ph phase) opsPerSecond() float64 {
	return ph.windowMedian(func(w window) float64 { return float64(w.ops) / w.d.Seconds() })
}

// samples counts the ops of the phase's windows.
func (ph phase) samples() int {
	n := 0
	for _, w := range ph.windows {
		n += w.ops
	}
	return n
}

// measure runs ops first, first+1, … of inst in a closed loop until at
// least d has passed and minOps ops have completed. Each op is timed
// around the call on the worker that runs it.
func measure(inst instance, batch, first int, d time.Duration, minOps int) phase {
	pool := inst.pool()
	ph := phase{first: first, workers: pool.Size()}
	lat := make([][]time.Duration, pool.Size())
	busy := make([]time.Duration, pool.Size())
	var failed atomic.Int64
	var errOnce sync.Once
	start := time.Now()
	winStart, winOps := start, 0
	for ph.ops < minOps || time.Since(start) < d {
		base := first + ph.ops
		pool.Run(batch, func(w *engine.Worker, k int) {
			t0 := time.Now()
			err := inst.op(w, base+k)
			dt := time.Since(t0)
			lat[w.ID] = append(lat[w.ID], dt)
			busy[w.ID] += dt
			if err != nil {
				failed.Add(1)
				errOnce.Do(func() { ph.firstErr = err })
			}
		})
		ph.ops += batch
		winOps += batch
		if wd := time.Since(winStart); wd >= windowMin && winOps >= windowMinOps {
			ph.windows = append(ph.windows, closeWindow(lat, winOps, wd))
			winStart, winOps = time.Now(), 0
		}
	}
	ph.elapsed = time.Since(start)
	// A trailing partial window is dropped, unless it is the only one.
	if len(ph.windows) == 0 {
		ph.windows = append(ph.windows, closeWindow(lat, winOps, time.Since(winStart)))
	}
	ph.failed = int(failed.Load())
	for _, b := range busy {
		ph.busy += b
	}
	return ph
}
