// Package engine is the batched parallel trial executor: it runs N
// independent simulation trials as a batch across per-P sharded
// workers, saturating every core while keeping results bit-identical
// to a sequential run (docs/ENGINE.md).
//
// The design has three load-bearing pieces:
//
//   - Sharded workers over an atomic work cursor. Each worker is a
//     fixed identity (ID, telemetry registry, struct-of-arrays ROB
//     arena) that claims trial indices from a shared atomic counter.
//     Which worker executes which trial is schedule-dependent; the
//     *result* of a trial never is, because every trial is a pure
//     function of its index (fork trials restore a calibrated
//     checkpoint; harness cells build their machine from the cell
//     seed).
//
//   - Per-worker arenas. A worker owns one cpu.Arena — the
//     struct-of-arrays backing store for ROB hot state (internal/cpu,
//     arena.go) — that every machine the worker runs adopts. The arena
//     is pure scratch between trials (all persistent state lives in
//     checkpoints and machine snapshots), so sharing it across
//     batches is safe as long as one worker runs one trial at a time,
//     which the pool guarantees. Steady-state batches allocate
//     nothing.
//
//   - Per-worker telemetry absorbed by Drain. Trials write counters
//     and histograms to their worker's private registry with no
//     cross-worker synchronization; Drain folds the registries into
//     the campaign rollup in worker-ID order using snapshot diffs, so
//     repeated drains — a live scrape mid-batch, then the batch-end
//     drain — never double-count.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cpu"
	"repro/internal/telemetry"
)

// Config sizes a Pool.
type Config struct {
	// Workers is the number of parallel trial executors. <= 0 selects
	// GOMAXPROCS.
	Workers int
}

// Worker is one sharded trial executor: a stable identity holding the
// per-worker telemetry registry and the struct-of-arrays ROB arena
// that machines run over. Exactly one trial runs on a worker at a
// time; everything reachable from a Worker is free of cross-worker
// sharing.
type Worker struct {
	// ID is the worker's index in the pool, stable for the pool's
	// lifetime. Drain folds registries in ID order.
	ID int
	// Metrics is the worker-private registry trials record into. It is
	// only ever touched by the trial currently running on this worker,
	// so recording is synchronization-free.
	Metrics *telemetry.Registry

	arena *cpu.Arena
	// drained is the snapshot watermark of the last Drain, so counters
	// and histogram mass absorbed once are never absorbed again.
	drained telemetry.Snapshot
}

// Arena returns the worker's struct-of-arrays ROB arena. Jobs hand it
// to every machine the worker builds (cpu.CPU.AdoptArena) so all
// trials on this worker share one hot-state footprint.
func (w *Worker) Arena() *cpu.Arena { return w.arena }

// Pool is a fixed set of workers executing batches. A Pool is reusable
// across any number of Run calls; workers (and their arenas and
// registries) persist, which is what makes repeated batches
// allocation-free in the steady state.
type Pool struct {
	workers []*Worker
	// drainMu serializes Drain, which may run from a live scrape while
	// a batch is in flight: it guards every worker's drained watermark.
	drainMu sync.Mutex
}

// New builds a pool.
func New(cfg Config) *Pool {
	n := cfg.Workers
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	p := &Pool{workers: make([]*Worker, n)}
	for i := range p.workers {
		p.workers[i] = &Worker{
			ID:      i,
			Metrics: telemetry.NewRegistry(),
			arena:   &cpu.Arena{},
		}
	}
	return p
}

// Size returns the number of workers.
func (p *Pool) Size() int { return len(p.workers) }

// Run executes jobs 0..n-1 across the pool and returns when all have
// finished. Jobs are claimed from an atomic cursor, so a slow trial
// never stalls the rest of the batch behind a static partition. job
// must treat i as its only input and write results only to slot i of
// caller-owned storage — then the batch output is bit-identical for
// every worker count and claiming order.
//
// With one worker (or one job) the batch degenerates to an in-place
// sequential loop on the calling goroutine — the reference execution
// the parallel path is tested against, with no scheduling overhead.
func (p *Pool) Run(n int, job func(w *Worker, i int)) {
	if n <= 0 {
		return
	}
	nw := len(p.workers)
	if nw > n {
		nw = n
	}
	if nw == 1 {
		w := p.workers[0]
		for i := 0; i < n; i++ {
			job(w, i)
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < nw; k++ {
		w := p.workers[k]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				job(w, i)
			}
		}()
	}
	wg.Wait()
}

// Drain folds every worker's telemetry into dst in worker-ID order and
// advances each worker's watermark, so metric mass recorded during the
// batches since the last Drain is absorbed exactly once. Counters and
// histograms merge additively (their rolled-up totals depend only on
// the multiset of executed trials, not on scheduling); gauges keep
// Absorb's last-non-zero-wins semantics. A nil dst drains nowhere but
// still advances the watermarks.
//
// Drain is safe to call while a batch runs (the live /metrics endpoint
// does, so a mid-sweep scrape sees the work done so far): worker
// registries are read through their own locks and atomics, and the
// watermarks advance under drainMu. Because a drain absorbs only the
// mass since the previous one, any number of intermediate drains
// leaves the same counters, histogram counts, gauges and exemplars as
// a single drain at the end (a histogram's float sum can differ in its
// last bits when its observations are not whole numbers).
func (p *Pool) Drain(dst *telemetry.Registry) {
	p.drainMu.Lock()
	defer p.drainMu.Unlock()
	for _, w := range p.workers {
		cur := w.Metrics.Snapshot()
		dst.Absorb(cur.Diff(w.drained))
		w.drained = cur
	}
}
