package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/telemetry"
)

// Config parameterizes a Runner. The zero value is a sensible default:
// GOMAXPROCS workers, 3 attempts per cell, 10 ms base backoff, no
// wall-clock deadline, no journal.
type Config struct {
	// Workers bounds concurrent trials. <=0 means GOMAXPROCS.
	Workers int
	// MaxAttempts is the per-cell attempt budget. <=0 means 3.
	MaxAttempts int
	// BackoffBase is the sleep before the first retry; it doubles per
	// attempt with deterministic ±25% jitter. <=0 means 10 ms.
	BackoffBase time.Duration
	// BackoffMax caps a single backoff sleep. <=0 means 2 s.
	BackoffMax time.Duration
	// TrialTimeout is the wall-clock deadline per attempt. 0 disables
	// it (the simulator's own MaxCycles watchdog still applies). A
	// trial past its deadline is abandoned: its goroutine is leaked
	// deliberately — the cycle watchdog bounds how long it can live.
	TrialTimeout time.Duration
	// JournalPath appends one JSONL record per completed cell. Empty
	// disables journaling (and therefore resume).
	JournalPath string
	// Resume skips cells that already have a terminal journal record
	// (ok or failed), replaying their recorded outcome.
	Resume bool
	// StopAfter aborts the campaign after N newly executed cells — a
	// deterministic stand-in for a mid-campaign kill, used by tests
	// and the CI resume check. 0 means run to completion.
	StopAfter int
	// Injections are fault injections matched against full cell IDs.
	Injections []Injection
	// Metrics, when non-nil, is the campaign registry: every trial gets
	// a fresh per-trial registry (Trial.Metrics), whose snapshot is
	// attached to the outcome, journaled, and absorbed into this
	// registry. The campaign's harness_trial_latency_ms exemplar names
	// the slowest cell, a journal key. Nil disables per-trial telemetry
	// (Trial.Metrics is nil, which instrumented components treat as
	// detached).
	Metrics *telemetry.Registry
}

func (c Config) maxAttempts() int {
	if c.MaxAttempts <= 0 {
		return 3
	}
	return c.MaxAttempts
}

func (c Config) backoffBase() time.Duration {
	if c.BackoffBase <= 0 {
		return 10 * time.Millisecond
	}
	return c.BackoffBase
}

func (c Config) backoffMax() time.Duration {
	if c.BackoffMax <= 0 {
		return 2 * time.Second
	}
	return c.BackoffMax
}

// Cell is one independent unit of a sweep. Run must derive every bit
// of randomness from t.Seed (not shared state) — that is the
// determinism contract that makes results identical regardless of
// worker count, and lets a retry perturb the seed meaningfully. The
// returned value must be JSON-marshalable; it becomes the journaled,
// resumable result of the cell.
type Cell struct {
	ID   string
	Seed int64
	Run  func(t *Trial) (any, error)
}

// PostMortemer is anything that can snapshot itself when a trial dies.
// *cpu.CPU implements it.
type PostMortemer interface {
	PostMortem() cpu.PostMortem
}

// Trial is the per-attempt context handed to a cell's Run.
type Trial struct {
	Cell    string // full (namespaced) cell ID
	Attempt int    // 1-based
	Seed    int64  // cell seed, perturbed on retries

	// Metrics is the per-trial registry (nil when the campaign runs
	// without telemetry). Cells bind their machines to it; the harness
	// snapshots it into the outcome and the campaign rollup.
	Metrics *telemetry.Registry

	mu sync.Mutex
	pm PostMortemer

	// armedPanic holds a pending injected-panic message; it detonates
	// after the cell's Run returns (see firePanic), so an Observed
	// machine's post-mortem carries the attempt's final pipeline events
	// instead of a pre-run blank.
	armedPanic string
}

// firePanic detonates an armed panic injection; no-op when none is
// armed. Called in the trial goroutine after the cell's Run, inside the
// containment recover.
func (t *Trial) firePanic() {
	if t.armedPanic == "" {
		return
	}
	msg := t.armedPanic
	t.armedPanic = ""
	panic(msg)
}

// flightEnabler is the optional interface Observe uses to switch on the
// always-on flight recorder. *cpu.CPU implements it.
type flightEnabler interface {
	EnableFlightRecorder(n int) *cpu.FlightRecorder
}

// Observe registers the core under test so that a contained panic can
// capture its post-mortem snapshot. Re-observing replaces the previous
// subject (observe the active core of multi-phase trials).
func (t *Trial) Observe(p PostMortemer) {
	// Every observed core gets a bounded flight recorder so a panic,
	// watchdog trip or deadline post-mortem carries the final pipeline
	// events. Enabling is idempotent and the ring is a fixed-size store
	// per event, cheap enough to leave on for every trial.
	if fe, ok := p.(flightEnabler); ok {
		fe.EnableFlightRecorder(0)
	}
	t.mu.Lock()
	t.pm = p
	t.mu.Unlock()
}

// postMortem snapshots the observed core, containing any panic the
// snapshot itself raises. Only called when the trial goroutine is no
// longer running the simulator (post-panic or post-return), so the
// read does not race.
func (t *Trial) postMortem() (out *cpu.PostMortem) {
	t.mu.Lock()
	p := t.pm
	t.mu.Unlock()
	if p == nil {
		return nil
	}
	defer func() { recover() }()
	pm := p.PostMortem()
	return &pm
}

// Outcome is the terminal result of one cell: a value, or a classified
// TrialError, or a skip marker when the campaign was interrupted
// before the cell started.
type Outcome struct {
	Index    int    // position in the input cell slice
	Cell     string // full (namespaced) ID
	Seed     int64
	Attempts int
	Class    Class
	Value    json.RawMessage // non-nil iff Class == ClassOK
	Err      *TrialError     // non-nil iff the cell failed
	Resumed  bool            // replayed from the journal
	Skipped  bool            // never started (campaign interrupted)
	Elapsed  time.Duration
	// Metrics is the final attempt's telemetry snapshot (nil when the
	// campaign runs without a Config.Metrics registry).
	Metrics *telemetry.Snapshot
}

// OK reports whether the cell produced a value.
func (o Outcome) OK() bool { return o.Class == ClassOK }

// Report summarizes one Sweep. Outcomes are in input order regardless
// of scheduling, so result aggregation is deterministic across worker
// counts.
type Report struct {
	Name     string
	Outcomes []Outcome
	// Interrupted is true when StopAfter tripped before every cell
	// ran; the journal makes the campaign resumable.
	Interrupted bool
}

// Failures returns the classified errors of failed cells, input order.
func (r *Report) Failures() []*TrialError {
	var out []*TrialError
	for _, o := range r.Outcomes {
		if o.Err != nil {
			out = append(out, o.Err)
		}
	}
	return out
}

// Completed counts cells with a terminal outcome (ok or failed).
func (r *Report) Completed() int {
	n := 0
	for _, o := range r.Outcomes {
		if !o.Skipped {
			n++
		}
	}
	return n
}

// ExitCode maps the report onto the exit-code taxonomy: interrupted
// campaigns win (they are resumable, not failed), then the worst
// failure class, then 0.
func (r *Report) ExitCode() int {
	if r.Interrupted {
		return ExitInterrupted
	}
	rank := func(code int) int {
		switch code {
		case ExitPanic:
			return 3
		case ExitTimeout:
			return 2
		case ExitError:
			return 1
		}
		return 0
	}
	code := ExitOK
	for _, o := range r.Outcomes {
		if o.Err == nil {
			continue
		}
		if c := exitFor(o.Err.Class); rank(c) > rank(code) {
			code = c
		}
	}
	return code
}

// Err summarizes the sweep as a single error naming every failed cell
// with its class, or nil when every cell produced a value.
func (r *Report) Err() error {
	fails := r.Failures()
	if r.Interrupted {
		return fmt.Errorf("harness: sweep %s interrupted after %d/%d cells (resumable)",
			r.Name, r.Completed(), len(r.Outcomes))
	}
	if len(fails) == 0 {
		return nil
	}
	cells := make([]string, len(fails))
	for i, f := range fails {
		cells[i] = fmt.Sprintf("%s (%s)", f.Cell, f.Class)
	}
	return fmt.Errorf("harness: sweep %s: %d/%d cells failed: %s; first error: %s",
		r.Name, len(fails), len(r.Outcomes), strings.Join(cells, ", "), fails[0].Msg)
}

// Collect decodes the values of successful cells in input order —
// failed or skipped cells are recorded gaps, not list entries.
func Collect[T any](rep *Report) ([]T, error) {
	var out []T
	for _, o := range rep.Outcomes {
		if !o.OK() {
			continue
		}
		v, err := Decode[T](o)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// Decode decodes one successful cell's value, for sweeps whose cells
// return values of more than one type.
func Decode[T any](o Outcome) (T, error) {
	var v T
	if err := json.Unmarshal(o.Value, &v); err != nil {
		return v, fmt.Errorf("harness: decoding cell %s: %w", o.Cell, err)
	}
	return v, nil
}

// Runner executes sweeps under one campaign configuration. A single
// Runner may serve several Sweep calls (e.g. every figure of a
// campaign) sharing one journal and one StopAfter budget.
type Runner struct {
	cfg Config

	mu       sync.Mutex
	executed int // newly executed cells, for StopAfter

	// pool is the batched trial engine every Sweep executes on. Workers
	// persist across sweeps, so their telemetry registries are warm for
	// the whole campaign. Sweeps on one Runner must not run concurrently
	// with each other (a worker runs one trial at a time).
	poolOnce sync.Once
	pool     *engine.Pool

	loadOnce  sync.Once
	loadErr   error
	journal   *Journal
	resumed   map[string]Record
	loadWarns []string

	prog progressState
}

// enginePool lazily builds the runner's trial engine.
func (r *Runner) enginePool() *engine.Pool {
	r.poolOnce.Do(func() {
		r.pool = engine.New(engine.Config{Workers: r.cfg.Workers})
	})
	return r.pool
}

// New validates cfg and builds a Runner.
func New(cfg Config) (*Runner, error) {
	if cfg.Resume && cfg.JournalPath == "" {
		return nil, fmt.Errorf("harness: -resume needs a journal path")
	}
	for _, in := range cfg.Injections {
		if in.Kind == InjectHang && cfg.TrialTimeout <= 0 {
			return nil, fmt.Errorf("harness: hang injection %q requires a trial timeout", in.Pattern)
		}
	}
	return &Runner{cfg: cfg}, nil
}

// Config returns the runner's configuration.
func (r *Runner) Config() Config { return r.cfg }

// ensureLoaded opens the journal (append) and, for resume, indexes its
// terminal records.
func (r *Runner) ensureLoaded() error {
	r.loadOnce.Do(func() {
		if r.cfg.JournalPath == "" {
			return
		}
		if r.cfg.Resume {
			recs, warns, err := ReadRecords(r.cfg.JournalPath)
			if err != nil {
				r.loadErr = err
				return
			}
			r.resumed = recs
			r.loadWarns = warns
		}
		j, err := OpenJournal(r.cfg.JournalPath)
		if err != nil {
			r.loadErr = err
			return
		}
		r.journal = j
	})
	return r.loadErr
}

// Close flushes and closes the journal, if any.
func (r *Runner) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return nil
	}
	return r.journal.Close()
}

// JournalWarnings reports non-fatal problems found while indexing the
// resume journal — truncated or corrupt lines that were skipped. Only
// populated after the first Sweep (when the journal is actually read).
func (r *Runner) JournalWarnings() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.loadWarns
}

// stopRequested reports whether the StopAfter budget is spent.
func (r *Runner) stopRequested() bool {
	if r.cfg.StopAfter <= 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.executed >= r.cfg.StopAfter
}

func (r *Runner) noteExecuted() {
	r.mu.Lock()
	r.executed++
	r.mu.Unlock()
}

// Sweep runs every cell on the worker pool and returns the report.
// Cell IDs are namespaced as "name/id" in the journal and injection
// matching. The returned error is infrastructural (journal I/O,
// duplicate IDs) — per-cell failures live in the report.
func (r *Runner) Sweep(name string, cells []Cell) (*Report, error) {
	if err := r.ensureLoaded(); err != nil {
		return nil, err
	}
	full := func(c Cell) string {
		if name == "" {
			return c.ID
		}
		return name + "/" + c.ID
	}
	seen := make(map[string]bool, len(cells))
	for _, c := range cells {
		if c.Run == nil {
			return nil, fmt.Errorf("harness: cell %s has no Run", full(c))
		}
		if seen[full(c)] {
			return nil, fmt.Errorf("harness: duplicate cell ID %s", full(c))
		}
		seen[full(c)] = true
	}

	rep := &Report{Name: name, Outcomes: make([]Outcome, len(cells))}
	type job struct {
		i int
		c Cell
	}
	var jobs []job
	resumedN := 0
	for i, c := range cells {
		id := full(c)
		if rec, ok := r.resumed[id]; ok {
			rep.Outcomes[i] = rec.Outcome(i)
			resumedN++
			continue
		}
		rep.Outcomes[i] = Outcome{Index: i, Cell: id, Seed: c.Seed, Skipped: true}
		jobs = append(jobs, job{i, c})
	}
	r.prog.addSweep(len(jobs), resumedN)

	pool := r.enginePool()
	pool.Run(len(jobs), func(w *engine.Worker, k int) {
		if r.stopRequested() {
			return // leave the Skipped marker in place
		}
		j := jobs[k]
		o := r.runCell(w, full(j.c), j.i, j.c)
		rep.Outcomes[j.i] = o // distinct index per worker claim
		r.noteExecuted()
	})
	// Per-worker telemetry was recorded synchronization-free during the
	// sweep; fold what no live /metrics scrape has drained yet into the
	// campaign registry. Drain's watermarks absorb every trial's mass
	// exactly once, so the rollup is the same whether or not anyone
	// scraped mid-sweep.
	pool.Drain(r.cfg.Metrics)

	for _, o := range rep.Outcomes {
		if o.Skipped {
			rep.Interrupted = true
			break
		}
	}
	return rep, nil
}

// runCell drives one cell through its attempt budget on engine worker
// w.
func (r *Runner) runCell(w *engine.Worker, id string, index int, c Cell) Outcome {
	start := time.Now() //simlint:wallclock per-cell elapsed is genuine wall time
	maxA := r.cfg.maxAttempts()
	var te *TrialError
	var lastSnap *telemetry.Snapshot
	for attempt := 1; attempt <= maxA; attempt++ {
		seed := c.Seed
		if attempt > 1 {
			seed = perturbSeed(c.Seed, attempt)
		}
		t := &Trial{Cell: id, Attempt: attempt, Seed: seed}
		if r.cfg.Metrics != nil {
			t.Metrics = telemetry.NewRegistry()
		}
		attemptStart := time.Now() //simlint:wallclock trial latency is genuine wall time
		v, err := r.attempt(c, t, id)
		attemptMS := float64(time.Since(attemptStart)) / float64(time.Millisecond) //simlint:wallclock trial latency is genuine wall time
		snap := r.rollupTrial(w, t, attempt, attemptMS)
		if err == nil {
			raw, merr := json.Marshal(v)
			if merr == nil {
				o := Outcome{Index: index, Cell: id, Seed: c.Seed, Attempts: attempt,
					Class: ClassOK, Value: raw,
					Elapsed: time.Since(start), //simlint:wallclock per-cell elapsed is genuine wall time
					Metrics: snap}
				r.record(o)
				r.prog.noteDone(o)
				return o
			}
			err = fmt.Errorf("harness: marshaling cell value: %w", merr)
		}
		te = intoTrialError(err, t)
		lastSnap = snap
		if !te.Class.Retryable() || attempt == maxA {
			break
		}
		time.Sleep(backoff(r.cfg, c.Seed, attempt))
	}
	o := Outcome{Index: index, Cell: id, Seed: c.Seed, Attempts: te.Attempt,
		Class: te.Class, Err: te,
		Elapsed: time.Since(start), //simlint:wallclock per-cell elapsed is genuine wall time
		Metrics: lastSnap}
	r.record(o)
	r.prog.noteDone(o)
	return o
}

// rollupTrial snapshots a trial's registry, absorbs it into the
// executing worker's registry, and stamps the harness's own trial
// counters plus the trial-latency histogram (exemplar-linked to the
// cell, so the slowest bucket on /metrics names the journal record to
// open). The worker registry is private to the trial, so all of this
// is synchronization-free; the worker registries reach the campaign
// registry through Pool.Drain — at the end of each Sweep, and on every
// live /metrics scrape in between. The snapshot reflects the
// work the attempt actually did, even when the attempt failed —
// partial work is exactly what a post-mortem wants.
func (r *Runner) rollupTrial(w *engine.Worker, t *Trial, attempt int, ms float64) *telemetry.Snapshot {
	if r.cfg.Metrics == nil {
		return nil
	}
	reg := w.Metrics
	reg.Counter("harness_attempts_total", "trial attempts executed").Inc()
	if attempt > 1 {
		reg.Counter("harness_retries_total", "attempts beyond the first").Inc()
	}
	reg.Histogram("harness_trial_latency_ms", "wall-clock latency of one trial attempt",
		telemetry.TrialLatencyBuckets()).ObserveExemplar(ms, t.Cell)
	if t.Metrics == nil {
		return nil
	}
	snap := t.Metrics.Snapshot()
	reg.Absorb(snap)
	return &snap
}

// attempt executes one attempt with panic containment and, when
// configured, a wall-clock deadline.
func (r *Runner) attempt(c Cell, t *Trial, id string) (any, error) {
	run := func() (v any, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = &TrialError{
					Cell: t.Cell, Class: ClassPanic, Attempt: t.Attempt, Seed: t.Seed,
					Err: fmt.Errorf("panic: %v", p), Msg: fmt.Sprintf("panic: %v", p),
					Stack: string(debug.Stack()), Post: t.postMortem(),
				}
			}
		}()
		fireInjections(r.cfg.Injections, id, t)
		v, err = c.Run(t)
		// An armed panic injection detonates here, after the cell did its
		// work, so the post-mortem of an Observed machine is meaningful.
		t.firePanic()
		return v, err
	}
	if r.cfg.TrialTimeout <= 0 {
		return run()
	}
	type res struct {
		v   any
		err error
	}
	ch := make(chan res, 1)
	go func() {
		v, err := run()
		ch <- res{v, err}
	}()
	timer := time.NewTimer(r.cfg.TrialTimeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.v, out.err
	case <-timer.C:
		// The trial goroutine is abandoned, still running: do NOT
		// snapshot its core (that would race); the cycle watchdog
		// bounds its remaining lifetime.
		return nil, &TrialError{
			Cell: t.Cell, Class: ClassDeadline, Attempt: t.Attempt, Seed: t.Seed,
			Err: context.DeadlineExceeded,
			Msg: fmt.Sprintf("wall-clock deadline %v exceeded (trial abandoned)", r.cfg.TrialTimeout),
		}
	}
}

// record journals a terminal outcome; journal I/O failures are sticky
// on the runner but do not fail the cell.
func (r *Runner) record(o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.journal == nil {
		return
	}
	if err := r.journal.Append(RecordOf(o)); err != nil && r.loadErr == nil {
		r.loadErr = err
	}
}

// intoTrialError normalizes an attempt error into a classified
// TrialError, pulling the post-mortem out of a watchdog error when one
// is attached.
func intoTrialError(err error, t *Trial) *TrialError {
	var te *TrialError
	if errors.As(err, &te) {
		return te
	}
	te = &TrialError{Cell: t.Cell, Class: Classify(err), Attempt: t.Attempt,
		Seed: t.Seed, Err: err, Msg: err.Error()}
	var we *cpu.WatchdogError
	if errors.As(err, &we) {
		te.Post = &we.Post
	}
	if te.Post == nil && te.Class == ClassTimeout {
		// The attempt returned, so the trial goroutine is done and the
		// observed core is quiescent.
		te.Post = t.postMortem()
	}
	return te
}

// perturbSeed derives the retry seed for an attempt (1-based): a
// splitmix64-style mix so consecutive attempts land in unrelated parts
// of seed space, deterministically.
func perturbSeed(seed int64, attempt int) int64 {
	z := uint64(seed) + uint64(attempt)*0x9e3779b97f4a7c15
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z)
}

// backoff computes the exponential, jittered delay before re-running
// a cell after its attempt-th failure (1-based): BackoffBase doubled
// per attempt, capped at BackoffMax, with deterministic ±25% jitter
// derived from the seed so synchronized workers desynchronize without
// a wall-clock or global-rand dependency.
func backoff(cfg Config, seed int64, attempt int) time.Duration {
	max := cfg.backoffMax()
	d := cfg.backoffBase() << uint(attempt-1)
	if d > max || d <= 0 { // <<= also guards shift overflow
		d = max
	}
	j := perturbSeed(seed, attempt)
	frac := float64(uint64(j)%1000)/1000*0.5 - 0.25
	return d + time.Duration(float64(d)*frac)
}
