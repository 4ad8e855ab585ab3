package cpu

import "repro/internal/telemetry"

// coreMetrics holds the pre-resolved telemetry handles of one core.
// All fields are nil when telemetry is disabled, so every instrument
// site costs exactly one branch (the nil-receiver check inside the
// handle).
type coreMetrics struct {
	fetched      *telemetry.Counter
	issued       *telemetry.Counter
	retired      *telemetry.Counter
	squashes     *telemetry.Counter
	squashedInst *telemetry.Counter
	cleanups     *telemetry.Counter
	watchdog     *telemetry.Counter

	cycles        *telemetry.Counter
	skippedCycles *telemetry.Counter
	fastForwards  *telemetry.Counter

	cleanupStall *telemetry.Histogram
	resolution   *telemetry.Histogram
	loadLatency  *telemetry.Histogram
	robOcc       *telemetry.Histogram

	robGauge *telemetry.Gauge
}

// SetMetrics binds the core, its hierarchy (and through it every cache
// level) and its undo scheme, when the scheme has a SetMetrics method,
// to a telemetry registry, resolving every handle once. A nil registry
// detaches instrumentation (the disabled fast path). Metric names are
// catalogued in docs/OBSERVABILITY.md.
func (c *CPU) SetMetrics(r *telemetry.Registry) {
	c.hier.SetMetrics(r)
	if ms, ok := c.scheme.(interface{ SetMetrics(*telemetry.Registry) }); ok {
		ms.SetMetrics(r)
	}
	if r == nil {
		c.met = coreMetrics{}
		return
	}
	c.met = coreMetrics{
		fetched:      r.Counter("cpu_fetched_total", "instructions fetched (all paths)"),
		issued:       r.Counter("cpu_issued_total", "instructions issued out of order"),
		retired:      r.Counter("cpu_retired_total", "instructions retired"),
		squashes:     r.Counter("cpu_squashes_total", "branch mis-speculation squashes"),
		squashedInst: r.Counter("cpu_squashed_inst_total", "wrong-path instructions discarded"),
		cleanups:     r.Counter("cpu_cleanups_total", "rollback cleanups handed to the undo scheme"),
		watchdog:     r.Counter("cpu_watchdog_trips_total", "runs that exhausted the MaxCycles budget"),

		cycles:        r.Counter("cpu_cycles_total", "simulated cycles advanced, including fast-forwarded ones"),
		skippedCycles: r.Counter("cpu_skipped_cycles_total", "idle cycles jumped over by the fast-forward path"),
		fastForwards:  r.Counter("cpu_fastforwards_total", "idle-cycle jumps taken by the fast-forward path"),

		cleanupStall: r.Histogram("cpu_cleanup_stall_cycles",
			"per-squash rollback stall (the secret-dependent T5 the attack measures)",
			telemetry.StallBuckets()),
		resolution: r.Histogram("cpu_branch_resolution_cycles",
			"T1-T2 interval of mispredicted branches (fetch to resolution)",
			telemetry.LatencyBuckets()),
		loadLatency: r.Histogram("cpu_load_latency_cycles",
			"issue-time load latency through the hierarchy",
			telemetry.LatencyBuckets()),
		robOcc: r.Histogram("cpu_rob_occupancy",
			"ROB occupancy sampled at squash points",
			telemetry.OccupancyBuckets(c.cfg.ROBSize)),

		robGauge: r.Gauge("cpu_rob_occupancy_now", "current ROB occupancy"),
	}
}
