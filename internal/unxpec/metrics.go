package unxpec

import "repro/internal/telemetry"

// attackMetrics holds the attack-level telemetry handles. All fields
// are nil when telemetry is disabled.
type attackMetrics struct {
	rounds       *telemetry.Counter
	roundLatency *telemetry.Histogram

	// thresholdMargin is |observed − threshold| per decision: small
	// margins mean the receiver is deciding near the boundary, the
	// first symptom of a defense (fuzzy-time, noise) degrading the
	// channel before accuracy visibly drops.
	thresholdMargin *telemetry.Histogram
	// bitConfidence is the majority-vote margin per decoded bit,
	// |2·ones − samples| / samples in [0,1].
	bitConfidence *telemetry.Histogram

	calDiff      *telemetry.Gauge
	calThreshold *telemetry.Gauge
	calAccuracy  *telemetry.Gauge
}

// SetMetrics binds the whole attack machine — core, hierarchy, undo
// scheme and the attack's own channel-quality instruments — to a
// telemetry registry. A nil registry detaches everything.
func (a *Attack) SetMetrics(r *telemetry.Registry) {
	a.core.SetMetrics(r)
	if r == nil {
		a.met = attackMetrics{}
		return
	}
	a.met = attackMetrics{
		rounds: r.Counter("attack_rounds_total", "complete attack rounds executed"),
		roundLatency: r.Histogram("attack_round_latency_cycles",
			"receiver-observed latency per round (T2-T1 RDTSC delta)",
			telemetry.LatencyBuckets()),
		thresholdMargin: r.Histogram("attack_threshold_margin_cycles",
			"distance of each decision's latency from the calibrated threshold",
			[]float64{0, 1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64, 96}),
		bitConfidence: r.Histogram("attack_bit_confidence",
			"majority-vote margin per decoded bit (1 = unanimous)",
			[]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
		calDiff:      r.Gauge("attack_calibration_diff_cycles", "calibrated secret-dependent timing difference (mean1 - mean0)"),
		calThreshold: r.Gauge("attack_calibration_threshold_cycles", "calibrated decision threshold"),
		calAccuracy:  r.Gauge("attack_calibration_train_accuracy", "threshold accuracy on the training samples"),
	}
}
