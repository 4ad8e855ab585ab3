package unxpec

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/evict"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/undo"
)

// Options configures one attack instance.
type Options struct {
	// LoadsInBranch is the number of transient loads (1..8 in the
	// paper's parameter sweep; 1 for the headline result).
	LoadsInBranch int
	// FNAccesses is N: the number of dependent memory accesses in the
	// branch condition f(N) (paper uses 1 for the attack, 1..3 for the
	// Figure 2/13 resolution-time study).
	FNAccesses int
	// UseEvictionSets enables the Figure 5 optimization: prime the
	// probe lines' L1 sets so transient fills must evict and rollback
	// must restore.
	UseEvictionSets bool
	// TimingBasedEvictionSets additionally verifies each eviction set
	// by timing before use. For the Table I L1D (64 sets × 64 B lines)
	// every set-index bit lies inside the page offset, so the
	// arithmetic same-set construction is exactly what a real attacker
	// computes; the timing check confirms it end to end. (Timing-only
	// *search* is required for caches with hidden mappings — package
	// evict demonstrates the Vila-style group-testing reduction against
	// the randomized L2.)
	TimingBasedEvictionSets bool
	// InitialTrainRounds mistrain the predictor before the first
	// measurement; RetrainRounds run before every subsequent round.
	InitialTrainRounds int
	RetrainRounds      int
	// Scheme is the defense under attack. Nil defaults to CleanupSpec.
	Scheme undo.Scheme
	// Predictor overrides the branch predictor (nil = bimodal). The
	// attack also works against gshare because the trainer repeats the
	// identical code path, holding the global history constant.
	Predictor branch.Direction
	// Noise is the measurement-environment model. Nil means noiseless.
	Noise noise.Model
	// Seed drives every stochastic component (replacement, layout
	// randomization is fixed; secrets use their own seeds).
	Seed int64
	// CPU and Mem override the default Table I configuration when
	// non-nil.
	CPU *cpu.Config
	Mem *memsys.Config
	// RoundOverheadCycles models receiver-side loop overhead (decode,
	// bookkeeping, victim invocation) that the generated kernels do
	// not include; it only affects leakage-rate reporting, never
	// measurements. The default is calibrated so the reported rate
	// lands at the paper's ≈140 k samples/s on the 2 GHz clock.
	RoundOverheadCycles uint64
}

// withDefaults fills unset fields.
func (o Options) withDefaults() Options {
	if o.LoadsInBranch == 0 {
		o.LoadsInBranch = 1
	}
	if o.FNAccesses == 0 {
		o.FNAccesses = 1
	}
	if o.InitialTrainRounds == 0 {
		o.InitialTrainRounds = 8
	}
	if o.RetrainRounds == 0 {
		o.RetrainRounds = 2
	}
	if o.Scheme == nil {
		o.Scheme = undo.NewCleanupSpec()
	}
	if o.Noise == nil {
		o.Noise = noise.None{}
	}
	if o.RoundOverheadCycles == 0 {
		o.RoundOverheadCycles = 14_100
	}
	return o
}

// Validate rejects out-of-range options.
func (o Options) Validate() error {
	if o.LoadsInBranch < 1 || o.LoadsInBranch > 32 {
		return fmt.Errorf("unxpec: loads in branch %d outside [1,32]", o.LoadsInBranch)
	}
	if o.FNAccesses < 1 || o.FNAccesses > 16 {
		return fmt.Errorf("unxpec: f(N) accesses %d outside [1,16]", o.FNAccesses)
	}
	return nil
}

// Attack is one configured attack instance bound to its own simulated
// machine. Microarchitectural state persists across rounds, exactly as
// it does for the real receiver looping in one process.
type Attack struct {
	opts   Options
	layout Layout
	core   *cpu.CPU
	hier   *memsys.Hierarchy

	train   *isa.Program
	prep    *isa.Program
	prepHot *isa.Program // prep without priming, for steady-state rounds
	measure *isa.Program

	primeLines  []mem.Addr
	trained     bool
	rounds      uint64
	roundCycles uint64
	met         attackMetrics
}

// New builds the simulated machine, generates the programs, and
// constructs eviction sets if requested.
func New(opts Options) (*Attack, error) {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	layout, err := NewLayout(opts.FNAccesses)
	if err != nil {
		return nil, err
	}

	memCfg := memsys.DefaultConfig(opts.Seed)
	if opts.Mem != nil {
		memCfg = *opts.Mem
	}
	backing := mem.NewMemory()
	layout.InstallData(backing)
	hier, err := memsys.New(memCfg, backing)
	if err != nil {
		return nil, err
	}

	cpuCfg := cpu.DefaultConfig()
	if opts.CPU != nil {
		cpuCfg = *opts.CPU
	}
	pred := opts.Predictor
	if pred == nil {
		pred = branch.New(branch.DefaultConfig())
	}
	core, err := cpu.New(cpuCfg, hier, pred, opts.Scheme, opts.Noise)
	if err != nil {
		return nil, err
	}

	a := &Attack{opts: opts, layout: layout, core: core, hier: hier}

	if opts.UseEvictionSets {
		if err := a.buildEvictionSets(); err != nil {
			return nil, err
		}
	}

	if a.train, err = layout.TrainProgram(opts.FNAccesses, opts.LoadsInBranch); err != nil {
		return nil, err
	}
	if a.prep, err = layout.PrepProgram(opts.FNAccesses, opts.LoadsInBranch, a.primeLines); err != nil {
		return nil, err
	}
	if a.prepHot, err = layout.PrepProgram(opts.FNAccesses, opts.LoadsInBranch, nil); err != nil {
		return nil, err
	}
	if a.measure, err = layout.MeasureProgram(opts.FNAccesses, opts.LoadsInBranch); err != nil {
		return nil, err
	}
	return a, nil
}

// MustNew is New for known-good options.
func MustNew(opts Options) *Attack {
	a, err := New(opts)
	if err != nil {
		panic(err)
	}
	return a
}

// buildEvictionSets gathers, per transient load i, enough lines
// congruent with P[64·i] in the L1 to fill its set.
func (a *Attack) buildEvictionSets() error {
	l1 := a.hier.Config().L1D
	finder := evict.NewFinder(a.hier)
	for i := 1; i <= a.opts.LoadsInBranch; i++ {
		target := a.layout.ProbeLine(i)
		lines := evict.CongruentL1(target, l1.Sets, l1.Ways, a.layout.ProbeBase)
		if a.opts.TimingBasedEvictionSets {
			// Random replacement makes a single eviction sweep
			// probabilistic (≈1/ways per sweep in steady state);
			// multi-pass trials plus a majority vote confirm the set
			// reliably while non-congruent sets still never evict.
			finder.Trials = 9
			finder.Passes = 16
			if !finder.Evicts(target, lines, evict.L1) {
				return fmt.Errorf("unxpec: eviction set for P[64*%d] failed timing verification", i)
			}
		}
		a.primeLines = append(a.primeLines, lines...)
	}
	return nil
}

// Layout returns the attack's memory layout.
func (a *Attack) Layout() Layout { return a.layout }

// Core exposes the simulated CPU (experiments read its stats).
func (a *Attack) Core() *cpu.CPU { return a.core }

// PrimeLines returns the eviction-set lines in use (empty without the
// optimization).
func (a *Attack) PrimeLines() []mem.Addr { return a.primeLines }

// SetSecretBit plants the one-bit secret the sender will transiently
// read. Writing the backing store directly leaves cache state untouched.
func (a *Attack) SetSecretBit(bit int) {
	a.hier.Memory().WriteWord(a.layout.SecretAddr, uint64(bit&1))
	// The PoC assumes the victim recently touched its secret, so the
	// line is warm (a cold secret line would add equal latency to both
	// secret values and shrink nothing, but keeping it warm matches
	// the paper's "no cache state modified under secret 0" setup).
	if !a.hier.L1D().Probe(a.layout.SecretAddr) {
		a.hier.WarmRead(a.layout.SecretAddr)
	}
}

// MeasureOnce runs one full attack round for the given secret bit and
// returns the receiver's observed latency (second minus first
// timestamp). The first round performs full preparation including
// priming; later rounds rely on rollback having restored the primed
// state, re-priming nothing — the paper's "prime once" observation.
func (a *Attack) MeasureOnce(secret int) uint64 {
	lat, _ := a.MeasureOnceChecked(secret)
	return lat
}

// MeasureOnceChecked is MeasureOnce with the core watchdog escalated to
// a typed error: when any phase of the round (training, preparation,
// measurement) exhausts its cycle budget, the observed latency is
// garbage and the round reports a *cpu.WatchdogError instead of feeding
// that garbage into a calibration or sweep average.
func (a *Attack) MeasureOnceChecked(secret int) (uint64, error) {
	a.SetSecretBit(secret)
	start := a.core.Cycle()

	trainRounds := a.opts.RetrainRounds
	if !a.trained {
		trainRounds = a.opts.InitialTrainRounds
	}
	for i := 0; i < trainRounds; i++ {
		if _, err := a.core.RunChecked(a.train); err != nil {
			return 0, err
		}
	}
	prep := a.prepHot
	if !a.trained {
		prep = a.prep
	}
	a.trained = true
	if _, err := a.core.RunChecked(prep); err != nil {
		return 0, err
	}
	if _, err := a.core.RunChecked(a.measure); err != nil {
		return 0, err
	}

	a.rounds++
	a.roundCycles += a.core.Cycle() - start
	lat := a.core.Reg(RegT2) - a.core.Reg(RegT1)
	a.met.rounds.Inc()
	a.met.roundLatency.ObserveInt(lat)
	return lat, nil
}

// LastSquashStats reports the most recent round's branch-resolution
// time (T1–T2) and cleanup stall (T5) from core instrumentation.
func (a *Attack) LastSquashStats() (resolution, cleanup uint64) {
	st := a.core.Snapshot()
	return st.LastBranchResolution, st.LastCleanupStall
}

// Calibration is the receiver's threshold-training result.
type Calibration struct {
	Threshold float64
	TrainAcc  float64
	Mean0     float64
	Mean1     float64
	// Diff is the secret-dependent timing difference (the paper's ≈22
	// without and ≈32 with eviction sets).
	Diff     float64
	Samples0 []float64
	Samples1 []float64
}

// Calibrate collects n samples per secret value and fits the decision
// threshold (the paper's 178 / 183 step). Watchdog trips during
// calibration are silently folded in; experiment drivers should use
// CalibrateChecked.
func (a *Attack) Calibrate(n int) Calibration {
	c, _ := a.CalibrateChecked(n)
	return c
}

// CalibrateChecked is Calibrate with the watchdog escalated: the first
// timed-out round aborts calibration with a *cpu.WatchdogError instead
// of training the threshold on garbage samples.
func (a *Attack) CalibrateChecked(n int) (Calibration, error) {
	c := Calibration{
		Samples0: make([]float64, 0, n),
		Samples1: make([]float64, 0, n),
	}
	for i := 0; i < n; i++ {
		l0, err := a.MeasureOnceChecked(0)
		if err != nil {
			return c, err
		}
		c.Samples0 = append(c.Samples0, float64(l0))
		l1, err := a.MeasureOnceChecked(1)
		if err != nil {
			return c, err
		}
		c.Samples1 = append(c.Samples1, float64(l1))
	}
	c.Mean0 = stats.Mean(c.Samples0)
	c.Mean1 = stats.Mean(c.Samples1)
	c.Diff = c.Mean1 - c.Mean0
	c.Threshold, c.TrainAcc = stats.BestThreshold(c.Samples0, c.Samples1)
	a.met.calDiff.Set(c.Diff)
	a.met.calThreshold.Set(c.Threshold)
	a.met.calAccuracy.Set(c.TrainAcc)
	return c, nil
}

// LeakResult is the outcome of leaking a bit string.
type LeakResult struct {
	Truth     []int
	Guesses   []int
	Latencies []uint64
	Accuracy  float64
	// SamplesPerBit is how many measurements each decoded bit used.
	SamplesPerBit int
}

// LeakSecret steals the given bits, one round (or samplesPerBit rounds
// with majority vote) each, deciding against the calibrated threshold.
func (a *Attack) LeakSecret(bits []int, threshold float64, samplesPerBit int) LeakResult {
	res, _ := a.LeakSecretChecked(bits, threshold, samplesPerBit)
	return res
}

// LeakSecretChecked is LeakSecret with the watchdog escalated: a
// timed-out round aborts the leak with a *cpu.WatchdogError instead of
// decoding a garbage latency into a bit guess.
func (a *Attack) LeakSecretChecked(bits []int, threshold float64, samplesPerBit int) (LeakResult, error) {
	if samplesPerBit < 1 {
		samplesPerBit = 1
	}
	res := LeakResult{Truth: append([]int(nil), bits...), SamplesPerBit: samplesPerBit}
	for _, b := range bits {
		ones := 0
		var lat uint64
		for s := 0; s < samplesPerBit; s++ {
			var err error
			lat, err = a.MeasureOnceChecked(b)
			if err != nil {
				return res, err
			}
			a.met.thresholdMargin.Observe(math.Abs(float64(lat) - threshold))
			if float64(lat) >= threshold {
				ones++
			}
		}
		a.met.bitConfidence.Observe(math.Abs(2*float64(ones)-float64(samplesPerBit)) / float64(samplesPerBit))
		guess := 0
		if ones*2 > samplesPerBit {
			guess = 1
		}
		res.Guesses = append(res.Guesses, guess)
		res.Latencies = append(res.Latencies, lat)
	}
	res.Accuracy = stats.Accuracy(res.Guesses, res.Truth)
	return res, nil
}

// RateReport summarizes attack speed (§VI-B).
type RateReport struct {
	Rounds           uint64
	MeanRoundCycles  float64
	OverheadCycles   uint64
	SamplesPerSecond float64
	// BitsPerSecond equals SamplesPerSecond at one sample per bit.
	BitsPerSecond float64
	ClockGHz      float64
}

// LeakageRate converts the measured per-round cycle cost into a
// samples-per-second rate on the configured clock, including the
// modelled receiver-loop overhead.
func (a *Attack) LeakageRate(clockGHz float64) RateReport {
	r := RateReport{Rounds: a.rounds, OverheadCycles: a.opts.RoundOverheadCycles, ClockGHz: clockGHz}
	if a.rounds == 0 {
		return r
	}
	r.MeanRoundCycles = float64(a.roundCycles) / float64(a.rounds)
	cyclesPerSample := r.MeanRoundCycles + float64(r.OverheadCycles)
	r.SamplesPerSecond = clockGHz * 1e9 / cyclesPerSample
	r.BitsPerSecond = r.SamplesPerSecond
	return r
}

// RandomSecret generates the n-bit random secret of Figure 9,
// reproducibly per seed.
func RandomSecret(n int, seed int64) []int {
	rng := rand.New(rand.NewSource(seed))
	bits := make([]int, n)
	for i := range bits {
		bits[i] = rng.Intn(2)
	}
	return bits
}

// BitsToBytes packs decoded bits (MSB first) into bytes, for the covert
// channel example.
func BitsToBytes(bits []int) []byte {
	out := make([]byte, 0, (len(bits)+7)/8)
	for i := 0; i+8 <= len(bits); i += 8 {
		var b byte
		for j := 0; j < 8; j++ {
			b = b<<1 | byte(bits[i+j]&1)
		}
		out = append(out, b)
	}
	return out
}

// BytesToBits unpacks bytes into bits (MSB first).
func BytesToBits(data []byte) []int {
	out := make([]int, 0, len(data)*8)
	for _, b := range data {
		for j := 7; j >= 0; j-- {
			out = append(out, int(b>>uint(j))&1)
		}
	}
	return out
}
