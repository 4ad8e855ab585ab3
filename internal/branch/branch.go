// Package branch implements a bimodal (2-bit saturating counter) branch
// predictor with a branch target buffer. The unXpec receiver mistrains
// it by repeatedly executing the victim branch with in-bounds indices so
// the out-of-bounds invocation mis-speculates into the transient path
// (paper Algorithm 1 POISON / Figure 4 preparation stage).
package branch

// counter is a 2-bit saturating counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) update(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Config sizes the predictor.
type Config struct {
	// TableBits is log2 of the pattern-history table size.
	TableBits int
	// BTBEntries is the size of the target buffer.
	BTBEntries int
	// InitialTaken starts counters weakly taken when true, weakly
	// not-taken otherwise.
	InitialTaken bool
}

// DefaultConfig matches a small gem5-style bimodal predictor.
func DefaultConfig() Config {
	return Config{TableBits: 12, BTBEntries: 1024}
}

// Prediction is the frontend's view of a branch.
type Prediction struct {
	Taken bool
	// Target is the predicted destination; valid only when the BTB
	// hits. A taken prediction without a BTB hit stalls fetch until
	// decode provides the target (we model it as using the decoded
	// target immediately, which is fine at this granularity).
	Target int
	BTBHit bool
}

// Stats counts predictor behaviour.
type Stats struct {
	Lookups     uint64
	Mispredicts uint64
	BTBHits     uint64
	BTBMisses   uint64
}

// MispredictRate returns mispredicts / lookups.
func (s Stats) MispredictRate() float64 {
	if s.Lookups == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Lookups)
}

// Direction is the predictor interface the core consumes; the bimodal
// Predictor and the global-history Gshare both implement it.
type Direction interface {
	Predict(pc int) Prediction
	Update(pc int, taken bool, target int, mispredicted bool)
	Stats() Stats
	ResetStats()
}

var (
	_ Direction = (*Predictor)(nil)
	_ Direction = (*Gshare)(nil)
)

// Predictor is a bimodal predictor + BTB, indexed by instruction index
// (the simulated PC).
type Predictor struct {
	cfg   Config
	table []counter
	btb   map[int]int
	stats Stats
}

// New builds a predictor.
func New(cfg Config) *Predictor {
	if cfg.TableBits <= 0 {
		cfg.TableBits = 12
	}
	if cfg.BTBEntries <= 0 {
		cfg.BTBEntries = 1024
	}
	init := counter(1)
	if cfg.InitialTaken {
		init = 2
	}
	t := make([]counter, 1<<cfg.TableBits)
	for i := range t {
		t[i] = init
	}
	return &Predictor{cfg: cfg, table: t, btb: make(map[int]int)}
}

func (p *Predictor) index(pc int) int {
	// Simple PC hash; low bits of the instruction index.
	return pc & (len(p.table) - 1)
}

// Predict returns the frontend prediction for the branch at pc.
func (p *Predictor) Predict(pc int) Prediction {
	p.stats.Lookups++
	pred := Prediction{Taken: p.table[p.index(pc)].taken()}
	if tgt, ok := p.btb[pc]; ok {
		pred.Target = tgt
		pred.BTBHit = true
		p.stats.BTBHits++
	} else {
		p.stats.BTBMisses++
	}
	return pred
}

// Update trains the predictor with the resolved outcome and records a
// mispredict when the frontend guess was wrong.
func (p *Predictor) Update(pc int, taken bool, target int, mispredicted bool) {
	i := p.index(pc)
	p.table[i] = p.table[i].update(taken)
	if taken {
		if len(p.btb) < p.cfg.BTBEntries {
			p.btb[pc] = target
		} else if _, ok := p.btb[pc]; ok {
			p.btb[pc] = target
		}
	}
	if mispredicted {
		p.stats.Mispredicts++
	}
}

// Stats returns a copy of the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes counters without forgetting training.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// Counter exposes the raw 2-bit state for a pc (tests).
func (p *Predictor) Counter(pc int) uint8 { return uint8(p.table[p.index(pc)]) }
