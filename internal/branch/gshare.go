package branch

// Gshare is a global-history predictor: the PHT is indexed by PC XOR a
// global branch-history register. It is harder to mistrain blindly than
// the bimodal predictor (the attacker must reproduce the victim's
// history leading up to the target branch), which is why Spectre-style
// mistraining loops execute the *same* code path repeatedly — as
// unXpec's trainer does, making it effective against both predictors.
type Gshare struct {
	cfg     Config
	history uint64
	histLen uint
	table   []counter
	btb     map[int]int
	stats   Stats
}

// NewGshare builds a gshare predictor with the given history length.
func NewGshare(cfg Config, historyBits uint) *Gshare {
	if cfg.TableBits <= 0 {
		cfg.TableBits = 12
	}
	if cfg.BTBEntries <= 0 {
		cfg.BTBEntries = 1024
	}
	if historyBits == 0 || historyBits > 32 {
		historyBits = 8
	}
	init := counter(1)
	if cfg.InitialTaken {
		init = 2
	}
	t := make([]counter, 1<<cfg.TableBits)
	for i := range t {
		t[i] = init
	}
	return &Gshare{cfg: cfg, histLen: historyBits, table: t, btb: make(map[int]int)}
}

func (g *Gshare) index(pc int) int {
	mask := uint64(len(g.table) - 1)
	return int((uint64(pc) ^ g.history) & mask)
}

// Predict returns the direction/target guess for the branch at pc.
func (g *Gshare) Predict(pc int) Prediction {
	g.stats.Lookups++
	pred := Prediction{Taken: g.table[g.index(pc)].taken()}
	if tgt, ok := g.btb[pc]; ok {
		pred.Target = tgt
		pred.BTBHit = true
		g.stats.BTBHits++
	} else {
		g.stats.BTBMisses++
	}
	return pred
}

// Update trains the table and shifts the outcome into the history.
func (g *Gshare) Update(pc int, taken bool, target int, mispredicted bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].update(taken)
	bit := uint64(0)
	if taken {
		bit = 1
	}
	g.history = ((g.history << 1) | bit) & ((1 << g.histLen) - 1)
	if taken {
		if len(g.btb) < g.cfg.BTBEntries {
			g.btb[pc] = target
		} else if _, ok := g.btb[pc]; ok {
			g.btb[pc] = target
		}
	}
	if mispredicted {
		g.stats.Mispredicts++
	}
}

// Stats returns the counters.
func (g *Gshare) Stats() Stats { return g.stats }

// ResetStats zeroes counters, keeping training and history.
func (g *Gshare) ResetStats() { g.stats = Stats{} }

// History exposes the global history register (tests).
func (g *Gshare) History() uint64 { return g.history }
