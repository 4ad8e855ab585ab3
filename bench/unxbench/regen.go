package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/harness"
	"repro/internal/telemetry"
)

// regenSizes are the inputs of one paper regeneration.
type regenSizes struct {
	samples, bits, scale     int
	crossRounds, crossProbes int
	noiseSamples             int
	sigmas                   []float64
	invFirsts, restoreFirsts []int
	interferenceRounds       int
	minConstLoads            int
	rateRounds               int
	mitigationRounds         int
}

// fullSizes are cmd/figures' defaults: the regeneration that writes
// results/*.csv.
var fullSizes = regenSizes{
	samples: 1000, bits: 1000, scale: 10000,
	crossRounds: 800, crossProbes: 350,
	noiseSamples: 150, sigmas: []float64{2, 5, 10, 15, 25},
	invFirsts: []int{8, 16, 24}, restoreFirsts: []int{5, 10, 20},
	interferenceRounds: 5, minConstLoads: 8, rateRounds: 200, mitigationRounds: 16,
}

// smallSizes run every section quickly: the set-up's warm-up, and the
// ops of a -quick run.
var smallSizes = regenSizes{
	samples: 20, bits: 20, scale: 200,
	crossRounds: 40, crossProbes: 20,
	noiseSamples: 10, sigmas: []float64{5},
	invFirsts: []int{8}, restoreFirsts: []int{5},
	interferenceRounds: 2, minConstLoads: 2, rateRounds: 10, mitigationRounds: 2,
}

// regenOutput is what one regeneration produced and what it cost.
type regenOutput struct {
	csv            map[string][]byte // the files cmd/figures writes, by name
	printed        bytes.Buffer      // results cmd/figures only prints
	sectionTime    map[string]time.Duration
	cells          int
	attempts       int
	cellBusy       time.Duration // summed cell latency
	sweepWall      time.Duration
	figure12Cycles uint64
}

// names lists the CSV files in sorted order.
func (o *regenOutput) names() []string {
	names := make([]string, 0, len(o.csv))
	for n := range o.csv {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func (o *regenOutput) digest() []byte {
	h := sha256.New()
	for _, n := range o.names() {
		fmt.Fprintf(h, "%s %d\n", n, len(o.csv[n]))
		h.Write(o.csv[n])
	}
	h.Write(o.printed.Bytes())
	return h.Sum(nil)
}

// regenerate runs all 17 sections of cmd/figures on r, in its order.
// Any harness gap or error fails the regeneration.
func regenerate(r *harness.Runner, seed int64, z regenSizes) (*regenOutput, error) {
	o := &regenOutput{csv: map[string][]byte{}, sectionTime: map[string]time.Duration{}}
	// sweep folds one harness report into the totals.
	sweep := func(name string, start time.Time, rep *harness.Report, err error) error {
		o.sweepWall += time.Since(start)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if err := rep.Err(); err != nil {
			return err
		}
		for _, oc := range rep.Outcomes {
			o.cells++
			o.attempts += oc.Attempts
			o.cellBusy += oc.Elapsed
		}
		return nil
	}
	save := func(name string, rows [][]string) error {
		var buf bytes.Buffer
		if err := csv.NewWriter(&buf).WriteAll(rows); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		o.csv[name] = buf.Bytes()
		return nil
	}
	sections := []struct {
		name string
		run  func() error
	}{
		{"table1", func() error { return save("table1", experiments.TableICSV(experiments.TableI())) }},
		{"2", func() error {
			t := time.Now()
			pts, rep, err := experiments.Figure2With(r, seed)
			if err := sweep("figure2", t, rep, err); err != nil {
				return err
			}
			return save("figure2", experiments.ResolutionCSV(pts))
		}},
		{"3", func() error {
			t := time.Now()
			pts, rep, err := experiments.Figure3With(r, seed)
			if err := sweep("figure3", t, rep, err); err != nil {
				return err
			}
			return save("figure3", experiments.DiffCSV(pts))
		}},
		{"6", func() error {
			t := time.Now()
			pts, rep, err := experiments.Figure6With(r, seed)
			if err := sweep("figure6", t, rep, err); err != nil {
				return err
			}
			return save("figure6", experiments.DiffCSV(pts))
		}},
		{"7", func() error {
			t := time.Now()
			res, rep, err := experiments.Figure7With(r, seed, z.samples)
			if err := sweep("figure7", t, rep, err); err != nil {
				return err
			}
			return save("figure7", experiments.PDFCSV(res))
		}},
		{"8", func() error {
			t := time.Now()
			res, rep, err := experiments.Figure8With(r, seed, z.samples)
			if err := sweep("figure8", t, rep, err); err != nil {
				return err
			}
			return save("figure8", experiments.PDFCSV(res))
		}},
		{"9", func() error { return save("figure9", experiments.BitsCSV(experiments.Figure9(z.bits, seed))) }},
		{"10", func() error {
			t := time.Now()
			res, rep, err := experiments.Figure10With(r, seed, z.bits)
			if err := sweep("figure10", t, rep, err); err != nil {
				return err
			}
			return save("figure10", experiments.LeakageCSV(res))
		}},
		{"11", func() error {
			t := time.Now()
			res, rep, err := experiments.Figure11With(r, seed, z.bits)
			if err := sweep("figure11", t, rep, err); err != nil {
				return err
			}
			return save("figure11", experiments.LeakageCSV(res))
		}},
		{"rate", func() error {
			for _, es := range []bool{false, true} {
				fmt.Fprintf(&o.printed, "rate %v %+v\n", es, experiments.LeakageRate(seed, z.rateRounds, es))
			}
			return nil
		}},
		{"12", func() error {
			t := time.Now()
			res, rep, err := experiments.Figure12With(r, seed, z.scale)
			if err := sweep("figure12", t, rep, err); err != nil {
				return err
			}
			for _, c := range res.Cells {
				o.figure12Cycles += c.Cycles
			}
			return save("figure12", experiments.Figure12CSV(res))
		}},
		{"13", func() error {
			t := time.Now()
			pts, rep, err := experiments.Figure13With(r, seed)
			if err := sweep("figure13", t, rep, err); err != nil {
				return err
			}
			return save("figure13", experiments.ResolutionCSV(pts))
		}},
		{"crosscore", func() error {
			t := time.Now()
			rows, rep, err := experiments.CrossCoreStudyWith(r, seed, z.crossRounds, z.crossProbes)
			if err := sweep("crosscore", t, rep, err); err != nil {
				return err
			}
			return save("crosscore", experiments.CrossCoreCSV(rows))
		}},
		{"sensitivity", func() error {
			t := time.Now()
			nr, rep, err := experiments.NoiseRobustnessWith(r, seed, z.sigmas, z.noiseSamples)
			if err := sweep("sensitivity_noise", t, rep, err); err != nil {
				return err
			}
			if err := save("sensitivity_noise", experiments.NoiseCSV(nr)); err != nil {
				return err
			}
			t = time.Now()
			lm, rep, err := experiments.LatencyModelSensitivityWith(r, seed, z.invFirsts, z.restoreFirsts)
			if err := sweep("latency_model", t, rep, err); err != nil {
				return err
			}
			fmt.Fprintf(&o.printed, "latency model %+v\n", lm)
			return nil
		}},
		{"interference", func() error {
			t := time.Now()
			rows, rep, err := experiments.InterferenceStudyWith(r, seed, z.interferenceRounds)
			if err := sweep("interference", t, rep, err); err != nil {
				return err
			}
			return save("interference", experiments.InterferenceCSV(rows))
		}},
		{"minconst", func() error {
			mc, err := experiments.MinimalSafeConstantChecked(seed, z.minConstLoads, 0.01)
			if err != nil {
				return fmt.Errorf("minconst: %w", err)
			}
			return save("minconst", experiments.MinConstCSV(mc))
		}},
		{"mitigation", func() error {
			t := time.Now()
			pts, rep, err := experiments.MitigationStudyWith(r, seed, z.scale/4, z.mitigationRounds)
			if err := sweep("mitigation", t, rep, err); err != nil {
				return err
			}
			fmt.Fprintf(&o.printed, "mitigation %+v\n", pts)
			return nil
		}},
	}
	for _, s := range sections {
		start := time.Now()
		if err := s.run(); err != nil {
			return nil, err
		}
		o.sectionTime[s.name] = time.Since(start)
	}
	return o, nil
}

// paperRegen regenerates every figure and table of the paper on a
// harness runner, as cmd/figures does. One op is one full regeneration.
type paperRegen struct {
	p      params
	eng    *engine.Pool
	runner *harness.Runner
	sizes  regenSizes

	first *regenOutput // op 0's outputs, which every later op must equal
	want  []byte

	// traced-phase totals
	traced   int
	sections map[string]time.Duration
	cells    int
	attempts int
	cellBusy time.Duration
	wall     time.Duration
}

func setupRegen(p params) (instance, error) {
	r, err := harness.New(harness.Config{})
	if err != nil {
		return nil, err
	}
	// The warm-up builds the runner's engine pool and touches every
	// section once, so the first timed regeneration pays no lazy set-up.
	if _, err := regenerate(r, p.seed, smallSizes); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	z := fullSizes
	if p.quick {
		z = smallSizes
	}
	return &paperRegen{p: p, eng: engine.New(engine.Config{Workers: 1}), runner: r, sizes: z,
		sections: map[string]time.Duration{}}, nil
}

func (g *paperRegen) pool() *engine.Pool { return g.eng }

func (g *paperRegen) op(_ *engine.Worker, i int) error {
	out, err := regenerate(g.runner, g.p.seed, g.sizes)
	if err != nil {
		return fmt.Errorf("regeneration %d: %w", i, err)
	}
	if g.first == nil {
		g.first, g.want = out, out.digest()
	} else if !bytes.Equal(out.digest(), g.want) {
		return fmt.Errorf("regeneration %d differs from regeneration 0", i)
	}
	if g.runner.Config().Metrics != nil { // the traced phase's runner
		g.traced++
		for k, d := range out.sectionTime {
			g.sections[k] += d
		}
		g.cells += out.cells
		g.attempts += out.attempts
		g.cellBusy += out.cellBusy
		g.wall += out.sweepWall
	}
	return nil
}

// traceOn switches to a runner whose campaign registry is reg.
func (g *paperRegen) traceOn(reg *telemetry.Registry) {
	r, err := harness.New(harness.Config{Metrics: reg})
	if err != nil {
		panic(err) // New rejects only resume and hang-injection configs
	}
	g.runner = r
}

func (g *paperRegen) layers(_ *telemetry.Registry, ph phase) map[string]float64 {
	n := float64(g.traced)
	if n == 0 {
		return nil
	}
	var rest time.Duration
	for k, d := range g.sections {
		if k != "12" && k != "mitigation" && k != "crosscore" {
			rest += d
		}
	}
	m := map[string]float64{
		"figures.figure12_s":   g.sections["12"].Seconds() / n,
		"figures.mitigation_s": g.sections["mitigation"].Seconds() / n,
		"figures.crosscore_s":  g.sections["crosscore"].Seconds() / n,
		"figures.rest_s":       rest.Seconds() / n,
		"harness.cells":        float64(g.cells) / n,
		"harness.attempts":     float64(g.attempts) / n,
	}
	if g.wall > 0 {
		m["harness.worker_busy_frac"] = g.cellBusy.Seconds() / (float64(runtime.GOMAXPROCS(0)) * g.wall.Seconds())
	}
	return m
}

// goldenDir holds the committed CSVs, relative to the repository root
// the benchmark runs from.
const goldenDir = "results"

// verify checks op 0's CSVs against the golden files when the run is
// the full-size regeneration at seed 42, the seed results/ was made at.
func (g *paperRegen) verify(int) (checked, error) {
	if g.first == nil {
		return checked{failed: 1}, errors.New("no regeneration succeeded")
	}
	v := checked{digest: fmt.Sprintf("%x", g.want), counts: map[string]uint64{
		"csv_files":           uint64(len(g.first.csv)),
		"figure12_sim_cycles": g.first.figure12Cycles,
		"harness_cells":       uint64(g.first.cells),
	}}
	for _, b := range g.first.csv {
		v.counts["csv_bytes"] += uint64(len(b))
	}
	if g.p.quick || g.p.seed != 42 {
		return v, nil
	}
	var first error
	for _, name := range g.first.names() {
		want, err := os.ReadFile(filepath.Join(goldenDir, name+".csv"))
		if err == nil && !bytes.Equal(g.first.csv[name], want) {
			err = fmt.Errorf("%s.csv differs from the golden file", name)
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
