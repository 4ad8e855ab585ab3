package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
)

// bound is one end-to-end metric's direction and regression bound, as
// BENCHMARK.json gives them.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// readRecords loads run records from files and from the *.json files of
// directories.
func readRecords(args []string) ([]*record, error) {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		m, err := filepath.Glob(filepath.Join(a, "*.json"))
		if err != nil {
			return nil, err
		}
		paths = append(paths, m...)
	}
	var out []*record
	for _, p := range paths {
		buf, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &record{}
		if err := json.Unmarshal(buf, r); err != nil || r.Workload == "" {
			return nil, fmt.Errorf("%s: not a run record (%v)", p, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// verdict names for one (workload, metric) comparison.
const (
	improved   = "improved"
	unchanged  = "unchanged"
	worse      = "worse"
	unresolved = "unresolved"
)

// judge compares the change's values b against the parent's values a of
// one metric. pairs are (parent, change) values of runs on the same
// seed. The rules are the benchmark's:
//   - worse: the change's median is worse than the parent's by more than
//     the bound;
//   - improved: at least ten pairs, the change wins at least nine tenths
//     of them, and the medians differ by more than the parent's own
//     quartile spread;
//   - unresolved: either side's quartile spread exceeds the bound
//     (unless the rule for improved holds and every change run beats
//     every parent run as well), or the change
//     looks better by more than the bound without meeting the rule for
//     improved, or either side has a single run and the medians differ
//     by more than the bound;
//   - unchanged otherwise.
func judge(better string, bnd float64, a, b []float64, pairs [][2]float64) string {
	lower := better == "lower"
	beats := func(x, y float64) bool { // x is better than y
		if lower {
			return x < y
		}
		return x > y
	}
	q1a, medA, q3a := quartiles(a)
	q1b, medB, q3b := quartiles(b)
	if medA == 0 {
		return unresolved
	}
	worseBy := (medB - medA) / math.Abs(medA)
	if !lower {
		worseBy = -worseBy
	}
	if len(a) < 2 || len(b) < 2 {
		// One run a side says nothing about the run-to-run spread.
		if math.Abs(worseBy) > bnd {
			return unresolved
		}
		return unchanged
	}
	wins := 0
	for _, p := range pairs {
		if beats(p[1], p[0]) {
			wins++
		}
	}
	pairedWins := len(pairs) >= 10 && wins*10 >= 9*len(pairs)
	allBetter := true
	for _, x := range b {
		for _, y := range a {
			allBetter = allBetter && beats(x, y)
		}
	}
	switch {
	case (q3a-q1a)/math.Abs(medA) > bnd || (medB != 0 && (q3b-q1b)/math.Abs(medB) > bnd):
		if allBetter && pairedWins {
			return improved
		}
		return unresolved
	case worseBy > bnd:
		return worse
	case pairedWins && math.Abs(medB-medA) > q3a-q1a:
		return improved
	case -worseBy > bnd:
		return unresolved
	}
	return unchanged
}

// runCompare implements `unxbench compare A... -- B...`: one row per
// workload and end-to-end metric with each side's median and quartiles
// and a verdict. It exits 1 when a seed run on both sides disagrees on
// sim_digest or on any simulated count, or when a run was incorrect.
func runCompare(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark definition holding the metric bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()
	split := -1
	for i, a := range rest {
		if a == "--" {
			split = i
		}
	}
	if split <= 0 || split == len(rest)-1 {
		fmt.Fprintln(stderr, "usage: unxbench compare [-bench FILE] PARENT.json... -- CHANGE.json...")
		return 2
	}
	bounds, err := readBounds(*benchPath)
	if err != nil {
		fmt.Fprintln(stderr, "unxbench compare:", err)
		return 2
	}
	side := [2][]*record{}
	for s, list := range [][]string{rest[:split], rest[split+1:]} {
		if side[s], err = readRecords(list); err != nil {
			fmt.Fprintln(stderr, "unxbench compare:", err)
			return 2
		}
	}
	code := 0
	for _, msg := range simMismatches(side[0], side[1]) {
		fmt.Fprintln(stdout, "MISMATCH", msg)
		code = 1
	}
	fmt.Fprintf(stdout, "%-13s %-12s %36s %36s %8s  %s\n", "workload", "metric", "parent median [q1, q3] n", "change median [q1, q3] n", "delta", "verdict")
	for _, wl := range workloads {
		a, b := untraced(side[0], wl.name), untraced(side[1], wl.name)
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		for _, bd := range bounds {
			va, vb := values(a, bd.Name), values(b, bd.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			q1a, ma, q3a := quartiles(va)
			q1b, mb, q3b := quartiles(vb)
			v := judge(bd.Better, bd.Bound, va, vb, pairs(a, b, bd.Name))
			fmt.Fprintf(stdout, "%-13s %-12s %36s %36s %+7.1f%%  %s\n", wl.name, bd.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", ma, q1a, q3a, len(va)),
				fmt.Sprintf("%.4g [%.4g, %.4g] %d", mb, q1b, q3b, len(vb)),
				100*(mb-ma)/ma, v)
		}
	}
	return code
}

// simMismatches lists incorrect runs, and runs of the same workload and
// seed, on either side, whose simulated digest or counts differ.
func simMismatches(a, b []*record) []string {
	var out []string
	first := map[string]*record{}
	for _, r := range append(append([]*record(nil), a...), b...) {
		if !r.Correct {
			out = append(out, fmt.Sprintf("%s seed %d: incorrect run (%s)", r.Workload, r.Seed, strings.Join(r.Errors, "; ")))
		}
		key := fmt.Sprintf("%s/%d", r.Workload, r.Seed)
		f, ok := first[key]
		if !ok {
			first[key] = r
			continue
		}
		if f.SimDigest != r.SimDigest {
			out = append(out, fmt.Sprintf("%s seed %d: sim_digest %s vs %s", r.Workload, r.Seed, f.SimDigest, r.SimDigest))
		}
		if !reflect.DeepEqual(f.SimCounts, r.SimCounts) {
			out = append(out, fmt.Sprintf("%s seed %d: simulated counts %v vs %v", r.Workload, r.Seed, f.SimCounts, r.SimCounts))
		}
	}
	return out
}

func untraced(rs []*record, workload string) []*record {
	var out []*record
	for _, r := range rs {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Seed < out[j].Seed })
	return out
}

func values(rs []*record, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// pairs matches parent and change runs by seed.
func pairs(a, b []*record, metric string) [][2]float64 {
	bySeed := map[int64]*record{}
	for _, r := range b {
		bySeed[r.Seed] = r
	}
	var out [][2]float64
	for _, r := range a {
		m, ok := bySeed[r.Seed]
		if !ok {
			continue
		}
		x, okx := r.Metrics[metric]
		y, oky := m.Metrics[metric]
		if okx && oky {
			out = append(out, [2]float64{x.Value, y.Value})
		}
	}
	return out
}
