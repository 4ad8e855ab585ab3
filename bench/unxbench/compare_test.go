package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// series returns ten values around base with a ±1% wiggle.
func series(base float64) []float64 {
	out := make([]float64, 10)
	for i := range out {
		out[i] = base * (1 + float64(i%5-2)/200)
	}
	return out
}

func zip(a, b []float64) [][2]float64 {
	var out [][2]float64
	for i := range a {
		out = append(out, [2]float64{a[i], b[i]})
	}
	return out
}

func TestJudge(t *testing.T) {
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	a := series(100)
	wide := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	for _, c := range []struct {
		name   string
		better string
		a, b   []float64
		pairs  bool
		want   string
	}{
		{"same runs", "lower", a, a, true, unchanged},
		{"20% slower", "lower", a, scale(a, 1.2), true, worse},
		{"20% lower throughput", "higher", a, scale(a, 0.8), true, worse},
		{"5% faster in every pair", "lower", a, scale(a, 0.95), true, improved},
		{"5% faster, no pairs", "lower", a, scale(a, 0.95), false, unchanged},
		{"30% faster, no pairs", "lower", a, scale(a, 0.7), false, unresolved},
		{"spread wider than the bound", "lower", wide, scale(wide, 0.97), true, unresolved},
		{"every change run beats every parent run", "lower", wide, scale(wide, 0.3), true, improved},
		{"every run better but too few pairs", "lower", wide[:2], scale(wide[:2], 0.3), true, unresolved},
		{"every run better but no pairs", "lower", wide, scale(wide, 0.3), false, unresolved},
		{"one run a side, 30% slower", "lower", a[:1], scale(a[:1], 1.3), true, unresolved},
		{"one run a side, 5% slower", "lower", a[:1], scale(a[:1], 1.05), true, unchanged},
	} {
		var p [][2]float64
		if c.pairs {
			p = zip(c.a, c.b)
		}
		if got := judge(c.better, 0.10, c.a, c.b, p); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

func writeRecord(t *testing.T, dir string, r *record) {
	t.Helper()
	buf, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, fmt.Sprintf("%s-%d.json", r.Workload, r.Seed))
	if err := os.WriteFile(name, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCompareCommand(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(bench, []byte(`{"end_to_end": [{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}`), 0o644)
	mk := func(side string, seed int64, ops float64, digest string) {
		d := filepath.Join(dir, side)
		os.MkdirAll(d, 0o755)
		writeRecord(t, d, &record{
			Workload: "leak-channel", Seed: seed, Correct: true, Attempted: 1,
			Metrics:   map[string]value{"ops_per_s": {ops, "1/s"}},
			SimDigest: digest, SimCounts: map[string]uint64{"prefix_rounds": 10},
		})
	}
	for s := int64(1); s <= 3; s++ {
		mk("a", s, 1000+float64(s), "d")
		mk("b", s, 1001+float64(s), "d")
	}
	var out, errs strings.Builder
	if code := runCompare([]string{"-bench", bench, filepath.Join(dir, "a"), "--", filepath.Join(dir, "b")}, &out, &errs); code != 0 {
		t.Fatalf("compare exited %d: %s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), "leak-channel") || !strings.Contains(out.String(), unchanged) {
		t.Errorf("compare output lacks an unchanged leak-channel row:\n%s", out.String())
	}

	mk("b", 2, 1003, "other")
	out.Reset()
	if code := runCompare([]string{"-bench", bench, filepath.Join(dir, "a"), "--", filepath.Join(dir, "b")}, &out, &errs); code != 1 {
		t.Errorf("compare with a differing sim_digest exited %d, want 1:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "MISMATCH leak-channel seed 2") {
		t.Errorf("compare did not name the mismatching run:\n%s", out.String())
	}
	if code := runCompare([]string{"-bench", bench, filepath.Join(dir, "a")}, &out, &errs); code != 2 {
		t.Errorf("compare without -- exited %d, want 2", code)
	}
}
