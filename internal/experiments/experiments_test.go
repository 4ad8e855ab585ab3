package experiments

import (
	"strings"
	"testing"

	"repro/internal/harness"
)

// newRunner returns an in-memory harness runner with default settings.
func newRunner(t *testing.T) *harness.Runner {
	t.Helper()
	r, err := harness.New(harness.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestTableIMatchesPaper(t *testing.T) {
	rows := TableI()
	if len(rows) != 5 {
		t.Fatalf("Table I rows %d", len(rows))
	}
	wants := map[string]string{
		"Processor":          "1 core, 2 GHz, out-of-order 192-entry ROB",
		"Private L1 I cache": "32 KB, 4-way, 128-set",
		"Private L1 D cache": "32 KB, 8-way, 64-set",
		"Shared L2 cache":    "2 MB, 16-way, 2048-set",
		"Memory":             "50 ns RT after L2",
	}
	for _, r := range rows {
		if want, ok := wants[r.Module]; !ok || r.Configuration != want {
			t.Errorf("row %q = %q, want %q", r.Module, r.Configuration, want)
		}
	}
}

func TestFigure2Shape(t *testing.T) {
	pts, err := whole(Figure2With(newRunner(t), 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3*5*2 {
		t.Fatalf("point count %d", len(pts))
	}
	byCell := map[[3]int]float64{}
	for _, p := range pts {
		byCell[[3]int{p.FNAccesses, p.Loads, p.Secret}] = p.Resolution
	}
	// Constant across loads and secrets for fixed N.
	for n := 1; n <= 3; n++ {
		ref := byCell[[3]int{n, 1, 0}]
		for loads := 1; loads <= 5; loads++ {
			for secret := 0; secret <= 1; secret++ {
				v := byCell[[3]int{n, loads, secret}]
				if v < ref-12 || v > ref+12 {
					t.Errorf("N=%d loads=%d secret=%d resolution %.0f strays from %.0f",
						n, loads, secret, v, ref)
				}
			}
		}
	}
	// Linear growth in N by ≈ one memory latency.
	r1, r2, r3 := byCell[[3]int{1, 1, 0}], byCell[[3]int{2, 1, 0}], byCell[[3]int{3, 1, 0}]
	if r2-r1 < 80 || r3-r2 < 80 {
		t.Errorf("resolution growth %0.f → %.0f → %.0f too shallow", r1, r2, r3)
	}
}

func TestFigure3And6Shapes(t *testing.T) {
	f3, err := whole(Figure3With(newRunner(t), 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(f3) != 8 {
		t.Fatalf("figure 3 points %d", len(f3))
	}
	if d := f3[0].Diff; d < 20 || d > 24 {
		t.Errorf("figure 3 single-load diff %.1f, want ≈22", d)
	}
	if d := f3[7].Diff; d < f3[0].Diff || d > f3[0].Diff+8 {
		t.Errorf("figure 3 growth %.1f → %.1f, want shallow", f3[0].Diff, f3[7].Diff)
	}
	f6, err := whole(Figure6With(newRunner(t), 2))
	if err != nil {
		t.Fatal(err)
	}
	if d := f6[0].Diff; d < 30 || d > 34 {
		t.Errorf("figure 6 single-load diff %.1f, want ≈32", d)
	}
	if d := f6[7].Diff; d < 55 || d > 75 {
		t.Errorf("figure 6 eight-load diff %.1f, want ≈64", d)
	}
	for i := range f6 {
		if f6[i].Diff <= f3[i].Diff {
			t.Errorf("eviction sets must enlarge the difference at %d loads", i+1)
		}
	}
}

func TestFigure7And8Distributions(t *testing.T) {
	f7, err := whole(Figure7With(newRunner(t), 3, 150))
	if err != nil {
		t.Fatal(err)
	}
	if f7.Diff < 18 || f7.Diff > 27 {
		t.Errorf("figure 7 diff %.1f, want ≈22", f7.Diff)
	}
	f8, err := whole(Figure8With(newRunner(t), 3, 150))
	if err != nil {
		t.Fatal(err)
	}
	if f8.Diff < 28 || f8.Diff > 37 {
		t.Errorf("figure 8 diff %.1f, want ≈32", f8.Diff)
	}
	if f8.Threshold <= f7.Threshold-10 {
		t.Errorf("thresholds %.0f/%.0f look inverted", f7.Threshold, f8.Threshold)
	}
	if len(f7.Xs) != 121 || len(f7.Density0) != 121 || len(f7.Density1) != 121 {
		t.Fatalf("KDE curve lengths %d/%d/%d", len(f7.Xs), len(f7.Density0), len(f7.Density1))
	}
	// Density of class 0 must peak left of class 1.
	peak := func(ys []float64) int {
		p := 0
		for i := range ys {
			if ys[i] > ys[p] {
				p = i
			}
		}
		return p
	}
	if peak(f7.Density0) >= peak(f7.Density1) {
		t.Error("figure 7 class-0 peak not left of class-1 peak")
	}
}

func TestFigure9Reproducible(t *testing.T) {
	a, b := Figure9(1000, 5), Figure9(1000, 5)
	if len(a) != 1000 {
		t.Fatalf("bits %d", len(a))
	}
	ones := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("not reproducible")
		}
		ones += a[i]
	}
	if ones < 400 || ones > 600 {
		t.Fatalf("bias: %d ones in 1000", ones)
	}
}

func TestFigure10And11Accuracy(t *testing.T) {
	f10, err := whole(Figure10With(newRunner(t), 4, 400))
	if err != nil {
		t.Fatal(err)
	}
	if f10.Accuracy < 0.80 || f10.Accuracy > 0.93 {
		t.Errorf("figure 10 accuracy %.3f, want ≈0.867", f10.Accuracy)
	}
	f11, err := whole(Figure11With(newRunner(t), 4, 400))
	if err != nil {
		t.Fatal(err)
	}
	if f11.Accuracy < 0.87 || f11.Accuracy > 0.98 {
		t.Errorf("figure 11 accuracy %.3f, want ≈0.916", f11.Accuracy)
	}
	if f11.Accuracy <= f10.Accuracy {
		t.Errorf("eviction sets should raise accuracy: %.3f vs %.3f", f11.Accuracy, f10.Accuracy)
	}
	if len(f10.Latencies) != 400 || len(f10.Guesses) != 400 {
		t.Fatal("figure 10 series sizes")
	}
}

func TestLeakageRateBand(t *testing.T) {
	r := LeakageRate(5, 60, false)
	if r.Rounds != 60 {
		t.Fatalf("%d of 60 rounds completed", r.Rounds)
	}
	if r.SamplesPerSecond < 100_000 || r.SamplesPerSecond > 200_000 {
		t.Errorf("rate %.0f samples/s, want ≈140k", r.SamplesPerSecond)
	}
	rES := LeakageRate(5, 60, true)
	// Both versions are comparable (§VI-B).
	ratio := rES.SamplesPerSecond / r.SamplesPerSecond
	if ratio < 0.9 || ratio > 1.1 {
		t.Errorf("eviction-set rate ratio %.2f, want ≈1", ratio)
	}
}

func TestFigure12Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 12 sweep is slow")
	}
	r, err := whole(Figure12With(newRunner(t), 6, 2500))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Workloads) != 8 || len(r.Schemes) != 7 {
		t.Fatalf("dimensions %dx%d", len(r.Workloads), len(r.Schemes))
	}
	noConst := r.MeanOverhead["no-const"]
	c25 := r.MeanOverhead["const-25"]
	c65 := r.MeanOverhead["const-65"]
	if noConst < 0 || noConst > 0.12 {
		t.Errorf("CleanupSpec overhead %.3f, want ≈0.05", noConst)
	}
	if c25 < 0.15 || c25 > 0.35 {
		t.Errorf("const-25 overhead %.3f, want ≈0.224", c25)
	}
	if c65 < 0.50 || c65 > 0.95 {
		t.Errorf("const-65 overhead %.3f, want ≈0.728", c65)
	}
	// Monotone in the constant.
	prev := noConst
	for _, s := range []string{"const-25", "const-30", "const-35", "const-45", "const-65"} {
		if r.MeanOverhead[s] < prev {
			t.Errorf("overhead not monotone at %s", s)
		}
		prev = r.MeanOverhead[s]
	}
	// Unsafe is the zero baseline.
	if r.MeanOverhead["unsafe"] != 0 {
		t.Errorf("unsafe baseline overhead %.3f", r.MeanOverhead["unsafe"])
	}
}

func TestFigure13HostProfile(t *testing.T) {
	pts, err := whole(Figure13With(newRunner(t), 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 30 {
		t.Fatalf("points %d", len(pts))
	}
	// Deeper memory: resolutions exceed the simulator profile's, and
	// still grow with N despite noise.
	var n1, n3 float64
	var c1, c3 int
	for _, p := range pts {
		if p.FNAccesses == 1 {
			n1 += p.Resolution
			c1++
		}
		if p.FNAccesses == 3 {
			n3 += p.Resolution
			c3++
		}
	}
	n1, n3 = n1/float64(c1), n3/float64(c3)
	if n1 < 120 {
		t.Errorf("host N=1 resolution %.0f, want deeper than simulator's ≈120", n1)
	}
	if n3 < n1+150 {
		t.Errorf("host resolution not growing with N: %.0f → %.0f", n1, n3)
	}
}

func TestMitigationStudy(t *testing.T) {
	pts, err := whole(MitigationStudyWith(newRunner(t), 8, 1500, 16))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points %d", len(pts))
	}
	byName := map[string]MitigationPoint{}
	for _, p := range pts {
		byName[p.Scheme] = p
	}
	base := byName["cleanupspec"]
	cons := byName["const-65-relaxed"]
	fuzz := byName["fuzzy-40"]
	if base.ResidualDiff < 18 {
		t.Errorf("undefended channel %.1f cycles, want ≈22", base.ResidualDiff)
	}
	if cons.ResidualDiff != 0 {
		t.Errorf("const-65 residual %.1f, want 0", cons.ResidualDiff)
	}
	// Fuzzy time narrows the channel below the raw difference and
	// costs less than the constant-time floor.
	if fuzz.ResidualDiff >= base.ResidualDiff {
		t.Errorf("fuzzy residual %.1f not below %.1f", fuzz.ResidualDiff, base.ResidualDiff)
	}
	if fuzz.MeanOverhead >= cons.MeanOverhead {
		t.Errorf("fuzzy overhead %.3f not below const-65's %.3f", fuzz.MeanOverhead, cons.MeanOverhead)
	}
	if !strings.HasPrefix(cons.Scheme, "const") {
		t.Error("scheme naming")
	}
}
