package workload

import (
	"testing"

	"repro/internal/branch"
	"repro/internal/cpu"
	"repro/internal/mem"
	"repro/internal/memsys"
	"repro/internal/noise"
	"repro/internal/undo"
)

// run is RunChecked, failing the test on a watchdog trip.
func run(t *testing.T, w Workload, scheme undo.Scheme, seed int64) RunResult {
	t.Helper()
	res, err := RunChecked(w, scheme, seed)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSuiteShapes(t *testing.T) {
	suite := Suite(2000, 1)
	if len(suite) != 8 {
		t.Fatalf("suite size %d", len(suite))
	}
	seen := map[string]bool{}
	for _, w := range suite {
		if w.Program == nil || w.Init == nil || w.Name == "" || w.Description == "" {
			t.Fatalf("incomplete workload %q", w.Name)
		}
		if seen[w.Name] {
			t.Fatalf("duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
}

func TestAllWorkloadsTerminate(t *testing.T) {
	for _, w := range Suite(1500, 2) {
		res := run(t, w, undo.NewUnsafe(), 3)
		if res.Stats.TimedOut {
			t.Fatalf("%s timed out", w.Name)
		}
		if res.Stats.Retired < 1000 {
			t.Fatalf("%s retired only %d instructions", w.Name, res.Stats.Retired)
		}
	}
}

func TestMispredictProfilesSpan(t *testing.T) {
	// The suite must span predictable and unpredictable control so the
	// Figure 12 overhead range is meaningful.
	rates := map[string]float64{}
	for _, w := range Suite(3000, 3) {
		res := run(t, w, undo.NewUnsafe(), 4)
		sq := float64(res.Stats.Squashes) / float64(res.Stats.Retired)
		rates[w.Name] = sq
	}
	if rates["stream"] > 0.002 {
		t.Errorf("stream squash rate %.4f, want ≈0", rates["stream"])
	}
	if rates["compute"] > 0.002 {
		t.Errorf("compute squash rate %.4f, want ≈0", rates["compute"])
	}
	if rates["branchy_filter"] < 0.01 {
		t.Errorf("branchy_filter squash rate %.4f, want branch-heavy", rates["branchy_filter"])
	}
	if rates["binsearch"] < 0.01 {
		t.Errorf("binsearch squash rate %.4f, want branch-heavy", rates["binsearch"])
	}
}

func TestPointerChaseIsMemoryBound(t *testing.T) {
	res := run(t, PointerChase(2000, 1024, 5), undo.NewUnsafe(), 5)
	ipc := res.Stats.IPC()
	if ipc > 0.2 {
		t.Fatalf("pointer chase IPC %.3f, want memory-bound (≪1)", ipc)
	}
}

func TestStreamFasterThanPointerChase(t *testing.T) {
	s := run(t, Stream(2000), undo.NewUnsafe(), 6)
	p := run(t, PointerChase(2000, 1024, 6), undo.NewUnsafe(), 6)
	if s.Stats.IPC() <= p.Stats.IPC() {
		t.Fatalf("stream IPC %.3f not above pointer-chase %.3f", s.Stats.IPC(), p.Stats.IPC())
	}
}

func TestConstantTimeSlowsBranchyCode(t *testing.T) {
	w := BranchyFilter(2000, 7)
	base := run(t, w, undo.NewUnsafe(), 7)
	c65 := run(t, w, undo.NewConstantTime(65, undo.Relaxed), 7)
	slow := float64(c65.Stats.Cycles)/float64(base.Stats.Cycles) - 1
	if slow < 0.10 {
		t.Fatalf("const-65 slowdown %.3f on branchy code, want substantial", slow)
	}
	// And predictable code is barely affected.
	s := Stream(2000)
	baseS := run(t, s, undo.NewUnsafe(), 8)
	c65S := run(t, s, undo.NewConstantTime(65, undo.Relaxed), 8)
	slowS := float64(c65S.Stats.Cycles)/float64(baseS.Stats.Cycles) - 1
	if slowS > 0.05 {
		t.Fatalf("const-65 slowdown %.3f on stream, want ≈0", slowS)
	}
}

func TestSchemesLadder(t *testing.T) {
	schemes := StandardSchemes()
	if len(schemes) != 7 {
		t.Fatalf("scheme count %d", len(schemes))
	}
	if schemes[0].Name != "unsafe" || schemes[1].Name != "no-const" || schemes[6].Name != "const-65" {
		t.Fatalf("scheme names %v", []string{schemes[0].Name, schemes[1].Name, schemes[6].Name})
	}
	// Factories must build fresh instances.
	a, b := schemes[1].New(), schemes[1].New()
	if a == b {
		t.Fatal("factory returned shared scheme")
	}
}

func TestRunsAreDeterministic(t *testing.T) {
	w := HashProbe(1000, 2048, 9)
	a := run(t, w, undo.NewCleanupSpec(), 10)
	b := run(t, w, undo.NewCleanupSpec(), 10)
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Squashes != b.Stats.Squashes {
		t.Fatalf("nondeterministic run: %d/%d vs %d/%d cycles/squashes",
			a.Stats.Cycles, a.Stats.Squashes, b.Stats.Cycles, b.Stats.Squashes)
	}
}

func TestItoa(t *testing.T) {
	for v, want := range map[int]string{0: "0", 7: "7", 65: "65", 120: "120"} {
		if got := itoa(v); got != want {
			t.Errorf("itoa(%d) = %q", v, got)
		}
	}
}

func TestExtendedSuite(t *testing.T) {
	ext := ExtendedSuite(2000, 1)
	if len(ext) != 10 {
		t.Fatalf("extended suite size %d", len(ext))
	}
	for _, w := range ext[8:] {
		res := run(t, w, undo.NewCleanupSpec(), 2)
		if res.Stats.TimedOut || res.Stats.Retired < 500 {
			t.Fatalf("%s did not run properly: %+v", w.Name, res.Stats)
		}
	}
}

func TestMatMulTileComputesCorrectly(t *testing.T) {
	w := MatMulTile(1, 2)
	res := run(t, w, undo.NewUnsafe(), 3)
	if res.Stats.TimedOut {
		t.Fatal("timed out")
	}
	// A = [[1,2],[3,4]] (i%7+1), B = [[1,2],[3,4]] (i%5+1):
	// C[0][0] = 1*1 + 2*3 = 7.
	backing := mem.NewMemory()
	w.Init(backing)
	hier := memsys.MustNew(memsys.DefaultConfig(4), backing)
	core := cpu.MustNew(cpu.DefaultConfig(), hier, branch.New(branch.DefaultConfig()), undo.NewUnsafe(), noise.None{})
	core.Run(w.Program)
	if got := backing.ReadWord(0x100000 + 0x20000); got != 7 {
		t.Fatalf("C[0][0] = %d, want 7", got)
	}
}

func TestQueueSimBranchy(t *testing.T) {
	res := run(t, QueueSim(3000, 4), undo.NewUnsafe(), 4)
	rate := float64(res.Stats.Squashes) / float64(res.Stats.Retired)
	if rate < 0.005 {
		t.Fatalf("queue_sim squash rate %.4f, want data-dependent branching", rate)
	}
}
