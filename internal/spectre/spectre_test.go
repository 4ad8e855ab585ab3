package spectre

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/cpu"
	"repro/internal/memsys"
	"repro/internal/undo"
)

// leak is LeakByte with a watchdog trip failing the test.
func leak(t *testing.T, a *Attack, candidates int) (int, bool) {
	t.Helper()
	v, hit, err := a.LeakByte(candidates)
	if err != nil {
		t.Fatal(err)
	}
	return v, hit
}

func TestSpectreLeaksAgainstUnsafeBaseline(t *testing.T) {
	a, err := New(undo.NewUnsafe(), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Restrict the probe sweep to 32 candidates for test speed; the
	// secret values fit.
	secret := []byte{7, 19, 3, 31, 0}
	decoded, hits, err := a.LeakBytes(secret, 32)
	if err != nil {
		t.Fatal(err)
	}
	if hits != len(secret) {
		t.Fatalf("only %d/%d probe hits against the unsafe machine", hits, len(secret))
	}
	if !bytes.Equal(decoded, secret) {
		t.Fatalf("decoded % d, want % d", decoded, secret)
	}
}

func TestCleanupSpecStopsFlushReload(t *testing.T) {
	// The defense's claim: rollback removes the transient footprint, so
	// the Flush+Reload receiver sees nothing.
	a, err := New(undo.NewCleanupSpec(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSecretByte(13)
	if _, hit := leak(t, a, 32); hit {
		t.Fatal("Flush+Reload still works against CleanupSpec — rollback broken")
	}
}

func TestInvisibleLiteStopsFlushReload(t *testing.T) {
	a, err := New(undo.NewInvisibleLite(), 3)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSecretByte(21)
	if _, hit := leak(t, a, 32); hit {
		t.Fatal("Flush+Reload works against the invisible scheme")
	}
}

func TestStrictConstantTimeResidueReopensSpectre(t *testing.T) {
	// §VI-E first strategy: an undersized strict budget leaves residual
	// transient lines; Flush+Reload can find them again. With a single
	// transient install the default budget covers it, so force a
	// too-small budget relative to the work (budget below the first
	// invalidation cost).
	a, err := New(undo.NewConstantTime(10, undo.Strict), 4)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSecretByte(9)
	v, hit := leak(t, a, 32)
	if !hit {
		t.Fatal("undersized strict rollback left no residue — expected the §VI-E leak")
	}
	if v != 9 {
		t.Fatalf("residue decoded %d, want 9", v)
	}
}

func TestCleanupL1OnlyModeLeaksThroughL2(t *testing.T) {
	// Ablation: with invalidation restricted to the L1, the transient
	// L2 footprint survives the squash and plain Flush+Reload reads the
	// secret straight out of the L2 — why the paper's configuration is
	// Cleanup_FOR_L1L2.
	scheme := undo.NewCleanupSpec()
	scheme.Mode = undo.CleanupL1Only
	a, err := New(scheme, 7)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSecretByte(23)
	v, hit := leak(t, a, 32)
	if !hit || v != 23 {
		t.Fatalf("L1-only cleanup should leak via L2: hit=%v v=%d", hit, v)
	}
}

func TestVictimProgramsShareBranchPC(t *testing.T) {
	a, err := New(nil, 5)
	if err != nil {
		t.Fatal(err)
	}
	// The bounds-check branch must be at the same index in training and
	// attack programs or mistraining would not transfer.
	if a.train.Insts[victimStart+1].Op != a.victim.Insts[victimStart+1].Op {
		t.Fatal("victim block misaligned between training and attack programs")
	}
}

func TestLayoutOOB(t *testing.T) {
	l := DefaultLayout()
	if l.OOBIndex() <= l.Bound {
		t.Fatal("OOB index not out of bounds")
	}
	if l.ProbeEntry(1)-l.ProbeEntry(0) != 64 {
		t.Fatal("probe stride must be one line")
	}
}

func TestFullByteRange(t *testing.T) {
	if testing.Short() {
		t.Skip("256-candidate sweep is slow")
	}
	a, err := New(undo.NewUnsafe(), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []byte{0, 127, 200, 255} {
		a.SetSecretByte(s)
		v, hit := leak(t, a, 256)
		if !hit || byte(v) != s {
			t.Fatalf("leaked %d (hit=%v), want %d", v, hit, s)
		}
	}
}

func TestAccessors(t *testing.T) {
	a, err := New(nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if a.Core() == nil || a.Hierarchy() == nil {
		t.Fatal("accessors")
	}
}

// stallScheme is CleanupSpec with a rollback stall longer than the
// core's whole MaxCycles budget.
type stallScheme struct{ *undo.CleanupSpec }

func (s stallScheme) OnSquash(h *memsys.Hierarchy, ctx undo.SquashContext) undo.Result {
	r := s.CleanupSpec.OnSquash(h, ctx)
	r.StallCycles += int(cpu.DefaultConfig().MaxCycles) + 1
	return r
}

// TestLeakByteReportsWatchdog requires a round whose cleanup stall runs
// past MaxCycles to fail with cpu.ErrWatchdog instead of reading as a
// probe miss.
func TestLeakByteReportsWatchdog(t *testing.T) {
	a, err := New(stallScheme{undo.NewCleanupSpec()}, 10)
	if err != nil {
		t.Fatal(err)
	}
	a.SetSecretByte(13)
	if _, hit, err := a.LeakByte(32); !errors.Is(err, cpu.ErrWatchdog) {
		t.Fatalf("LeakByte = hit %v, err %v; want an error wrapping cpu.ErrWatchdog", hit, err)
	}
	if _, _, err := a.LeakBytes([]byte{1, 2}, 32); !errors.Is(err, cpu.ErrWatchdog) {
		t.Fatalf("LeakBytes err %v; want an error wrapping cpu.ErrWatchdog", err)
	}
}
