package noise

import "testing"

// driveNoise folds a mixed jitter/stall stream into one
// order-sensitive hash.
func driveNoise(s *System) uint64 {
	var sum uint64 = 1469598103934665603
	for i := 0; i < 2000; i++ {
		sum = (sum ^ uint64(int64(s.LoadJitter()))) * 1099511628211
		sum = (sum ^ uint64(int64(s.InterferenceStall()))) * 1099511628211
	}
	return sum
}

// TestSystemResetMatchesFresh drains a noise source, rewinds it to the
// state saved at construction, and requires the replayed stream to be
// bit-identical to a never-used source with the same seed — for every
// construction profile.
func TestSystemResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		mk   func(seed int64) *System
	}{
		{"system", NewSystem},
		{"hostos", NewHostOS},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			used := tc.mk(23)
			st := used.SaveState()
			driveNoise(used) // drain a long prefix
			used.RestoreState(st)
			got := driveNoise(used)
			want := driveNoise(tc.mk(23))
			if got != want {
				t.Errorf("restored %s stream %#x != fresh %#x", tc.name, got, want)
			}
		})
	}
}

// TestSystemSaveRestoreMidStream pins the snapshot path: restoring to
// a mid-stream position replays exactly the draws that followed it.
func TestSystemSaveRestoreMidStream(t *testing.T) {
	s := NewSystem(29)
	driveNoise(s) // advance to an arbitrary position
	st := s.SaveState()
	first := driveNoise(s)
	s.RestoreState(st)
	if got := driveNoise(s); got != first {
		t.Errorf("restored stream %#x != first continuation %#x", got, first)
	}
}

// TestSystemRestoreAllocates pins the documented cost model: seeking
// the stream never allocates (reseed-and-replay works in place).
func TestSystemRestoreAllocates(t *testing.T) {
	s := NewSystem(31)
	driveNoise(s)
	st := s.SaveState()
	s.LoadJitter()
	if avg := testing.AllocsPerRun(20, func() { s.RestoreState(st) }); avg != 0 {
		t.Errorf("RestoreState allocates %.1f/op, want 0", avg)
	}
}
