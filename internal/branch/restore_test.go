package branch

import "testing"

// direction is the predictor surface the restore tests exercise; both
// Predictor and Gshare implement it.
type direction interface {
	Predict(pc int) Prediction
	Update(pc int, taken bool, target int, mispredicted bool)
	Stats() Stats
	SaveState() any
	RestoreState(any)
}

// drive pushes a deterministic pseudo-random branch stream through p
// and folds every prediction into one order-sensitive hash, returning
// it with the final stats.
func drive(p direction) (uint64, Stats) {
	var sum uint64 = 1469598103934665603
	mix := func(v uint64) { sum = (sum ^ v) * 1099511628211 }
	z := uint64(0x243f6a8885a308d3)
	for i := 0; i < 400; i++ {
		z += 0x9e3779b97f4a7c15
		x := z
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x ^= x >> 27
		pc := int(x % 97)
		taken := x&(1<<40) != 0
		pred := p.Predict(pc)
		mix(uint64(pc))
		if pred.Taken {
			mix(1)
		} else {
			mix(0)
		}
		mix(uint64(pred.Target))
		p.Update(pc, taken, pc+4+int(x%3), pred.Taken != taken)
	}
	return sum, p.Stats()
}

// TestSaveRestoreMatchesReset pins the rewind contract: a predictor
// driven through a long branch stream and then restored to the state
// it was saved in at construction must replay the stream bit-identically
// to a never-used instance — tables, BTB, history and stats all rewind,
// for every predictor kind.
func TestSaveRestoreMatchesReset(t *testing.T) {
	cases := []struct {
		name string
		mk   func() direction
	}{
		{"twobit", func() direction { return New(DefaultConfig()) }},
		{"gshare", func() direction { return NewGshare(DefaultConfig(), 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.mk()
			st := p.SaveState()
			drive(p) // dirty tables, BTB, history, stats
			p.RestoreState(st)
			gotSum, gotStats := drive(p)
			wantSum, wantStats := drive(tc.mk())
			if gotSum != wantSum || gotStats != wantStats {
				t.Errorf("restored-to-pristine predictor diverges from fresh: sum %#x vs %#x, stats %+v vs %+v",
					gotSum, wantSum, gotStats, wantStats)
			}
		})
	}
}

// TestResetMatchesFresh rewinds one predictor to its construction-time
// state again and again from the same saved state: every replay must
// match a never-used instance, so a restore may neither consume nor
// alias the saved state it copies from.
func TestResetMatchesFresh(t *testing.T) {
	cases := []struct {
		name string
		mk   func() direction
	}{
		{"twobit", func() direction { return New(DefaultConfig()) }},
		{"gshare", func() direction { return NewGshare(DefaultConfig(), 8) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantSum, wantStats := drive(tc.mk())
			p := tc.mk()
			st := p.SaveState()
			drive(p)
			for rewind := 1; rewind <= 3; rewind++ {
				p.RestoreState(st)
				gotSum, gotStats := drive(p) // also re-dirties p for the next rewind
				if gotSum != wantSum || gotStats != wantStats {
					t.Fatalf("rewind %d diverges from fresh: sum %#x vs %#x, stats %+v vs %+v",
						rewind, gotSum, wantSum, gotStats, wantStats)
				}
			}
		})
	}
}
