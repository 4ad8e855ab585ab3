package fuzz

import (
	"path/filepath"
	"testing"
)

// corpusDir is the repo-level witness corpus: hand-picked edge cases
// plus any minimized failure `cmd/fuzz` ever persisted. Every entry
// replays on every `go test` run, so a once-found bug stays found.
const corpusDir = "../../testdata/corpus"

// TestCorpusReplaysClean replays every corpus witness through the full
// scheme matrix: architectural equivalence, pipeline invariants,
// rollback completeness, and determinism must all hold. A witness that
// was committed while its bug was live goes green once the bug is
// fixed — and this test keeps it green.
func TestCorpusReplaysClean(t *testing.T) {
	ws, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	// The seeded edge cases (store-to-load forwarding across a squash,
	// branch under a miss, back-to-back squashes) must always be there:
	// an empty corpus means the path is wrong, not that life is good.
	if len(ws) < 3 {
		abs, _ := filepath.Abs(corpusDir)
		t.Fatalf("corpus at %s has %d witnesses, want >= 3 seeded edge cases", abs, len(ws))
	}
	g := MustNew(DefaultConfig())
	for _, w := range ws {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			opts := Options{MemSeed: w.MemSeed, MachineSeed: w.MachineSeed}
			for _, d := range g.CheckProgram(w.Prog, opts) {
				t.Errorf("%s", d.String())
			}
			for _, d := range g.CheckDeterminism(w.Prog, opts) {
				t.Errorf("%s", d.String())
			}
		})
	}
}

// TestCorpusEdgeCasesActuallySquash guards witness quality: the three
// hand-picked programs exist to exercise squash recovery, so each must
// actually trigger at least one squash when run. Without this check a
// refactor could silently turn them into straight-line code that tests
// nothing.
func TestCorpusEdgeCasesActuallySquash(t *testing.T) {
	ws, err := LoadCorpus(corpusDir)
	if err != nil {
		t.Fatal(err)
	}
	g := MustNew(DefaultConfig())
	for _, name := range []string{
		"stlf-across-squash", "branch-under-miss", "back-to-back-squash",
	} {
		var found *Witness
		for _, w := range ws {
			if w.Name == name {
				found = w
				break
			}
		}
		if found == nil {
			t.Errorf("seeded edge case %q missing from corpus", name)
			continue
		}
		opts := Options{MemSeed: found.MemSeed, MachineSeed: found.MachineSeed}
		scheme, err := opts.newScheme("cleanupspec")
		if err != nil {
			t.Fatal(err)
		}
		res := g.newRig(opts).run(found.Prog, scheme)
		want := uint64(1)
		if name == "back-to-back-squash" {
			want = 2
		}
		if res.squashes < want {
			t.Errorf("%s: %d squash(es), want >= %d — the edge case no longer tests squash recovery",
				name, res.squashes, want)
		}
	}
}
