package undo

import (
	"strings"
	"testing"
)

// knownSpecs maps each canonical scheme spec to the name it builds.
var knownSpecs = map[string]string{
	"unsafe":      "unsafe-baseline",
	"cleanupspec": "cleanupspec",
	"invisible":   "invisible-lite",
	"const-45":    "cleanupspec-const45-relaxed",
	"strict-25":   "cleanupspec-const25-strict",
	"fuzzy-40":    "cleanupspec-fuzzy40",
}

// malformedSpecs are specs Parse must reject, each with the reason.
var malformedSpecs = []struct {
	spec   string
	reason string
}{
	{"", "empty spec"},
	{"const-", "missing cycle count"},
	{"const-0", "zero cycles is not a rollback budget"},
	{"const--5", "negative cycles"},
	{"const-45garbage", "trailing garbage after the number"},
	{"const-45 extra", "trailing word after the number"},
	{"const-4.5", "fractional cycles"},
	{"const-0x20", "hex is not accepted"},
	{"strict-", "missing cycle count"},
	{"strict-1e3", "scientific notation"},
	{"fuzzy-x", "non-numeric cycles"},
	{"fuzzy--1", "negative cycles"},
	{"fuzzy-9999999999999999999999", "overflowing cycle count"},
	{"nonsense", "unknown scheme"},
	{"un safe", "interior whitespace"},
	{"cleanup spec", "interior whitespace"},
	{"-45", "bare number without a scheme"},
	{"const_45", "wrong separator"},
}

// variantSpecs are case and whitespace variants of the canonical specs.
var variantSpecs = []struct {
	spec     string
	wantName string
}{
	{"UNSAFE", "unsafe-baseline"},
	{"Unsafe", "unsafe-baseline"},
	{"CleanupSpec", "cleanupspec"},
	{"CLEANUPSPEC", "cleanupspec"},
	{"Invisible", "invisible-lite"},
	{" unsafe ", "unsafe-baseline"},
	{"\tcleanupspec\n", "cleanupspec"},
	{"Const-45", "cleanupspec-const45-relaxed"},
	{"STRICT-25", "cleanupspec-const25-strict"},
	{"Fuzzy-40", "cleanupspec-fuzzy40"},
	{"  fuzzy-40  ", "cleanupspec-fuzzy40"},
}

func TestParseKnownSpecs(t *testing.T) {
	for spec, wantName := range knownSpecs {
		s, err := Parse(spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
			continue
		}
		if s.Name() != wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", spec, s.Name(), wantName)
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, c := range malformedSpecs {
		if s, err := Parse(c.spec, 1); err == nil {
			t.Errorf("Parse(%q) accepted (%s): got %s", c.spec, c.reason, s.Name())
		}
	}
}

func TestParseCaseAndWhitespaceVariants(t *testing.T) {
	for _, c := range variantSpecs {
		s, err := Parse(c.spec, 1)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.spec, err)
			continue
		}
		if s.Name() != c.wantName {
			t.Errorf("Parse(%q).Name() = %q, want %q", c.spec, s.Name(), c.wantName)
		}
	}
}

// FuzzParse feeds arbitrary scheme specs to Parse, seeded with every
// spec of the table tests above. A spec either builds a named scheme
// or fails with an "undo:" error; it never panics, and parsing the
// same spec twice builds the same scheme.
func FuzzParse(f *testing.F) {
	for spec := range knownSpecs {
		f.Add(spec)
	}
	for _, c := range malformedSpecs {
		f.Add(c.spec)
	}
	for _, c := range variantSpecs {
		f.Add(c.spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := Parse(spec, 1)
		if err != nil {
			if s != nil {
				t.Fatalf("Parse(%q) returned both a scheme and an error: %v", spec, err)
			}
			if !strings.HasPrefix(err.Error(), "undo: ") {
				t.Fatalf("Parse(%q) error %q lacks the undo: prefix", spec, err)
			}
			return
		}
		if s == nil || s.Name() == "" {
			t.Fatalf("Parse(%q) succeeded without a named scheme", spec)
		}
		again, err := Parse(spec, 1)
		if err != nil || again.Name() != s.Name() {
			t.Fatalf("Parse(%q) is not deterministic: %q then (%v, %v)", spec, s.Name(), again, err)
		}
	})
}

func TestParsedStrictActuallyStrict(t *testing.T) {
	s, err := Parse("strict-30", 1)
	if err != nil {
		t.Fatal(err)
	}
	ct, ok := s.(*ConstantTime)
	if !ok || ct.Mode != Strict || ct.Cycles != 30 {
		t.Fatalf("parsed %#v", s)
	}
}

func TestModeString(t *testing.T) {
	if Relaxed.String() != "relaxed" || Strict.String() != "strict" {
		t.Fatal("mode names")
	}
}
