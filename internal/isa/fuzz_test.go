package isa

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzParseProgram feeds arbitrary listings to ParseProgram, seeded
// with every witness of the repository corpus. A listing either fails
// with an "isa:" error or assembles to a program whose targets pass
// ValidateTargets and which survives the Disassemble → ParseProgram
// round trip unchanged; it never panics.
func FuzzParseProgram(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/corpus/*.prog")
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no corpus witnesses found: the seed path is wrong")
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := ParseProgram(src)
		if err != nil {
			if p != nil {
				t.Fatalf("ParseProgram returned both a program and an error: %v", err)
			}
			if !strings.HasPrefix(err.Error(), "isa: ") {
				t.Fatalf("error %q lacks the isa: prefix", err)
			}
			return
		}
		if len(p.Insts) == 0 {
			t.Fatal("ParseProgram succeeded with an empty program")
		}
		if err := p.ValidateTargets(); err != nil {
			t.Fatalf("parsed program fails ValidateTargets: %v", err)
		}
		q, err := ParseProgram(p.Disassemble())
		if err != nil {
			t.Fatalf("disassembly does not reparse: %v\n%s", err, p.Disassemble())
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round trip changed the program:\n%s\nvs\n%s", p.Disassemble(), q.Disassemble())
		}
	})
}
