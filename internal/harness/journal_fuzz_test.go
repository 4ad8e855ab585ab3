package harness

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzReadRecords feeds arbitrary bytes to the resume path as a journal
// file. The committed corpus (testdata/fuzz/FuzzReadRecords) seeds it
// with an ok record, a panic record carrying a post-mortem, a torn
// trailing line, and records with legacy fields. Whatever the bytes,
// ReadRecords must not panic and must not fail (the file is readable,
// so a damaged line is a warning, never an error), and every record it
// returns must be a terminal cell record that resumes as itself.
func FuzzReadRecords(f *testing.F) {
	path := filepath.Join(f.TempDir(), "journal.jsonl")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		recs, _, err := ReadRecords(path)
		if err != nil {
			t.Fatalf("ReadRecords failed on a readable file: %v", err)
		}
		for key, rec := range recs {
			if rec.Kind != RecordKindCell || rec.Cell == "" || rec.Cell != key {
				t.Fatalf("record under %q: kind=%q cell=%q", key, rec.Kind, rec.Cell)
			}
			o := rec.Outcome(0)
			if o.Cell != rec.Cell || o.Seed != rec.Seed || o.Class != rec.Class {
				t.Fatalf("outcome %s/%d/%s disagrees with record %s/%d/%s",
					o.Cell, o.Seed, o.Class, rec.Cell, rec.Seed, rec.Class)
			}
		}
	})
}
