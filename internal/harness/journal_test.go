package harness

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeRecords appends n complete records and returns the file bytes.
func writeRecords(t *testing.T, path string, n int) []byte {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rec := Record{
			Kind: RecordKindCell, Cell: "trunc/c" + string(rune('a'+i)),
			Seed: int64(100 + i), Attempts: 1, Class: ClassOK,
			Value: json.RawMessage(`{"v":` + string(rune('0'+i)) + `}`),
		}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReadRecordsTruncatedAtEveryOffset simulates a crash mid-append:
// the journal is truncated at every byte offset inside the final
// record, and resume must never fail — it either skips the torn line
// with a warning (re-executing that one cell) or, when the truncation
// happens to retain the whole final record sans newline, replays it.
func TestReadRecordsTruncatedAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.jsonl")
	full := writeRecords(t, ref, 3)

	// Offset of the last record's first byte.
	body := full[:len(full)-1] // drop trailing '\n'
	lastStart := 0
	for i := len(body) - 1; i >= 0; i-- {
		if body[i] == '\n' {
			lastStart = i + 1
			break
		}
	}
	lastLine := body[lastStart:] // the final record, no newline

	for cut := lastStart; cut <= len(full); cut++ {
		path := filepath.Join(dir, "cut.jsonl")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		recs, warns, err := ReadRecords(path)
		if err != nil {
			t.Fatalf("cut at %d: resume failed: %v", cut, err)
		}
		// The retained tail parses iff it is the complete record (the
		// only valid-JSON prefix of a JSON object is the whole object).
		tail := full[lastStart:cut]
		wholeRetained := len(tail) >= len(lastLine)
		wantRecs, wantWarn := 2, true
		if wholeRetained {
			wantRecs, wantWarn = 3, false
		}
		if cut == lastStart { // clean truncation at the record boundary
			wantWarn = false
		}
		if len(recs) != wantRecs {
			t.Fatalf("cut at %d: got %d records, want %d (warns=%v)", cut, len(recs), wantRecs, warns)
		}
		if wantWarn != (len(warns) > 0) {
			t.Fatalf("cut at %d: warnings = %v, want warning=%v", cut, warns, wantWarn)
		}
		for _, w := range warns {
			if !strings.Contains(w, "truncated trailing record") {
				t.Fatalf("cut at %d: unexpected warning %q", cut, w)
			}
		}
		// Surviving records must be intact, never partial.
		for id, rec := range recs {
			if rec.Class != ClassOK || len(rec.Value) == 0 {
				t.Fatalf("cut at %d: corrupt surviving record %s: %+v", cut, id, rec)
			}
		}
	}
}

// TestReadRecordsCorruptInteriorLine covers non-trailing corruption: a
// garbage line in the middle of the journal is skipped with a warning
// and every intact record still resumes.
func TestReadRecordsCorruptInteriorLine(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	full := writeRecords(t, path, 2)
	lines := strings.SplitAfter(string(full), "\n")
	mangled := lines[0] + "{\"kind\":\"cell\",garbage\n" + lines[1]
	if err := os.WriteFile(path, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, warns, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("got %d records, want 2", len(recs))
	}
	if len(warns) != 1 || !strings.Contains(warns[0], "corrupt line 2") {
		t.Fatalf("warnings = %v, want one corrupt-line warning", warns)
	}
}

// TestRunnerResumeSurvivesTornJournal drives the hardening end to end:
// a Runner resuming from a journal whose final record was torn by a
// crash re-executes only that cell, reports the warning, and the
// campaign completes.
func TestRunnerResumeSurvivesTornJournal(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")

	cells := []Cell{
		{ID: "a", Seed: 1, Run: func(t *Trial) (any, error) { return map[string]int{"v": 1}, nil }},
		{ID: "b", Seed: 2, Run: func(t *Trial) (any, error) { return map[string]int{"v": 2}, nil }},
	}
	r1, err := New(Config{JournalPath: path, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r1.Sweep("torn", cells); err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the final record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}

	ran := 0
	for i := range cells {
		orig := cells[i].Run
		cells[i].Run = func(t *Trial) (any, error) { ran++; return orig(t) }
	}
	r2, err := New(Config{JournalPath: path, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := r2.Sweep("torn", cells)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if rep.Err() != nil {
		t.Fatal(rep.Err())
	}
	if ran != 1 {
		t.Fatalf("re-executed %d cells, want exactly the torn one", ran)
	}
	if ws := r2.JournalWarnings(); len(ws) != 1 || !strings.Contains(ws[0], "truncated trailing record") {
		t.Fatalf("journal warnings = %v, want one truncation warning", ws)
	}
	if !rep.Outcomes[0].Resumed || rep.Outcomes[1].Resumed {
		t.Fatalf("resume pattern wrong: %+v", rep.Outcomes)
	}
}

// TestResumeIgnoresLegacyFields pins journal compatibility: older
// journals carry fields on cell records that the record type no longer
// has — "resume_cycle", and the "trace_id" of retired span tracing.
// Such a journal must still resume every cell from its record,
// re-executing nothing and warning about nothing, with each value
// byte-identical to the uninterrupted run's.
func TestResumeIgnoresLegacyFields(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	cells := []Cell{
		{ID: "a", Seed: 1, Run: func(t *Trial) (any, error) { return map[string]int64{"v": t.Seed * 3}, nil }},
		{ID: "b", Seed: 2, Run: func(t *Trial) (any, error) { return map[string]int64{"v": t.Seed * 5}, nil }},
		{ID: "c", Seed: 3, Run: func(t *Trial) (any, error) { return map[string]int64{"v": t.Seed * 7}, nil }},
	}
	r1, err := New(Config{JournalPath: path, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := r1.Sweep("legacy", cells)
	if err != nil {
		t.Fatal(err)
	}
	if err := r1.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// One legacy shape per line: resume_cycle alone, trace_id alone,
	// and both together.
	legacyFields := []string{
		`"resume_cycle":4096,`,
		`"trace_id":"00000000000000aa",`,
		`"resume_cycle":4096,"trace_id":"00000000000000aa",`,
	}
	lines := strings.SplitAfter(string(data), "\n")
	var legacy strings.Builder
	injected := 0
	for _, line := range lines {
		if injected < len(legacyFields) && strings.HasPrefix(line, `{"kind":`) {
			line = "{" + legacyFields[injected] + line[1:]
			injected++
		}
		legacy.WriteString(line)
	}
	if injected != len(cells) {
		t.Fatalf("journal layout changed; cannot inject the legacy fields:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(legacy.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	ran := 0
	for i := range cells {
		orig := cells[i].Run
		cells[i].Run = func(t *Trial) (any, error) { ran++; return orig(t) }
	}
	r2, err := New(Config{JournalPath: path, Resume: true, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	rep, err := r2.Sweep("legacy", cells)
	if err != nil {
		t.Fatal(err)
	}
	if ran != 0 {
		t.Fatalf("re-executed %d cells, want every cell resumed from the journal", ran)
	}
	if ws := r2.JournalWarnings(); len(ws) != 0 {
		t.Fatalf("journal warnings = %v, want none", ws)
	}
	for i, o := range rep.Outcomes {
		if !o.Resumed || !o.OK() {
			t.Fatalf("cell %s: resumed=%v class=%s, want a resumed OK outcome", o.Cell, o.Resumed, o.Class)
		}
		if string(o.Value) != string(ref.Outcomes[i].Value) {
			t.Errorf("cell %s: resumed value %s, want %s", o.Cell, o.Value, ref.Outcomes[i].Value)
		}
	}
}
