package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/cpu"
	"repro/internal/telemetry"
)

// Record is one JSONL journal line: the terminal outcome of a cell.
// Everything a resumed campaign needs to replay the cell without
// re-executing it — including failures, which resume as recorded gaps
// (delete the journal to re-attempt them).
type Record struct {
	Kind     string          `json:"kind"` // "cell"
	Cell     string          `json:"cell"`
	Seed     int64           `json:"seed"`
	Attempts int             `json:"attempts"`
	Class    Class           `json:"class"`
	Value    json.RawMessage `json:"value,omitempty"`
	Error    string          `json:"error,omitempty"`
	Stack    string          `json:"stack,omitempty"`
	Post     *cpu.PostMortem `json:"post,omitempty"`
	Elapsed  int64           `json:"elapsed_ms"`
	// TraceID is the trace of the cell's final attempt (teletrace;
	// empty when tracing was off), linking the journal record to its
	// span tree in the cmd/figures -trace-out file.
	TraceID string `json:"trace_id,omitempty"`
	// Metrics is the final attempt's telemetry snapshot (omitted when
	// the campaign ran without a metrics registry).
	Metrics *telemetry.Snapshot `json:"metrics,omitempty"`
}

// RecordKindCell is the Kind of a terminal cell record. Unknown kinds
// in a journal are skipped on read, so the format is extensible.
const RecordKindCell = "cell"

// RecordOf builds the journal record for a terminal outcome.
func RecordOf(o Outcome) Record {
	rec := Record{
		Kind:     RecordKindCell,
		Cell:     o.Cell,
		Seed:     o.Seed,
		Attempts: o.Attempts,
		Class:    o.Class,
		Value:    o.Value,
		Elapsed:  o.Elapsed.Milliseconds(),
		TraceID:  o.TraceID,
		Metrics:  o.Metrics,
	}
	if o.Err != nil {
		rec.Error = o.Err.Msg
		rec.Stack = o.Err.Stack
		rec.Post = o.Err.Post
	}
	return rec
}

// Outcome reconstitutes the journaled record as a resumed Outcome at
// the given position of the cell slice.
func (rec Record) Outcome(index int) Outcome {
	o := Outcome{
		Index:    index,
		Cell:     rec.Cell,
		Seed:     rec.Seed,
		Attempts: rec.Attempts,
		Class:    rec.Class,
		Value:    rec.Value,
		Resumed:  true,
		TraceID:  rec.TraceID,
		Metrics:  rec.Metrics,
	}
	if rec.Class != ClassOK {
		o.Err = &TrialError{
			Cell: rec.Cell, Class: rec.Class, Attempt: rec.Attempts, Seed: rec.Seed,
			Err: fmt.Errorf("%s", rec.Error), Msg: rec.Error,
			Stack: rec.Stack, Post: rec.Post,
		}
	}
	return o
}

// Journal appends records to a JSONL file, one flushed line per
// completed cell so a kill -9 loses at most the in-flight record.
type Journal struct {
	f *os.File
}

// OpenJournal opens (creating parents as needed) a journal for append.
func OpenJournal(path string) (*Journal, error) {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("harness: journal dir: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("harness: opening journal: %w", err)
	}
	return &Journal{f: f}, nil
}

// Append writes one record as a single line. Concurrent appends must be
// serialized by the caller.
func (j *Journal) Append(rec Record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("harness: marshaling journal record: %w", err)
	}
	line = append(line, '\n')
	if _, err := j.f.Write(line); err != nil {
		return fmt.Errorf("harness: writing journal: %w", err)
	}
	return nil
}

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// ReadRecords indexes a journal's terminal records by cell ID (last
// record wins). A missing file is an empty campaign.
//
// Crash tolerance: a journal is appended one line per cell, so a kill
// mid-write leaves at most one truncated trailing line. Such a line —
// or any line that is not valid JSON — is skipped with a warning
// instead of failing the resume; the cell it would have recorded is
// simply re-executed. Records of unknown kinds are skipped silently
// (forward compatibility).
func ReadRecords(path string) (map[string]Record, []string, error) {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return map[string]Record{}, nil, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("harness: reading journal: %w", err)
	}
	out := map[string]Record{}
	var warns []string
	lines := bytes.Split(data, []byte("\n"))
	offset := 0 // byte offset of the current line's first byte
	for i, line := range lines {
		lineStart := offset
		offset += len(line) + 1 // +1 for the split-away '\n'
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		// A chunk not terminated by '\n' can only be the file's final
		// bytes: the signature of a crash mid-append.
		torn := i == len(lines)-1
		var rec Record
		if err := json.Unmarshal(line, &rec); err != nil {
			// The byte offset and (when salvageable) the cell key let an
			// operator dd/grep straight to the damaged record instead of
			// diffing the journal against the sweep by hand.
			loc := fmt.Sprintf("byte offset %d", lineStart)
			if cell := cellKeyOf(line); cell != "" {
				loc += fmt.Sprintf(", cell %q", cell)
			}
			if torn {
				warns = append(warns, fmt.Sprintf(
					"journal %s: truncated trailing record at %s skipped (crash mid-write): %v", path, loc, err))
			} else {
				warns = append(warns, fmt.Sprintf(
					"journal %s: corrupt line %d at %s skipped: %v", path, i+1, loc, err))
			}
			continue
		}
		if rec.Kind != RecordKindCell || rec.Cell == "" {
			continue
		}
		out[rec.Cell] = rec
	}
	return out, warns, nil
}

// cellKeyOf salvages the `"cell":"..."` key from a line that failed to
// parse as JSON — truncation usually eats the record's tail, and the
// cell key sits near the front. Returns "" when the key (or its
// closing quote) is gone too.
func cellKeyOf(line []byte) string {
	const marker = `"cell":"`
	i := bytes.Index(line, []byte(marker))
	if i < 0 {
		return ""
	}
	rest := line[i+len(marker):]
	// Cell names are sweep paths + content hashes: no escapes, so the
	// next bare quote terminates the key.
	j := bytes.IndexByte(rest, '"')
	if j < 0 {
		return ""
	}
	return string(rest[:j])
}
