// Command telemetrycheck validates the telemetry artefacts the smoke
// suite produces: a Prometheus text exposition (from the harness debug
// endpoint), a campaign metrics JSON rollup (cmd/figures -metrics),
// and a Chrome trace-event file (cmd/trace -chrome). It is a CI gate:
// any malformed artefact exits non-zero with a reason.
//
// Usage:
//
//	telemetrycheck [-prom FILE] [-json FILE] [-chrome FILE]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"unicode"

	"repro/internal/telemetry"
)

func main() {
	prom := flag.String("prom", "", "Prometheus text exposition file to validate")
	jsonPath := flag.String("json", "", "telemetry snapshot JSON file to validate")
	chrome := flag.String("chrome", "", "Chrome trace-event JSON file to validate")
	flag.Parse()

	if *prom == "" && *jsonPath == "" && *chrome == "" {
		fmt.Fprintln(os.Stderr, "telemetrycheck: nothing to check (pass -prom, -json, or -chrome)")
		os.Exit(2)
	}
	fail := false
	check := func(kind, path string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "telemetrycheck: %s %s: %v\n", kind, path, err)
			fail = true
			return
		}
		fmt.Printf("telemetrycheck: %s %s OK\n", kind, path)
	}
	if *prom != "" {
		check("prometheus", *prom, checkPrometheus(*prom))
	}
	if *jsonPath != "" {
		check("json", *jsonPath, checkSnapshotJSON(*jsonPath))
	}
	if *chrome != "" {
		check("chrome", *chrome, checkChrome(*chrome))
	}
	if fail {
		os.Exit(1)
	}
}

// checkSnapshotJSON decodes the file as a telemetry.Snapshot and
// requires at least one recorded metric.
func checkSnapshotJSON(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var s telemetry.Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return fmt.Errorf("not a telemetry snapshot: %w", err)
	}
	if s.Empty() {
		return fmt.Errorf("snapshot holds no metrics")
	}
	for name, h := range s.Histograms {
		if len(h.Counts) != len(h.Bounds)+1 {
			return fmt.Errorf("histogram %s: %d counts for %d bounds (want bounds+1)",
				name, len(h.Counts), len(h.Bounds))
		}
		var sum uint64
		for _, c := range h.Counts {
			sum += c
		}
		if sum != h.Count {
			return fmt.Errorf("histogram %s: bucket counts total %d but Count=%d", name, sum, h.Count)
		}
		if h.Exemplar != nil {
			if err := checkCell(h.Exemplar.Cell); err != nil {
				return fmt.Errorf("histogram %s: %v", name, err)
			}
		}
	}
	return nil
}

// checkCell validates an exemplar's cell ID: a journal key, so
// non-empty and free of whitespace.
func checkCell(cell string) error {
	if cell == "" {
		return fmt.Errorf("exemplar cell is empty")
	}
	if strings.ContainsFunc(cell, unicode.IsSpace) {
		return fmt.Errorf("exemplar cell %q contains whitespace", cell)
	}
	return nil
}

// checkPrometheus parses the text exposition format (0.0.4) and
// enforces the invariants the repo's encoder promises: every sample is
// preceded by a TYPE header, histogram buckets are cumulative and end
// with +Inf, and _count matches the +Inf bucket.
func checkPrometheus(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	types := map[string]string{} // metric name -> declared type
	// per-histogram running state
	lastCum := map[string]uint64{}
	sawInf := map[string]bool{}
	counts := map[string]uint64{}
	exemplars := map[string]int{} // histogram name -> exemplar line count
	samples := 0

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				return fmt.Errorf("line %d: malformed TYPE header %q", lineNo, line)
			}
			switch fields[3] {
			case "counter", "gauge", "histogram":
			default:
				return fmt.Errorf("line %d: unknown metric type %q", lineNo, fields[3])
			}
			types[fields[2]] = fields[3]
			continue
		}
		if strings.HasPrefix(line, "# EXEMPLAR ") {
			// # EXEMPLAR <histogram> cell=<id> value=<float> — the worst
			// observation's link to its harness journal record.
			fields := strings.Fields(line)
			if len(fields) != 5 {
				return fmt.Errorf("line %d: malformed exemplar %q", lineNo, line)
			}
			name := fields[2]
			cell, ok := strings.CutPrefix(fields[3], "cell=")
			if !ok {
				return fmt.Errorf("line %d: exemplar missing cell: %q", lineNo, line)
			}
			if err := checkCell(cell); err != nil {
				return fmt.Errorf("line %d: %v", lineNo, err)
			}
			val, ok := strings.CutPrefix(fields[4], "value=")
			if !ok {
				return fmt.Errorf("line %d: exemplar missing value: %q", lineNo, line)
			}
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				return fmt.Errorf("line %d: exemplar value %q: %v", lineNo, val, err)
			}
			exemplars[name]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue // HELP or comment
		}
		// A sample line: name[{labels}] value
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return fmt.Errorf("line %d: no value on sample %q", lineNo, line)
		}
		key, val := line[:sp], line[sp+1:]
		base := key
		var le string
		if i := strings.IndexByte(key, '{'); i >= 0 {
			labels := key[i:]
			base = key[:i]
			if !strings.HasPrefix(labels, `{le="`) || !strings.HasSuffix(labels, `"}`) {
				return fmt.Errorf("line %d: unexpected label set %q", lineNo, labels)
			}
			le = labels[len(`{le="`) : len(labels)-len(`"}`)]
		}
		family := base
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if h := strings.TrimSuffix(base, suf); h != base && types[h] == "histogram" {
				family = h
				break
			}
		}
		if _, ok := types[family]; !ok {
			return fmt.Errorf("line %d: sample %q has no TYPE header", lineNo, base)
		}
		if _, err := strconv.ParseFloat(val, 64); err != nil {
			return fmt.Errorf("line %d: bad value %q", lineNo, val)
		}
		samples++
		if types[family] == "histogram" {
			switch {
			case strings.HasSuffix(base, "_bucket"):
				if le == "" {
					return fmt.Errorf("line %d: bucket without le label", lineNo)
				}
				cum, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: bucket value %q not an integer", lineNo, val)
				}
				if cum < lastCum[family] {
					return fmt.Errorf("line %d: %s buckets not cumulative (%d after %d)",
						lineNo, family, cum, lastCum[family])
				}
				lastCum[family] = cum
				if le == "+Inf" {
					sawInf[family] = true
				} else if sawInf[family] {
					return fmt.Errorf("line %d: %s has buckets after +Inf", lineNo, family)
				}
			case strings.HasSuffix(base, "_count"):
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return fmt.Errorf("line %d: count value %q not an integer", lineNo, val)
				}
				counts[family] = n
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if samples == 0 {
		return fmt.Errorf("no samples")
	}
	for fam, typ := range types {
		if typ != "histogram" {
			continue
		}
		if !sawInf[fam] {
			return fmt.Errorf("histogram %s has no +Inf bucket", fam)
		}
		if counts[fam] != lastCum[fam] {
			return fmt.Errorf("histogram %s: _count=%d but +Inf bucket=%d", fam, counts[fam], lastCum[fam])
		}
	}
	for name, n := range exemplars {
		if types[name] != "histogram" {
			return fmt.Errorf("exemplar for %s, which is not a declared histogram", name)
		}
		if n > 1 {
			return fmt.Errorf("histogram %s has %d exemplar lines (want at most 1)", name, n)
		}
	}
	return nil
}

// chromeEvent mirrors the fields of the trace-event format we emit.
type chromeEvent struct {
	Name  string  `json:"name"`
	Phase string  `json:"ph"`
	TS    float64 `json:"ts"`
	Dur   float64 `json:"dur"`
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Scope string  `json:"s"`
}

// checkChrome validates a Chrome trace-event export: a traceEvents
// array of complete ("X") slices on lanes >= 1 with positive duration,
// and thread-scoped instant ("i") markers.
func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("not trace-event JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("traceEvents is empty")
	}
	var slices int
	for i, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "X":
			slices++
			if ev.Dur <= 0 {
				return fmt.Errorf("event %d (%q): X slice with non-positive dur %v", i, ev.Name, ev.Dur)
			}
			if ev.TID < 1 {
				return fmt.Errorf("event %d (%q): slice on lane %d (lane 0 is the marker lane)", i, ev.Name, ev.TID)
			}
		case "i":
			if ev.Scope != "t" {
				return fmt.Errorf("event %d (%q): instant scope %q, want t", i, ev.Name, ev.Scope)
			}
		default:
			return fmt.Errorf("event %d (%q): unexpected phase %q", i, ev.Name, ev.Phase)
		}
	}
	if slices == 0 {
		return fmt.Errorf("no instruction slices in trace")
	}
	return nil
}
