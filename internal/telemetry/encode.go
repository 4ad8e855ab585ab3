package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format (version 0.0.4): HELP/TYPE headers, histograms as
// cumulative `_bucket{le="..."}` series with `_sum`/`_count`, metrics
// in sorted name order so output is diffable.
func WritePrometheus(w io.Writer, s Snapshot) error {
	var names []string
	for k := range s.Counters {
		names = append(names, k)
	}
	for k := range s.Gauges {
		names = append(names, k)
	}
	for k := range s.Histograms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, name := range names {
		if help, ok := s.Help[name]; ok && help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", name, help); err != nil {
				return err
			}
		}
		switch {
		case hasCounter(s, name):
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", name, name, s.Counters[name]); err != nil {
				return err
			}
		case hasGauge(s, name):
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %s\n", name, name, formatFloat(s.Gauges[name])); err != nil {
				return err
			}
		default:
			h := s.Histograms[name]
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
				return err
			}
			// Buckets are cumulative in the exposition format.
			var cum uint64
			for i, b := range h.Bounds {
				cum += h.Counts[i]
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, formatFloat(b), cum); err != nil {
					return err
				}
			}
			if len(h.Counts) > 0 {
				cum += h.Counts[len(h.Counts)-1]
			}
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, formatFloat(h.Sum), name, h.Count); err != nil {
				return err
			}
			// Exemplars ride as comment lines (the 0.0.4 text format has
			// no native exemplar syntax; scrapers skip comments, and
			// scripts/telemetrycheck validates the shape). The cell ID
			// links the bucket's worst observation to its harness
			// journal record.
			if ex := h.Exemplar; ex != nil {
				if _, err := fmt.Fprintf(w, "# EXEMPLAR %s cell=%s value=%s\n",
					name, ex.Cell, formatFloat(ex.Value)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func hasCounter(s Snapshot, name string) bool { _, ok := s.Counters[name]; return ok }
func hasGauge(s Snapshot, name string) bool   { _, ok := s.Gauges[name]; return ok }

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips, no trailing zeros.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteJSON renders the snapshot as indented JSON.
func WriteJSON(w io.Writer, s Snapshot) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
