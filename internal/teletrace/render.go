package teletrace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// WriteTree renders one trace's spans as an indented text tree —
// parent links become nesting, durations in milliseconds, span events
// inline under their span. This is what cmd/trace -spans prints and
// what a human walks when an exemplar points at a trace ID. Orphan
// spans (parent not in the set, e.g. evicted from the store) render as
// additional roots, so a partial trace still reads top-down.
func WriteTree(w io.Writer, spans []SpanData) error {
	spans = append([]SpanData(nil), spans...)
	sortSpans(spans)
	byID := map[SpanID]SpanData{}
	children := map[SpanID][]SpanData{}
	for _, d := range spans {
		byID[d.ID] = d
	}
	var roots []SpanData
	for _, d := range spans {
		if _, ok := byID[d.Parent]; d.Parent != 0 && ok {
			children[d.Parent] = append(children[d.Parent], d)
		} else {
			roots = append(roots, d)
		}
	}
	var render func(d SpanData, depth int) error
	render = func(d SpanData, depth int) error {
		indent := strings.Repeat("  ", depth)
		status := ""
		if d.Error != "" {
			status = "  ERROR " + d.Error
		}
		svc := d.Service
		if svc == "" {
			svc = "?"
		}
		if _, err := fmt.Fprintf(w, "%s%s [%s] %.3fms  span=%s%s\n",
			indent, d.Name, svc, float64(d.durationNS())/1e6, d.ID, status); err != nil {
			return err
		}
		for _, ev := range d.Events {
			detail := ev.Detail
			if detail != "" {
				detail = ": " + detail
			}
			if _, err := fmt.Fprintf(w, "%s  · %s @%.3fms%s\n",
				indent, ev.Name, float64(ev.AtNS-d.StartNS)/1e6, detail); err != nil {
				return err
			}
		}
		if d.DroppedEvents > 0 {
			if _, err := fmt.Fprintf(w, "%s  · (%d events dropped)\n", indent, d.DroppedEvents); err != nil {
				return err
			}
		}
		for _, c := range children[d.ID] {
			if err := render(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for i, root := range roots {
		if i == 0 || root.Parent == 0 {
			if _, err := fmt.Fprintf(w, "trace %s\n", root.Trace); err != nil {
				return err
			}
		}
		if err := render(root, 1); err != nil {
			return err
		}
	}
	return nil
}

// ReadSpans decodes a JSON array of spans — the format cmd/figures
// -trace-out writes and cmd/trace -spans reads back from disk.
func ReadSpans(r io.Reader) ([]SpanData, error) {
	var spans []SpanData
	if err := json.NewDecoder(r).Decode(&spans); err != nil {
		return nil, fmt.Errorf("teletrace: decoding spans: %w", err)
	}
	return spans, nil
}
