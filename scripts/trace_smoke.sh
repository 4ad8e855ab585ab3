#!/usr/bin/env bash
# Tracing smoke test (docs/OBSERVABILITY.md, "Tracing"): proves the
# causal chain is walkable offline from disk artefacts alone. A figures
# sweep with -metrics and -trace-out yields a trial-latency exemplar
# whose trace ID resolves to a harness/cell → harness/attempt span
# tree in the span file — the CSV-outlier → exemplar → trace walk.
# Used by `make trace-smoke` and CI. Optional $1 = scratch directory.
set -euo pipefail

out="${1:-$(mktemp -d)}"
mkdir -p "$out"

echo "== build =="
go build -o "$out/figures" ./cmd/figures
go build -o "$out/trace" ./cmd/trace
go build -o "$out/telemetrycheck" ./scripts/telemetrycheck

echo "== exemplar -> span tree walk =="
"$out/figures" -fig 3 -out "$out/results" -seed 42 \
    -metrics "$out/metrics.json" -trace-out "$out/spans.json" >/dev/null
"$out/telemetrycheck" -json "$out/metrics.json"

exemplar_tid=$(python3 -c "
import json, sys
s = json.load(open(sys.argv[1]))
ex = s['histograms']['harness_trial_latency_ms'].get('exemplar')
if not ex or len(ex.get('trace_id', '')) != 16:
    sys.exit('no trial-latency exemplar with a trace ID in the rollup')
print(ex['trace_id'])
" "$out/metrics.json")
echo "   worst-trial exemplar trace: $exemplar_tid"

grep -q "$exemplar_tid" "$out/spans.json" || {
    echo "FAIL: exemplar trace $exemplar_tid absent from -trace-out spans" >&2
    exit 1
}
"$out/trace" -spans "$out/spans.json" -span-trace "$exemplar_tid" >"$out/tree.txt"
for span in harness/cell harness/attempt; do
    grep -q "$span" "$out/tree.txt" || {
        echo "FAIL: span tree for $exemplar_tid lacks $span:" >&2
        cat "$out/tree.txt" >&2
        exit 1
    }
done
echo "   exemplar trace renders: $(wc -l <"$out/tree.txt") tree line(s)"

echo "trace smoke OK: worst-trial exemplar resolves to its harness/cell -> harness/attempt span tree offline"
