#!/usr/bin/env bash
# Telemetry smoke test: drives a real figure sweep through cmd/figures
# to prove, end to end, that
#   1. the live debug endpoint serves /progress, /metrics (Prometheus
#      text), and /debug/vars while a campaign is running;
#   2. -metrics writes a campaign telemetry rollup that decodes as a
#      telemetry snapshot with coherent histograms;
#   3. a harness-injected panic journals a post-mortem carrying
#      flight-recorder events;
#   4. the rollup's worst-trial exemplar names a cell that has a
#      record in the sweep's own journal (outlier -> journal walk);
#   5. cmd/trace -chrome emits a valid Chrome trace-event file.
# Artefacts 1, 2, and 5 are gated by scripts/telemetrycheck.
# Used by `make telemetry-smoke` and CI. Optional $1 = scratch directory.
set -euo pipefail

out="${1:-$(mktemp -d)}"
mkdir -p "$out/run"

bin="$out/figures"
check="$out/telemetrycheck"
go build -o "$bin" ./cmd/figures
go build -o "$check" ./scripts/telemetrycheck
addr="127.0.0.1:8097"

echo "== instrumented sweep: live debug endpoint + metrics rollup + panic post-mortem =="
# The hang on l5 holds the campaign open for its 6s trial timeout —
# a deterministic window for scraping the live endpoint. The panic on
# l1 (retries 1, so no rescue) must journal a flight-recorder
# post-mortem. Expect exit 4: the panic gap outranks the timeout one.
code=0
"$bin" -fig 3 -out "$out/run" -seed 42 -jobs 1 \
    -journal "$out/run.jsonl" -metrics "$out/metrics.json" \
    -debug-addr "$addr" -retries 1 -trial-timeout 6s \
    -inject 'panic:figure3/l1,hang:figure3/l5' &
pid=$!

scrape() { # path dest — retry until the server is up
    for _ in $(seq 1 60); do
        if curl -fsS "http://$addr$1" -o "$2" 2>/dev/null; then
            return 0
        fi
        sleep 0.25
    done
    echo "FAIL: could not scrape $1 from the live debug endpoint" >&2
    kill "$pid" 2>/dev/null || true
    exit 1
}
scrape /progress "$out/progress.json"
scrape /metrics "$out/live.prom"
scrape /debug/vars "$out/vars.json"
wait "$pid" || code=$?
if [ "$code" -ne 4 ]; then
    echo "FAIL: want exit 4 (panic-class gap), got $code" >&2
    exit 1
fi

grep -q '"cells":' "$out/progress.json" || {
    echo "FAIL: /progress did not return campaign progress JSON" >&2
    exit 1
}
grep -q 'harness_progress' "$out/vars.json" || {
    echo "FAIL: /debug/vars has no harness_progress var" >&2
    exit 1
}

echo "== validating artefacts =="
"$check" -prom "$out/live.prom" -json "$out/metrics.json"
grep -q 'cpu_cleanup_stall_cycles' "$out/metrics.json" || {
    echo "FAIL: rollup is missing the cleanup-stall histogram" >&2
    exit 1
}

echo "== injected-panic post-mortem carries flight-recorder events =="
grep '"class":"panic"' "$out/run.jsonl" | grep -q '"events":\[{' || {
    echo "FAIL: panic gap journaled without flight-recorder events" >&2
    exit 1
}

echo "== worst-trial exemplar names a journaled cell =="
python3 - "$out/metrics.json" "$out/run.jsonl" <<'PY'
import json, sys
hist = json.load(open(sys.argv[1]))["histograms"]["harness_trial_latency_ms"]
cell = (hist.get("exemplar") or {}).get("cell", "")
if not cell:
    sys.exit("FAIL: harness_trial_latency_ms rollup has no exemplar cell")
cells = set()
for line in open(sys.argv[2]):
    try:
        cells.add(json.loads(line).get("cell"))
    except ValueError:
        pass
if cell not in cells:
    sys.exit("FAIL: exemplar cell %r has no record in %s" % (cell, sys.argv[2]))
print("   exemplar cell %s -> journal record" % cell)
PY

echo "== Chrome trace export =="
go run ./cmd/trace -chrome "$out/round.json" > /dev/null
"$check" -chrome "$out/round.json"

echo "telemetry smoke OK: live endpoint, rollup, post-mortem, exemplar -> journal, and Chrome trace all check out"
