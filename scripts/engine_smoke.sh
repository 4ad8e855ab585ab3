#!/usr/bin/env bash
# Engine smoke test: proves the batched parallel trial engine is both
# bit-identical to sequential execution and actually fast
# (docs/ENGINE.md):
#   1. the engine determinism suite under the race detector — batch
#      results, split batches, multi-round trials and telemetry rollups
#      equal at every worker count, plus the zero-allocation warm loop
#      and pool coverage/drain invariants;
#   2. the harness suite under -race, since every Sweep now executes on
#      the engine pool;
#   3. CSV bit-identity through the CLI: cmd/figures at -jobs 1 vs
#      -jobs 4 must emit byte-identical series;
#   4. stdout bit-identity for cmd/fuzz at -jobs 1 vs -jobs 4;
#   5. the throughput gate: aggregate sim-cycles/s (sim-cycles/op over
#      ns/op, read from the `go test -bench` text) of
#      BenchmarkEngineBatch over BenchmarkSimulatorRawSpeed, both in
#      internal/engine, must reach min(10, 0.5 * cores) — full 10x is
#      demanded on many-core boxes, scaled down proportionally where
#      the hardware cannot express it. The ratio is read from 5
#      back-to-back pairs and the median per-pair ratio is gated, so a
#      burst of host load during one pair cannot flip the result.
# Used by `make engine-smoke`. Not a CI step: stage 5 is a wall-clock
# gate, which shared runners are too noisy to hold.
set -euo pipefail

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== engine determinism suite (-race) =="
go test -race -count=1 ./internal/engine/

echo "== harness on the engine pool (-race) =="
go test -race -count=1 ./internal/harness/

echo "== cmd/figures CSV bit-identity (-jobs 1 vs -jobs 4) =="
go run ./cmd/figures -fig 2 -out "$tmp/fig_j1" -jobs 1 -seed 7 >/dev/null
go run ./cmd/figures -fig 2 -out "$tmp/fig_j4" -jobs 4 -seed 7 >/dev/null
cmp "$tmp/fig_j1/figure2.csv" "$tmp/fig_j4/figure2.csv"

echo "== cmd/fuzz output bit-identity (-jobs 1 vs -jobs 4) =="
go run ./cmd/fuzz -n 8 -seed 1 -corpus "" -jobs 1 > "$tmp/fuzz_j1.txt"
go run ./cmd/fuzz -n 8 -seed 1 -corpus "" -jobs 4 > "$tmp/fuzz_j4.txt"
cmp "$tmp/fuzz_j1.txt" "$tmp/fuzz_j4.txt"

echo "== batched throughput gate (sim-cycles/s, median of 5 pairs) =="
go test -c -o "$tmp/engine.test" ./internal/engine/
for pair in 1 2 3 4 5; do
    (cd internal/engine && "$tmp/engine.test" -test.run '^$' \
        -test.bench 'EngineBatch$|SimulatorRawSpeed$' -test.benchmem \
        -test.benchtime "${BENCHTIME:-0.5s}" -test.count 1) > "$tmp/bench.txt"
    awk -v pair="$pair" '
        /^Benchmark/ {
            name = $1; sub(/-[0-9]+$/, "", name); ns = 0; sim = 0
            for (i = 2; i < NF; i++) {
                if ($(i + 1) == "ns/op") ns = $i
                if ($(i + 1) == "sim-cycles/op") sim = $i
            }
            if (ns > 0 && sim > 0) rate[name] = sim / ns * 1e9
        }
        END {
            num = rate["BenchmarkEngineBatch"]; den = rate["BenchmarkSimulatorRawSpeed"]
            if (num == 0 || den == 0) { print "engine smoke: bench output lacks sim-cycles/op" > "/dev/stderr"; exit 1 }
            printf "pair %d: EngineBatch %.3g sim-cycles/s / SimulatorRawSpeed %.3g = %.2fx\n", pair, num, den, num / den > "/dev/stderr"
            printf "%.6f\n", num / den
        }' "$tmp/bench.txt" >> "$tmp/ratios.txt"
done
sort -g "$tmp/ratios.txt" | awk -v c="$(nproc)" '
    { r[NR] = $1 }
    END {
        req = 0.5 * c; if (req > 10) req = 10
        med = r[int((NR + 1) / 2)]
        printf "median EngineBatch/SimulatorRawSpeed over %d pairs = %.2fx (need >= %.2fx)\n", NR, med, req
        if (med < req) exit 1
    }'

echo "engine smoke: OK"
