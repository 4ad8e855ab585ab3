#!/usr/bin/env bash
# Snapshot smoke test: runs the differential snapshot-equivalence suite
# under the race detector — the acceptance property of whole-machine
# copy-on-write Fork/Restore (docs/SNAPSHOTS.md):
#   1. the machine-level equivalence suite (fork-then-run bit-identical
#      to fresh-run across the corpus, COW sibling isolation, warm-fork
#      allocation bounds, reset survival);
#   2. the COW memory aliasing/refcount family in internal/mem;
#   3. the multicore and unxpec snapshot integrations;
#   4. a short cmd/fuzz sweep with -snapshot, so the property also runs
#      through the CLI path that nightly fuzzing uses.
# Used by `make snapshot-smoke` and CI.
set -euo pipefail

echo "== differential equivalence + COW + integration suites (-race) =="
go test -race -count=1 \
    -run 'Snapshot|Fork|COW|Checkpoint|SaveRestore' \
    ./internal/machine/ ./internal/mem/ ./internal/multicore/ \
    ./internal/unxpec/ ./internal/harness/ ./internal/fuzz/

echo "== cmd/fuzz -snapshot sweep =="
go run ./cmd/fuzz -n 25 -seed 1 -snapshot -forks 4 -corpus ""

echo "snapshot smoke: OK"
