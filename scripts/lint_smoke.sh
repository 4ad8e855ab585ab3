#!/usr/bin/env bash
# Lint smoke test (docs/LINTING.md): prove every simlint analyzer still
# has teeth by running the built binary end-to-end against the
# known-bad fixture packages and asserting each analyzer reports at
# least one diagnostic there — and none on the clean fixtures or the
# real repository. An analyzer whose unit tests pass but which was
# accidentally dropped from analyzers.All(), or whose loader scope
# silently excludes its targets, fails here.
# Used by `make lint-smoke` and CI. Optional $1 = scratch directory.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
mkdir -p "$out"

# go run collapses exit codes; build the binary so the 0/1/2 taxonomy
# (clean / diagnostics / load error) is observable.
bin="$out/simlint"
(cd "$root/tools/simlint" && go build -o "$bin" .)

fixtures="$root/tools/simlint/testdata/src"

echo "== bad fixtures: every analyzer must fire =="
bad_pkgs=(
    fixtures/determinism/bad
    fixtures/exhaustive/bad
    fixtures/nilmetricsbad/telemetry
    fixtures/typederr/bad
    fixtures/seedflow/bad
)
code=0
"$bin" -C "$fixtures" -json "${bad_pkgs[@]}" >"$out/bad.json" || code=$?
if [ "$code" -ne 1 ]; then
    echo "FAIL: want exit 1 (diagnostics) on bad fixtures, got $code" >&2
    exit 1
fi
for analyzer in determinism exhaustive nilmetrics typederr seedflow; do
    n=$(python3 -c "
import json, sys
diags = json.load(open(sys.argv[1]))
print(sum(1 for d in diags if d['Analyzer'] == sys.argv[2]))
" "$out/bad.json" "$analyzer")
    if [ "$n" -eq 0 ]; then
        echo "FAIL: analyzer $analyzer reported nothing on its bad fixture" >&2
        exit 1
    fi
    echo "   $analyzer: $n diagnostic(s)"
done

# Category-level check: the forkpurity rule (docs/SNAPSHOTS.md) rides
# inside the determinism analyzer, so the per-analyzer count above
# cannot tell whether it was silently dropped — assert its category
# directly, including the case a //simlint:wallclock waiver must not
# cover.
n=$(python3 -c "
import json, sys
diags = json.load(open(sys.argv[1]))
print(sum(1 for d in diags if d['Category'] == 'forkpurity'))
" "$out/bad.json")
if [ "$n" -lt 3 ]; then
    echo "FAIL: forkpurity fired $n time(s) on the bad fixtures, want >=3" >&2
    exit 1
fi
echo "   determinism/forkpurity: $n diagnostic(s)"

echo "== clean fixtures: zero diagnostics =="
"$bin" -C "$fixtures" \
    fixtures/determinism/clean fixtures/determinism/allow \
    fixtures/exhaustive/clean fixtures/nilmetricsgood/telemetry \
    fixtures/typederr/clean fixtures/seedflow/clean

echo "== repository: zero diagnostics =="
"$bin" -C "$root" ./...

echo "PASS: all analyzers fire on bad fixtures, clean code stays clean"
