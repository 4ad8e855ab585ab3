# Convenience targets; everything is plain `go` underneath.

.PHONY: all test lint lint-smoke bench figures report attack examples fuzz fuzz-selftest absint-smoke engine-smoke harness-smoke snapshot-smoke telemetry-smoke no-test-binaries regen-results clean

all: test

test:
	go build ./... && go vet ./... && go test ./...

# Static analysis gate (see docs/LINTING.md): go vet plus the simlint
# suite of domain-invariant analyzers (determinism, exhaustive enum
# switches, nil-safe telemetry handles, typed errors, seed discipline).
# simlint lives in its own module so the root module stays
# dependency-free.
lint:
	go vet ./...
	cd tools/simlint && go vet ./... && go test ./...
	cd tools/simlint && go run . -C ../..

# Prove each analyzer still fires on known-bad fixture code — a guard
# against an analyzer being silently disabled.
lint-smoke:
	./scripts/lint_smoke.sh

test-output:
	go test -count=1 ./... 2>&1 | tee test_output.txt

bench:
	go test -bench=. -benchmem -count=1 ./... 2>&1 | tee bench_output.txt

figures:
	go run ./cmd/figures -out results

report:
	go run ./cmd/report

attack:
	go run ./cmd/unxpec -bits 1000 -evict

examples:
	go run ./examples/quickstart
	go run ./examples/spectre
	go run ./examples/covertchannel
	go run ./examples/evictionset
	go run ./examples/mitigation -scale 2500
	go run ./examples/crosscore
	go run ./examples/interference

# Differential fuzzing sweep (see docs/FUZZING.md). Failing witnesses
# land in testdata/corpus/ where the test suite replays them forever.
fuzz:
	go run ./cmd/fuzz -n 500 -seed 1

# Prove the fuzzer's properties have teeth: with a deliberately broken
# rollback the sweep MUST fail, so this target succeeds when cmd/fuzz
# exits non-zero (witnesses go to a scratch dir, not the corpus).
fuzz-selftest:
	! go run ./cmd/fuzz -n 30 -seed 0 -scheme cleanupspec -inject skip-rollback -corpus /tmp/fuzz-selftest-corpus

# Static/dynamic leak-analysis cross-check (see docs/ABSINT.md): the
# abstract speculative-taint interpreter over the full corpus and the
# spectre gadget suite, plus a 500-program fuzz sweep where absint may
# never certify NoLeak against a firing dynamic detector.
absint-smoke:
	./scripts/absint_smoke.sh

# Batched parallel trial engine check (docs/ENGINE.md): determinism
# suite and harness under -race, CSV/stdout bit-identity of figures and
# fuzz sweeps across -jobs widths, and the sim-cycles/s throughput gate
# (BenchmarkEngineBatch at min(10, 0.5 * cores) times the sequential
# BenchmarkSimulatorRawSpeed, both in internal/engine).
engine-smoke:
	./scripts/engine_smoke.sh

# End-to-end resilience check (see docs/HARNESS.md): injected faults
# become classified journaled gaps, an interrupted campaign exits 6,
# and -resume completes it with a byte-identical CSV.
harness-smoke:
	./scripts/harness_smoke.sh

# Snapshot-equivalence check under the race detector (docs/SNAPSHOTS.md):
# fork-then-run must be bit-identical to fresh-run, COW pages must never
# bleed between siblings, and a warm fork must allocate only dirty pages.
snapshot-smoke:
	./scripts/snapshot_smoke.sh

# End-to-end observability check (see docs/OBSERVABILITY.md): live
# debug endpoint while a sweep runs, campaign metrics rollup, injected
# panic with a flight-recorder post-mortem, and Chrome trace export —
# all validated by scripts/telemetrycheck.
telemetry-smoke:
	./scripts/telemetry_smoke.sh

# Hygiene gate: no compiled Go test binaries (or any native
# executable) committed to the tree.
no-test-binaries:
	./scripts/no_test_binaries.sh

# Regenerate the version-controlled golden CSVs under results/.
regen-results:
	go run ./cmd/figures -out results

# Scratch outputs only: results/*.csv are version-controlled goldens
# regenerated via `make regen-results`, never deleted here.
clean:
	rm -f test_output.txt bench_output.txt
