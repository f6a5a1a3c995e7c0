#!/usr/bin/env bash
# Pre-PR gate: static checks, race-detector runs of the packages the
# parallel engine and observability layer touch, short fuzzing runs of
# the persisted-bytes decoders, and a timed quick-scale
# paperbench run whose manifest seeds the performance trajectory. The
# previous run's checked-in BENCH baselines are stashed before
# regeneration and diffed against the fresh artifacts with cmd/obsdiff,
# so counter drift and catastrophic slowdowns fail the gate. Run from the
# repository root before sending a change; the full suite is
# `go test ./...`.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet"
go vet ./...

echo "== lintdoc (package + exported-symbol docs)"
go run scripts/lintdoc.go

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go test -race (worker pool + observability + robustness packages)"
# internal/core under -race runs ~10 min on a 1-core container; give it
# headroom beyond go test's default 10m timeout.
go test -race -timeout 25m ./internal/parallel/... ./internal/durable/... ./internal/dataset/... ./internal/obs/... \
    ./internal/fault/... ./internal/mcu/... ./internal/core/... ./internal/fleet/... \
    ./internal/ctrlplane/... ./internal/surrogate/... ./cmd/obsdiff/...

echo "== fuzz (durable envelope, experiment checkpoint, ctrlplane checkpoint)"
# Short native fuzzing runs of the decoders of persisted bytes. A crasher
# lands in the package's testdata/fuzz directory, fails this step, and is
# committed as a regression seed. -fuzzminimizetime bounds minimisation,
# which otherwise replays a ctrlplane restore thousands of times.
go test -run '^$' -fuzz '^FuzzOpen$' -fuzztime 10s ./internal/durable
go test -run '^$' -fuzz '^FuzzOpenCheckpoint$' -fuzztime 10s -fuzzminimizetime 10x ./internal/experiments
go test -run '^$' -fuzz '^FuzzCheckpointRestore$' -fuzztime 20s -fuzzminimizetime 10x ./internal/ctrlplane

# Every BENCH_*.json is a gated artifact: a bench envelope, the run
# manifest or the results file. Stash the checked-in ones before the steps
# below regenerate them in place; obsdiff compares fresh against stashed at
# the end.
baseline_dir=$(mktemp -d)
trap 'rm -rf "$baseline_dir"' EXIT
for f in BENCH_*.json; do
    [ -f "$f" ] && cp "$f" "$baseline_dir/$f"
done

echo "== uarch Execute benchmark (BENCH_uarch.json)"
# Custom metrics (instrs/s, ns/instr) come from the bench harness itself;
# -benchtime counts iterations, not seconds, so the step stays fast and the
# recorded numbers are comparable run to run on the same host.
go test -run '^$' -bench 'BenchmarkUarch' -benchtime 5x -benchmem . \
    | go run scripts/uarch-bench-json.go > BENCH_uarch.json

echo "== paperbench quick benchmark (BENCH_paperbench*.json, BENCH_<exp>.json)"
go run ./cmd/paperbench -scale quick -exp all -seed 1 -q \
    -manifest BENCH_paperbench.json -results BENCH_paperbench_results.json \
    -benchdir . \
    -events RUN_events.jsonl \
    -trace RUN_trace.json \
    > /dev/null

echo "== surrogate benchmark (BENCH_surrogate-bench.json)"
# Trains the analytic+ML surrogate on the quick-scale corpus, then times
# exact vs surrogate deployments head to head. Timings and the error
# distribution land in the bench document only (stdout is deterministic),
# and obsdiff gates error drift below just like timing drift.
go run ./cmd/paperbench -scale quick -exp surrogate-bench -seed 1 -q \
    -benchdir . \
    > /dev/null

bench_files=(BENCH_*.json)

echo "== validate emitted JSON"
go run scripts/validate-json.go "${bench_files[@]}" RUN_events.jsonl RUN_trace.json

echo "== obsdiff perf gate (fresh run vs checked-in baselines)"
# -tol 1.0 allows timing to double before failing: the quick run shares a
# container with whatever else CI is doing, so this is a coarse net for
# catastrophic regressions, not a microbenchmark. Each metric declares its
# own gate and tolerance class — see cmd/obsdiff for the tolerances and
# the default skip globs (cache-state and core-count dependent keys).
for f in "${bench_files[@]}"; do
    if [ -f "$baseline_dir/$f" ]; then
        go run ./cmd/obsdiff -tol 1.0 "$baseline_dir/$f" "$f"
    else
        echo "obsdiff: no baseline for $f (first run?); skipping"
    fi
done

echo "check.sh: all clean"
